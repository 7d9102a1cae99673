package schedd

// The binary batch-submit protocol (POST /v1/jobs/batch, BinaryWire):
// the frame codecs of the fast path next to the JSON route. One request
// is one frame — magic and version, then an internal/frame record, the
// layout internal/wal journals and internal/repl streams (that package
// holds the mechanics of the record and of the payload's fields):
//
//	"CSBB" | version | payload len uint32 BE | crc32(payload) uint32 BE | payload
//
// The payload is a job batch in the spirit of sched's job codec:
//
//	count uvarint (>= 1)
//	per job: flags byte (1 = explicit id, 2 = interruptible,
//	         4 = migratable, 8 = has tenant — version 2 only)
//	         [ id zigzag varint, when flag 1 is set ]
//	         origin len uvarint | origin bytes
//	         length uvarint | slack uvarint
//	         [ tenant len uvarint | tenant bytes, when flag 8 is set ]
//
// Version 1 is the pre-tenancy format; version 2 adds the tenant flag
// and trailer. The server accepts both, and the client emits version 2
// only when a batch actually names a tenant — so tenant-free traffic
// stays byte-identical to version 1 and keeps working against older
// servers. Flag 8 in a version-1 frame is an unknown-flag 400.
//
// A 200 response is an ack frame with magic "CSBA" and payload
//
//	arrival uvarint | count uvarint | ids as zigzag deltas
//	                                  (first delta is from 0)
//
// while every non-200 response keeps the shared JSON {"error": ...}
// shape, so the failover client's redirect/backpressure handling is
// protocol-independent. Anything after the frame, a bad magic, an
// unknown version, or a CRC mismatch is a 400; a body past
// httpx.MaxBody is a 413 like on the JSON route.
//
// Why it is fast: the request is decoded straight out of a pooled read
// buffer into the pooled batch (origins interned against the cluster
// table, so no string allocation either), admitted in one admitMu
// section, journaled as contiguous records under one group commit, and
// acked from a pooled output buffer. What is left is fixed per request,
// not per job: serveSubmit called directly (metrics and tracing off,
// in-memory, 64 jobs, a reused request and a discarding ResponseWriter)
// measures 3 allocations per request on this wire — the body limiter,
// the one-byte probe for trailing data that escapes through io.Reader,
// the Content-Type header value — plus the fleet store's amortized
// growth (about one every other request), against 90 on the JSON wire,
// which pays encoding/json per job. The frame itself is read into the
// pooled payload buffer, header included, and costs none.
// TestSubmitHandlerAllocs fails above 5 and 92.

import (
	"bytes"
	"fmt"
	"io"

	"carbonshift/internal/frame"
	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
)

// BinaryContentType is the media type of the binary batch-submit
// protocol on POST /v1/jobs/batch.
const BinaryContentType = "application/x-carbonshift-batch"

const (
	binReqMagic = "CSBB"
	binAckMagic = "CSBA"
	// binVersion is the pre-tenancy frame format; binVersionTenant adds
	// the per-job tenant flag and trailer. Acks are always binVersion —
	// they carry no tenant content.
	binVersion       = 1
	binVersionTenant = 2
	// binPrefixLen: 4 magic + 1 version bytes. A frame record follows;
	// binHeaderLen is everything before its payload.
	binPrefixLen = len(binReqMagic) + 1
	binHeaderLen = binPrefixLen + frame.HeaderLen
)

// Per-job flag bits in the binary job encoding. binFlagHasTenant is
// valid only in version-2 frames.
const (
	binFlagHasID         = 1
	binFlagInterruptible = 2
	binFlagMigratable    = 4
	binFlagHasTenant     = 8
)

// appendBinaryFrame appends one frame: magic, version, and the
// length/CRC header over the payload that build writes. build receives
// the buffer positioned after the header and returns it extended; the
// header is back-filled, so no intermediate payload slice is
// allocated.
func appendBinaryFrame(buf []byte, magic string, version byte, build func([]byte) []byte) []byte {
	buf = append(buf, magic...)
	buf = append(buf, version)
	hdr := len(buf)
	buf = build(append(buf, 0, 0, 0, 0, 0, 0, 0, 0))
	frame.PutHeader(buf[hdr:], buf[hdr+frame.HeaderLen:])
	return buf
}

// appendBinarySubmitChecked is BinaryWire's request encoder: the wire
// format is unsigned, so nonsense the server-side validator would
// reject anyway is caught here before it wraps around.
func appendBinarySubmitChecked(buf []byte, jobs []JobRequest) ([]byte, error) {
	for i := range jobs {
		if jobs[i].LengthHours < 0 || jobs[i].SlackHours < 0 {
			return nil, fmt.Errorf("job %d has negative length or slack", i)
		}
	}
	return AppendBinarySubmit(buf, jobs), nil
}

// AppendBinarySubmit appends a request frame — the encoding
// Client.SubmitBatch puts on the wire. A batch that names no tenant is
// emitted as version 1, byte-identical to the pre-tenancy encoding, so
// it still works against servers that predate version 2.
func AppendBinarySubmit(buf []byte, jobs []JobRequest) []byte {
	version := byte(binVersion)
	for i := range jobs {
		if jobs[i].Tenant != "" {
			version = binVersionTenant
			break
		}
	}
	return appendBinaryFrame(buf, binReqMagic, version, func(buf []byte) []byte {
		e := frame.Enc{Buf: buf}
		e.Int(len(jobs))
		for i := range jobs {
			jr := &jobs[i]
			var flags byte
			if jr.ID != nil {
				flags |= binFlagHasID
			}
			if jr.Interruptible {
				flags |= binFlagInterruptible
			}
			if jr.Migratable {
				flags |= binFlagMigratable
			}
			if jr.Tenant != "" {
				flags |= binFlagHasTenant
			}
			e.Byte(flags)
			if jr.ID != nil {
				e.Varint(*jr.ID)
			}
			e.String(jr.Origin)
			e.Int(jr.LengthHours)
			e.Int(jr.SlackHours)
			if jr.Tenant != "" {
				e.String(jr.Tenant)
			}
		}
		return e.Buf
	})
}

// readBinaryFrame reads one whole frame with the given magic into
// b.payload (CRC-verified) and rejects trailing bytes, exactly as
// DecodeSubmit rejects trailing data after the JSON value. Prefix,
// record header and payload all land in b.payload's own capacity, so a
// pooled batch reads a frame without allocating for it; only the
// one-byte probe for trailing data escapes. Errors wrap the reader's, so an
// *http.MaxBytesError from the body limit survives for the 413 mapping;
// everything else about a frame — magic, version, a declared length
// past httpx.MaxBody (which also bounds the allocation: a frame that
// size can never fit under the body limit anyway), CRC — is a 400.
func readBinaryFrame(r io.Reader, magic string, b *batch) error {
	if cap(b.payload) < binHeaderLen {
		b.payload = make([]byte, binHeaderLen)
	}
	pre := b.payload[:binPrefixLen]
	if _, err := io.ReadFull(r, pre); err != nil {
		return fmt.Errorf("binary submit: short frame header: %w", err)
	}
	if string(pre[:len(magic)]) != magic {
		return fmt.Errorf("binary submit: bad magic %q", pre[:len(magic)])
	}
	b.ver = pre[len(magic)]
	if b.ver != binVersion && b.ver != binVersionTenant {
		return fmt.Errorf("binary submit: unsupported version %d (want %d or %d)", b.ver, binVersion, binVersionTenant)
	}
	payload, err := frame.ReadRecord(r, b.payload, httpx.MaxBody)
	if err != nil {
		return fmt.Errorf("binary submit: %w", err)
	}
	b.payload = payload
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("binary submit: trailing data after frame")
	default:
		return fmt.Errorf("binary submit: trailing read: %w", err)
	}
}

// decodeBinaryJobs decodes b.payload into b.jobs/b.auto, interning
// origin strings through intern (and tenant names through
// internTenant) so a known region or configured tenant costs no
// allocation. b.ids is sized alongside for admit to fill. The tenant
// flag is honored only for version-2 frames; in a version-1 frame it
// is an unknown flag.
func decodeBinaryJobs(b *batch, intern, internTenant func([]byte) string) error {
	d := frame.Dec{Data: b.payload}
	// Every job costs at least 3 bytes (flags, origin len, length, slack
	// overlap at minimum widths), so Count catches an absurd count
	// before it can size the scratch slices.
	count := d.Count()
	if d.Err != nil {
		return fmt.Errorf("binary submit: job count: %w", d.Err)
	}
	if count == 0 {
		return fmt.Errorf("binary submit: empty job batch")
	}
	allowed := byte(binFlagHasID | binFlagInterruptible | binFlagMigratable)
	if b.ver >= binVersionTenant {
		allowed |= binFlagHasTenant
	}
	b.grow(count)
	for i := 0; i < count; i++ {
		flags := d.Byte()
		if flags&^allowed != 0 {
			return fmt.Errorf("binary submit: job %d: unknown flags %#x", i, flags)
		}
		j := sched.Job{
			Interruptible: flags&binFlagInterruptible != 0,
			Migratable:    flags&binFlagMigratable != 0,
		}
		if flags&binFlagHasID != 0 {
			j.ID = d.Varint()
		}
		j.Origin = intern(d.Bytes())
		j.Length = d.Int()
		j.Slack = d.Int()
		if flags&binFlagHasTenant != 0 {
			j.Tenant = internTenant(d.Bytes())
		}
		if d.Err != nil {
			return fmt.Errorf("binary submit: job %d: %w", i, d.Err)
		}
		b.jobs[i] = j
		b.auto[i] = flags&binFlagHasID == 0
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("binary submit: %w", err)
	}
	return nil
}

// AppendBinaryAck appends the 200 response frame for an admitted
// batch. Ids are usually consecutive (the auto-assignment case), which
// the zigzag delta encoding turns into one byte per job.
func AppendBinaryAck(buf []byte, arrival int, ids []int) []byte {
	return appendBinaryFrame(buf, binAckMagic, binVersion, func(buf []byte) []byte {
		e := frame.Enc{Buf: buf}
		e.Int(arrival)
		e.Int(len(ids))
		prev := 0
		for _, id := range ids {
			e.Varint(id - prev)
			prev = id
		}
		return e.Buf
	})
}

// DecodeBinaryAck parses an ack frame into the JSON route's response
// type.
func DecodeBinaryAck(data []byte) (SubmitResponse, error) {
	b := &batch{}
	if err := readBinaryFrame(bytes.NewReader(data), binAckMagic, b); err != nil {
		return SubmitResponse{}, err
	}
	d := frame.Dec{Data: b.payload}
	arrival := d.Int()
	ids := make([]int, d.Count())
	prev := 0
	for i := range ids {
		prev += d.Varint()
		ids[i] = prev
	}
	if err := d.Done(); err != nil {
		return SubmitResponse{}, fmt.Errorf("binary ack: %w", err)
	}
	return SubmitResponse{IDs: ids, ArrivalHour: arrival, Accepted: len(ids)}, nil
}

// internOrigin resolves an origin to the cluster table's string when
// the region is known — a map hit on a string([]byte) key does not
// allocate — and falls back to a fresh string for unknown origins,
// which validation rejects anyway.
func (s *Server) internOrigin(b []byte) string {
	if o, ok := s.origins[string(b)]; ok {
		return o
	}
	return string(b)
}

// internTenant is the tenant-name twin of internOrigin, resolving
// against the configured tenant set; unknown names still decode (the
// gate and the fair queue treat them through the catch-all or default
// spec) at the cost of one allocation.
func (s *Server) internTenant(b []byte) string {
	if t, ok := s.tenants[string(b)]; ok {
		return t
	}
	return string(b)
}

// decodeBinary is BinaryWire's server-side decode: one frame, straight
// into the pooled batch.
func (s *Server) decodeBinary(r io.Reader, b *batch) error {
	if err := readBinaryFrame(r, binReqMagic, b); err != nil {
		return err
	}
	return decodeBinaryJobs(b, s.internOrigin, s.internTenant)
}
