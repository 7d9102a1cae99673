package tenant

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrQuota and ErrRate classify admission rejections so the service
// layer can map both to 429 while counting them under distinct
// backpressure reasons.
var (
	ErrQuota = errors.New("tenant quota exceeded")
	ErrRate  = errors.New("tenant rate limited")
)

// retryableError decorates a rejection with the wall-clock seconds
// after which a retry can succeed — the Retry-After hint. It unwraps
// to the underlying classification error, so errors.Is(err, ErrRate)
// keeps working, and its message is the undecorated rejection.
type retryableError struct {
	err   error
	after int
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// RetryAfterSeconds extracts the retry hint carried by an admission
// rejection, or 0 if the error carries none.
func RetryAfterSeconds(err error) int {
	var re *retryableError
	if errors.As(err, &re) {
		return re.after
	}
	return 0
}

// Gate enforces per-tenant admission limits: a jobs-per-fleet-hour
// quota (deterministic — keyed to the replayed hour, so property tests
// and recovery replay agree) and a wall-clock token bucket (protecting
// the real service from request floods; the clock is injectable for
// tests).
//
// Check and Commit are split because the caller's fleet submission can
// still fail between them: Check (under the fleet's read lock, where
// the hour is frozen) proves the batch would fit, Commit (after the
// fleet accepted it) consumes quota and tokens. Both are safe for
// concurrent use, though internal/schedd already serializes them under
// its admission lock.
type Gate struct {
	cfg *Config
	now func() time.Time

	mu      sync.Mutex
	hours   map[string]*hourCount
	buckets map[string]*bucket
}

// hourCount tracks one tenant's admissions in one fleet hour; the
// window resets whenever the hour moves (hours are monotone in both
// live serving and replay).
type hourCount struct {
	hour int
	n    int
}

// bucket is a standard token bucket: tokens refill at rate/sec up to
// burst, one token per admitted job.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewGate builds a gate over the config. now is the token-bucket
// clock; nil means time.Now.
func NewGate(cfg *Config, now func() time.Time) *Gate {
	if now == nil {
		now = time.Now
	}
	return &Gate{
		cfg:     cfg,
		now:     now,
		hours:   make(map[string]*hourCount),
		buckets: make(map[string]*bucket),
	}
}

// Check reports whether admitting n more jobs for the tenant at the
// given fleet hour would violate its quota or rate limit. It consumes
// nothing.
func (g *Gate) Check(name string, n, hour int) error {
	if g == nil {
		return nil
	}
	name = Normalize(name)
	sp, _ := g.cfg.Lookup(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	if q := sp.QuotaJobsPerHour; q > 0 {
		used := 0
		if hc := g.hours[name]; hc != nil && hc.hour == hour {
			used = hc.n
		}
		if used+n > q {
			return fmt.Errorf("tenant %q: %w (%d/%d jobs at hour %d)", name, ErrQuota, used+n, q, hour)
		}
	}
	if sp.RatePerSec > 0 {
		if tokens := g.peekTokens(name, sp); tokens < float64(n) {
			// The bucket refills at RatePerSec, so the deficit divided
			// by the rate is exactly how long the caller must wait.
			after := int(math.Ceil((float64(n) - tokens) / sp.RatePerSec))
			if after < 1 {
				after = 1
			}
			return &retryableError{
				err:   fmt.Errorf("tenant %q: %w (%.3g jobs/s)", name, ErrRate, sp.RatePerSec),
				after: after,
			}
		}
	}
	return nil
}

// Commit records n admitted jobs for the tenant at the given hour,
// consuming quota window and rate tokens.
func (g *Gate) Commit(name string, n, hour int) {
	if g == nil {
		return
	}
	name = Normalize(name)
	sp, _ := g.cfg.Lookup(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	hc := g.hours[name]
	if hc == nil {
		hc = &hourCount{hour: hour}
		g.hours[name] = hc
	}
	if hc.hour != hour {
		hc.hour, hc.n = hour, 0
	}
	hc.n += n
	if sp.RatePerSec > 0 {
		g.peekTokens(name, sp) // refill to now
		g.buckets[name].tokens -= float64(n)
	}
}

// peekTokens refills the tenant's bucket to the current instant and
// returns the balance. Callers hold g.mu.
func (g *Gate) peekTokens(name string, sp Spec) float64 {
	burst := float64(sp.Burst)
	if sp.Burst < 1 {
		burst = float64(max(int(sp.RatePerSec), 1))
	}
	b := g.buckets[name]
	now := g.now()
	if b == nil {
		b = &bucket{tokens: burst, last: now}
		g.buckets[name] = b
		return b.tokens
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*sp.RatePerSec, burst)
	}
	b.last = now
	return b.tokens
}

// Reset replaces the quota windows with the given per-tenant counts at
// the given hour — the crash-recovery and follower-promotion path,
// where the current hour's admissions are rebuilt from the recovered
// fleet so quota enforcement continues exactly where the previous
// primary stopped. Token buckets restart full: wall-clock state does
// not survive a process.
func (g *Gate) Reset(hour int, counts map[string]int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hours = make(map[string]*hourCount, len(counts))
	g.buckets = make(map[string]*bucket)
	for name, n := range counts {
		g.hours[Normalize(name)] = &hourCount{hour: hour, n: n}
	}
}

// Config returns the gate's tenant registry.
func (g *Gate) Config() *Config {
	if g == nil {
		return nil
	}
	return g.cfg
}
