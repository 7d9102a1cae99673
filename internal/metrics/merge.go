package metrics

import "strings"

// Merger folds several text expositions into one — the gateway's
// fleet-wide /metrics is every partition's exposition merged. Comment
// lines (# HELP / # TYPE) pass through once in first-seen order,
// identical series aggregate (sum by default, max for the families the
// caller names), and series keep their first-seen position. It reads
// with the parser ParseText uses and renders values the way
// Registry.WriteTo does, so a merged sample reads exactly like the
// partitions' own.
type Merger struct {
	maxFamilies map[string]bool
	order       []mergeEntry
	series      map[string]int  // series key -> index into order
	seen        map[string]bool // comment lines already emitted
}

type mergeEntry struct {
	comment string // non-empty for pass-through comment lines
	key     string // series key (name + label set) otherwise
	value   float64
	max     bool
}

// NewMerger returns an empty Merger. Series of the families named in
// maxFamilies (clocks, lag, ratios — where a sum is meaningless) take
// the maximum across expositions; every other series sums.
func NewMerger(maxFamilies map[string]bool) *Merger {
	return &Merger{maxFamilies: maxFamilies, series: make(map[string]int), seen: make(map[string]bool)}
}

// Absorb folds one exposition in. Lines that are not a sample or a
// comment are skipped: one partition's bad line must not cost the
// fleet its scrape.
func (m *Merger) Absorb(text []byte) {
	for _, raw := range strings.Split(string(text), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !m.seen[line] {
				m.seen[line] = true
				m.order = append(m.order, mergeEntry{comment: line})
			}
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			continue
		}
		if i, dup := m.series[key]; dup {
			if m.order[i].max {
				if val > m.order[i].value {
					m.order[i].value = val
				}
			} else {
				m.order[i].value += val
			}
			continue
		}
		m.series[key] = len(m.order)
		m.order = append(m.order, mergeEntry{key: key, value: val, max: m.maxFamilies[familyOf(key)]})
	}
}

// WriteTo renders the merged exposition.
func (m *Merger) WriteTo(w writer) error {
	var b []byte
	for _, e := range m.order {
		if e.comment != "" {
			b = append(append(b, e.comment...), '\n')
			continue
		}
		b = appendSeries(b, e.key, "", e.value)
	}
	_, err := w.Write(b)
	return err
}
