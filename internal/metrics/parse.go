package metrics

// A minimal reader for the text exposition format, for the consumers
// this repo ships: cmd/loadgen's -scrape assertions and the tests that
// pin /metrics against /v1/stats. It reads what Registry.WriteTo (or
// any conforming exporter) writes; it is not a general openmetrics
// parser — exemplars, timestamps, and escaped metric names are out of
// scope.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Scrape is one parsed exposition: every sample keyed by its full
// series name including labels, exactly as rendered (e.g.
// `http_requests_total{code="200",route="GET /v1/stats"}`).
type Scrape struct {
	Samples map[string]float64
}

// Value returns the sample for an exact series key.
func (s *Scrape) Value(series string) (float64, bool) {
	v, ok := s.Samples[series]
	return v, ok
}

// Sum adds every sample whose series name (the part before any label
// braces) equals name — the scrape-side equivalent of sum(name).
func (s *Scrape) Sum(name string) float64 {
	var total float64
	for k, v := range s.Samples {
		if familyOf(k) == name {
			total += v
		}
	}
	return total
}

// familyOf returns a series key's name: the part before any label
// braces.
func familyOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// ParseText parses a text-format exposition. Comment and blank lines
// are skipped; each remaining line must be `series value [timestamp]`.
func ParseText(r io.Reader) (*Scrape, error) {
	s := &Scrape{Samples: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		series, v, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics: parse line %d: %w", line, err)
		}
		s.Samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: parse: %w", err)
	}
	return s, nil
}

// parseSample reads one `series value [timestamp]` sample line — the
// line grammar ParseText and Merger share.
func parseSample(text string) (series string, v float64, err error) {
	series, rest, err := splitSeries(text)
	if err != nil {
		return "", 0, err
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("want `series value [ts]`, got %q", text)
	}
	if v, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return "", 0, fmt.Errorf("bad value %q", fields[0])
	}
	return series, v, nil
}

// splitSeries splits a sample line into the series (name plus label
// block, which may contain spaces inside quoted values) and the rest.
func splitSeries(text string) (series, rest string, err error) {
	brace := strings.IndexByte(text, '{')
	sp := strings.IndexByte(text, ' ')
	if brace < 0 || (sp >= 0 && sp < brace) {
		if sp < 0 {
			return "", "", fmt.Errorf("no value in %q", text)
		}
		return text[:sp], text[sp+1:], nil
	}
	// Scan past the label block, honoring escapes inside quotes.
	inQuote := false
	for i := brace + 1; i < len(text); i++ {
		switch text[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				if i+1 >= len(text) || text[i+1] != ' ' {
					return "", "", fmt.Errorf("no value after labels in %q", text)
				}
				return text[:i+1], text[i+2:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unterminated label block in %q", text)
}
