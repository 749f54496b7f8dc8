package serve

// Prometheus exposition-format conformance for /metrics, checked with a
// purpose-built mini-parser rather than string containment: a scraper
// rejects the whole page on one malformed line, so the test enforces
// the format rules that actually break ingestion — HELP/TYPE headers
// preceding their samples exactly once, no duplicate series, quoted and
// escapable label values, histogram buckets cumulative and ending at
// le="+Inf" in agreement with _count.

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// parseProm parses a text-format 0.0.4 page into per-family metadata and
// samples, failing the test on any line that does not lex.
func parseProm(t *testing.T, body string) (help, typ map[string]string, samples []promSample) {
	t.Helper()
	help = make(map[string]string)
	typ = make(map[string]string)
	sawSample := make(map[string]bool)
	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, ok := strings.Cut(rest, " ")
			if !ok || name == "" || text == "" {
				t.Fatalf("line %d: malformed HELP: %q", lineNo, line)
			}
			if _, dup := help[name]; dup {
				t.Fatalf("line %d: second HELP for %s", lineNo, name)
			}
			if sawSample[name] {
				t.Fatalf("line %d: HELP for %s after its samples", lineNo, name)
			}
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q for %s", lineNo, kind, name)
			}
			if _, dup := typ[name]; dup {
				t.Fatalf("line %d: second TYPE for %s", lineNo, name)
			}
			if sawSample[name] {
				t.Fatalf("line %d: TYPE for %s after its samples", lineNo, name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s := parsePromSample(t, line, lineNo)
		sawSample[familyOf(s.name)] = true
		samples = append(samples, s)
	}
	return help, typ, samples
}

// parsePromSample lexes `name{l1="v1",l2="v2"} value` (labels optional).
func parsePromSample(t *testing.T, line string, lineNo int) promSample {
	t.Helper()
	s := promSample{labels: make(map[string]string), line: lineNo}
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		s.name = line[:brace]
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			t.Fatalf("line %d: unterminated label set: %q", lineNo, line)
		}
		for _, pair := range splitLabels(t, line[brace+1:end], lineNo) {
			key, quoted, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("line %d: label without '=': %q", lineNo, pair)
			}
			val, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("line %d: label value %s not a quoted string: %v", lineNo, quoted, err)
			}
			if _, dup := s.labels[key]; dup {
				t.Fatalf("line %d: duplicate label %q", lineNo, key)
			}
			s.labels[key] = val
		}
		rest = line[end+1:]
	} else {
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", lineNo, line)
		}
		s.name = name
		rest = " " + v
	}
	valStr := strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		t.Fatalf("line %d: value %q does not parse: %v", lineNo, valStr, err)
	}
	s.value = v
	if s.name == "" {
		t.Fatalf("line %d: empty metric name", lineNo)
	}
	return s
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(t *testing.T, body string, lineNo int) []string {
	t.Helper()
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if depth {
		t.Fatalf("line %d: unbalanced quotes in labels %q", lineNo, body)
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// familyOf maps a sample name to its metric family: histogram series
// carry _bucket/_sum/_count suffixes on the family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if fam, ok := strings.CutSuffix(name, suf); ok {
			return fam
		}
	}
	return name
}

// seriesKey renders name plus the sorted label set — the identity a TSDB
// stores — for duplicate detection.
func seriesKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.labels[k])
	}
	return b.String()
}

// labelsWithoutLe is the bucket-group identity: one histogram's buckets
// share every label except le.
func labelsWithoutLe(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + s.labels[k] + "|")
	}
	return b.String()
}

func TestMetricsPrometheusConformance(t *testing.T) {
	skipShort(t)
	s := testServer(t)
	t.Cleanup(s.Close)
	// Populate the latency histogram with a real query so the
	// conformance check sees non-empty bucket series.
	if w := postJSON(t, s, "/v1/gradient", `{"chip": 25, "pvcsel": 2e-3}`); w.Code != http.StatusOK {
		t.Fatalf("seed query failed: %d (%s)", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain version=0.0.4", ct)
	}
	help, typ, samples := parseProm(t, w.Body.String())
	if len(samples) == 0 {
		t.Fatal("no samples on the page")
	}

	// Every sample's family must carry HELP and TYPE.
	seen := make(map[string]bool)
	for _, s := range samples {
		fam := familyOf(s.name)
		if help[fam] == "" {
			t.Errorf("line %d: %s has no HELP", s.line, fam)
		}
		if typ[fam] == "" {
			t.Errorf("line %d: %s has no TYPE", s.line, fam)
		}
		if key := seriesKey(s); seen[key] {
			t.Errorf("line %d: duplicate series %s", s.line, key)
		} else {
			seen[key] = true
		}
		// _bucket/_sum/_count suffixes are reserved for histograms; a
		// counter named *_total_count would shadow them.
		if fam != s.name && typ[fam] != "histogram" {
			t.Errorf("line %d: %s uses a histogram suffix but %s is a %s", s.line, s.name, fam, typ[fam])
		}
	}

	// Histogram families: group buckets by label set, check cumulative
	// monotonicity, the +Inf terminal, and agreement with _count.
	type group struct {
		les    []float64
		counts []float64
		hasInf bool
		count  float64
	}
	groups := make(map[string]*group)
	g := func(fam string, s promSample) *group {
		key := fam + "|" + labelsWithoutLe(s)
		if groups[key] == nil {
			groups[key] = &group{count: -1}
		}
		return groups[key]
	}
	for fam, kind := range typ {
		if kind != "histogram" {
			continue
		}
		for _, s := range samples {
			switch s.name {
			case fam + "_bucket":
				le, ok := s.labels["le"]
				if !ok {
					t.Fatalf("line %d: bucket without le: %s", s.line, s.name)
				}
				gr := g(fam, s)
				if le == "+Inf" {
					gr.hasInf = true
					gr.les = append(gr.les, 0)
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("line %d: le=%q does not parse: %v", s.line, le, err)
					}
					if gr.hasInf {
						t.Errorf("line %d: bucket le=%q after +Inf", s.line, le)
					}
					gr.les = append(gr.les, bound)
				}
				gr.counts = append(gr.counts, s.value)
			case fam + "_count":
				g(fam, s).count = s.value
			}
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram bucket groups found")
	}
	for key, gr := range groups {
		if !gr.hasInf {
			t.Errorf("%s: bucket series does not end at le=\"+Inf\"", key)
		}
		for i := 1; i < len(gr.counts); i++ {
			if gr.les[i] != 0 && gr.les[i] <= gr.les[i-1] {
				t.Errorf("%s: bucket bounds not increasing at index %d", key, i)
			}
			if gr.counts[i] < gr.counts[i-1] {
				t.Errorf("%s: cumulative bucket counts decrease at index %d (%g -> %g)",
					key, i, gr.counts[i-1], gr.counts[i])
			}
		}
		if gr.count < 0 {
			t.Errorf("%s: histogram has buckets but no _count", key)
		} else if n := len(gr.counts); n > 0 && gr.counts[n-1] != gr.count {
			t.Errorf("%s: +Inf bucket %g != _count %g", key, gr.counts[n-1], gr.count)
		}
	}

	// The series the ops runbook and the fleet scraper key on.
	for _, want := range []string{
		"vcseld_query_duration_seconds", "vcseld_evaluations_total", "vcseld_jobs",
	} {
		if typ[want] == "" {
			t.Errorf("family %s missing from /metrics", want)
		}
	}
}
