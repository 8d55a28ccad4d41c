package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value metric label.
type Label struct {
	Name, Value string
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// ValidMetricName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether s is a legal Prometheus label name:
// [a-zA-Z_][a-zA-Z0-9_]* and not double-underscore-reserved.
func ValidLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// series is one labelled instrument within a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family is every series registered under one metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds registered instruments and renders them in the Prometheus
// text exposition format. It is safe for concurrent use; registration is
// idempotent per (name, labels).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or returns the existing) counter under name with the
// given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, "gauge", labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, "gauge", labels)
	s.gf = fn
}

// Histogram registers (or returns the existing) histogram with the given
// bucket bounds (nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, "histogram", labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// AttachCounter exposes an externally owned counter under name — the path by
// which per-run accounting objects (e.g. detect.Meter) surface on /metrics
// without a second accounting site. Re-attaching the same (name, labels)
// replaces the exposed instrument.
func (r *Registry) AttachCounter(name, help string, c *Counter, labels ...Label) {
	s := r.register(name, help, "counter", labels)
	s.c = c
}

// AttachHistogram exposes an externally owned histogram.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...Label) {
	s := r.register(name, help, "histogram", labels)
	s.h = h
}

// register finds or creates the series for (name, labels), enforcing the
// Prometheus naming rules (counters end in _total) and per-family type
// consistency. Violations panic: metric registration happens at construction
// time with literal names, so a bad name is a programming error every test
// that builds the instrument fails loudly on.
func (r *Registry) register(name, help, typ string, labels []Label) *series {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %q does not end in _total", name))
	}
	for _, l := range labels {
		if !ValidLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	sig := labelSignature(labels)
	for _, s := range f.series {
		if labelSignature(s.labels) == sig {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.series = append(f.series, s)
	return s
}

// labelSignature renders labels in exposition form, sorted by name — the
// dedup key and the rendered label set.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	return b.String()
}

// MetricNames returns every registered family name, sorted.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool {
			return labelSignature(ss[i].labels) < labelSignature(ss[j].labels)
		})
		for _, s := range ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
		if f.typ == "histogram" {
			if err := writeQuantileGauges(w, f, ss); err != nil {
				return err
			}
		}
	}
	return nil
}

// quantileExports are the derived summary gauges emitted for every histogram
// family: <name>_p50/_p95/_p99, computed from the bucket counts at scrape
// time so dashboards need no Prometheus-side quantile math.
var quantileExports = []struct {
	suffix string
	q      float64
}{
	{"_p50", 0.50},
	{"_p95", 0.95},
	{"_p99", 0.99},
}

// writeQuantileGauges renders one derived gauge family per exported quantile
// of a histogram family, each with its own TYPE line so the exposition stays
// well-formed.
func writeQuantileGauges(w io.Writer, f *family, ss []*series) error {
	for _, qe := range quantileExports {
		name := f.name + qe.suffix
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name,
				escapeHelp(fmt.Sprintf("p%g of %s, interpolated from bucket counts.", qe.q*100, f.name))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, s := range ss {
			if s.h == nil {
				continue
			}
			sig := labelSignature(s.labels)
			if sig != "" {
				sig = "{" + sig + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, sig, formatFloat(s.h.Quantile(qe.q))); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	sig := labelSignature(s.labels)
	wrap := func(extra string) string {
		switch {
		case sig == "" && extra == "":
			return ""
		case sig == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + sig + "}"
		}
		return "{" + sig + "," + extra + "}"
	}
	switch {
	case s.h != nil:
		cum, count, sum := s.h.snapshot()
		for i, c := range cum {
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, wrap(`le="`+le+`"`), c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, wrap(""), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrap(""), count)
		return err
	case s.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, wrap(""), formatFloat(s.gf()))
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrap(""), s.g.Value())
		return err
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrap(""), s.c.Value())
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving the text exposition — the /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
