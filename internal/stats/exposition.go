package stats

import (
	"fmt"
	"math"
	"strings"
)

// Exposition writes the Prometheus text exposition format into a
// strings.Builder; every /metrics surface in the tree renders through
// it, so the "# HELP"/"# TYPE" header is formatted in one place. A
// family is opened by Family (or by Counter, Gauge and GaugeFloat, which
// also write its single unlabelled sample) and its samples follow.
// Integer samples print as %d and float samples as %g: a float gauge
// past a million reads 2e+06, an integer one 2000000.
type Exposition struct{ sb *strings.Builder }

// NewExposition returns a writer appending to sb.
func NewExposition(sb *strings.Builder) Exposition { return Exposition{sb} }

// Family opens a metric family; typ is "counter", "gauge" or
// "histogram".
func (e Exposition) Family(name, help, typ string) {
	fmt.Fprintf(e.sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes a counter family with one unlabelled sample.
func (e Exposition) Counter(name, help string, v int64) {
	e.Family(name, help, "counter")
	fmt.Fprintf(e.sb, "%s %d\n", name, v)
}

// Gauge writes an integer gauge family with one unlabelled sample.
func (e Exposition) Gauge(name, help string, v int64) {
	e.Family(name, help, "gauge")
	fmt.Fprintf(e.sb, "%s %d\n", name, v)
}

// GaugeFloat writes a float gauge family with one unlabelled sample.
func (e Exposition) GaugeFloat(name, help string, v float64) {
	e.Family(name, help, "gauge")
	fmt.Fprintf(e.sb, "%s %g\n", name, v)
}

// Labelled writes one sample of the open family under a single label.
func (e Exposition) Labelled(name, key, value string, v int64) {
	fmt.Fprintf(e.sb, "%s{%s=%q} %d\n", name, key, value, v)
}

// Histogram writes h as one series of the open histogram family: its
// cumulative buckets, sum and count, under the label key=value when key
// is non-empty.
func (e Exposition) Histogram(name, key, value string, h *Histogram) {
	var lead, set string // the label inside a bucket's braces, and as a set of its own
	if key != "" {
		lead = fmt.Sprintf("%s=%q,", key, value)
		set = fmt.Sprintf("{%s=%q}", key, value)
	}
	for _, b := range h.Buckets() {
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = fmt.Sprintf("%g", b.UpperBound)
		}
		fmt.Fprintf(e.sb, "%s_bucket{%sle=%q} %d\n", name, lead, le, b.CumulativeCount)
	}
	fmt.Fprintf(e.sb, "%s_sum%s %g\n", name, set, h.Sum())
	fmt.Fprintf(e.sb, "%s_count%s %d\n", name, set, h.Count())
}
