package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Family declares one Prometheus metric family: the name, TYPE and HELP
// text every series of it is exposed under. Each /metrics family in the
// stack is declared once as a Family and rendered by Write.
type Family struct {
	Name string
	Kind string // "counter", "gauge" or "histogram"
	Help string
}

// Counter declares a monotonic counter family.
func Counter(name, help string) Family { return Family{Name: name, Kind: "counter", Help: help} }

// Gauge declares a gauge family.
func Gauge(name, help string) Family { return Family{Name: name, Kind: "gauge", Help: help} }

// Sample is one series of a family: its label pairs (name, value,
// name, value, ...) and its value.
type Sample struct {
	Labels []string
	Value  float64
}

// Write renders the family in Prometheus text format: the HELP/TYPE
// block, then one line per sample in the order given. A family with no
// samples renders nothing.
func (f Family) Write(w io.Writer, samples ...Sample) {
	if len(samples) == 0 {
		return
	}
	f.header(w)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", f.Name, labelSet(s.Labels), formatFloat(s.Value))
	}
}

// header writes the family's HELP (when it has one) and TYPE lines.
func (f Family) header(w io.Writer) {
	if f.Help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind)
}

// labelSet renders name/value pairs as {a="x",b="y"} ("" for none).
func labelSet(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	parts := make([]string, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", pairs[i], pairs[i+1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
