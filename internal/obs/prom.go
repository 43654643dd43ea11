package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a registry metric name into the Prometheus data
// model ([a-zA-Z_:][a-zA-Z0-9_:]*): the registry's dotted hierarchy and
// engine dashes map to underscores, and a leading digit gets an
// underscore prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket series with an le="+Inf"
// bucket plus _sum and _count. A nil registry writes nothing. Metric
// names pass through promName, so the registry's dotted names arrive as
// e.g. serve_job_run_ns_bucket{le="16384"}.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range r.Snapshot() {
		name := promName(p.Name)
		fmt.Fprintf(bw, "# HELP %s %s\n", name, p.Name)
		switch p.Kind {
		case "counter":
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, p.Value)
		case "gauge":
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, p.Value)
		case "histogram":
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			var cum int64
			for i, bound := range p.Bounds {
				cum += p.Buckets[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
			}
			if n := len(p.Bounds); n < len(p.Buckets) {
				cum += p.Buckets[n]
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(bw, "%s_sum %d\n", name, p.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", name, p.Count)
		}
	}
	return bw.Flush()
}
