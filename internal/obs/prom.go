package obs

import (
	"fmt"
	"io"
	"strings"
)

// This file is the registry's one export surface: the Prometheus text
// exposition format, served at GET /metrics and written by the CLI's
// -metrics-out. All rendering happens at scrape time; record paths
// never format anything.

// promLabels renders a series' label set for the exposition format,
// optionally with an extra trailing label (histograms' le).
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), in registration order with series in
// registration order — a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.visit(func(fam *family) {
		if fam.help != "" {
			pf("# HELP %s %s\n", fam.name, fam.help)
		}
		pf("# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch fam.kind {
			case kindCounter:
				pf("%s%s %d\n", fam.name, promLabels(s.labels, "", ""), s.c.Value())
			case kindGauge:
				pf("%s%s %d\n", fam.name, promLabels(s.labels, "", ""), s.g.Value())
			case kindHistogram:
				bounds, cum := s.h.Snapshot()
				for i, b := range bounds {
					pf("%s_bucket%s %d\n", fam.name, promLabels(s.labels, "le", formatBound(b)), cum[i])
				}
				pf("%s_bucket%s %d\n", fam.name, promLabels(s.labels, "le", "+Inf"), cum[len(cum)-1])
				pf("%s_sum%s %g\n", fam.name, promLabels(s.labels, "", ""), s.h.Sum().Seconds())
				pf("%s_count%s %d\n", fam.name, promLabels(s.labels, "", ""), s.h.Count())
			}
		}
	})
	return err
}
