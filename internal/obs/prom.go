package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry Snapshot in the Prometheus text exposition
// format (version 0.0.4). Instrument names in this package may embed
// label blocks — `fleet.device_inuse_bytes{device="0"}` from the
// scheduler, plus a `{job="<id>"}` block appended per attached child
// registry — so `graph.nnz{backend="spmat"}{job="j42"}` becomes the
// Prometheus series `graph_nnz{backend="spmat",job="j42"}`. Histograms
// render with cumulative buckets and an explicit `+Inf` bound, and label
// values are escaped per the exposition rules (backslash, quote, newline).

// ContentTypePrometheus is the Content-Type of the text exposition format.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// promLabel is one parsed label pair; Value is the raw (unescaped) value.
type promLabel struct {
	name, value string
}

// sanitizePromName maps an instrument base name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_:], with a non-digit first character.
func sanitizePromName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// sanitizePromLabelName maps a label name onto [a-zA-Z0-9_] with a
// non-digit first character (the label-name alphabet has no colon).
func sanitizePromLabelName(name string) string {
	s := sanitizePromName(name)
	return strings.ReplaceAll(s, ":", "_")
}

// escapePromLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapePromLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// parseInstrumentName splits a registry instrument name into its base and
// any embedded label blocks. Values inside blocks are Go-quoted (the
// convention used when callers build labeled names with %q, and what
// AttachChild documents); consecutive blocks merge, later blocks
// overriding earlier ones on duplicate label names. A name whose suffix
// does not parse as label blocks is returned whole with no labels.
func parseInstrumentName(name string) (string, []promLabel) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, nil
	}
	base, rest := name[:i], name[i:]
	var labels []promLabel
	seen := map[string]int{}
	add := func(l promLabel) {
		if at, ok := seen[l.name]; ok {
			labels[at] = l
			return
		}
		seen[l.name] = len(labels)
		labels = append(labels, l)
	}
	for len(rest) > 0 {
		if rest[0] != '{' {
			return name, nil
		}
		rest = rest[1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 {
				return name, nil
			}
			key := rest[:eq]
			rest = rest[eq+1:]
			quoted, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return name, nil
			}
			val, err := strconv.Unquote(quoted)
			if err != nil {
				return name, nil
			}
			add(promLabel{name: key, value: val})
			rest = rest[len(quoted):]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return name, nil
		}
	}
	return base, labels
}

// renderPromLabels renders a sorted, escaped label block, or "" when
// there are no labels.
func renderPromLabels(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]promLabel(nil), labels...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].name < sorted[k].name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizePromLabelName(l.name), escapePromLabelValue(l.value))
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromFloat renders a float sample value; infinities use the
// exposition spellings +Inf/-Inf.
func formatPromFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSeries is one labeled series within a family.
type promSeries struct {
	labels string // rendered label block ("" or "{a=\"x\",...}")
	value  int64  // counter/gauge value
	hist   *HistogramSnapshot
}

// promFamily is every series sharing one sanitized metric name.
type promFamily struct {
	name   string
	typ    string
	series []promSeries
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format 0.0.4: one `# TYPE` line per metric family, counters and gauges
// as single samples, histograms as cumulative `_bucket` series (with the
// `+Inf` bound) plus `_sum` and `_count`. Families and series render in
// sorted order so the output is deterministic.
func WritePrometheus(w io.Writer, s Snapshot) error {
	fams := map[string]*promFamily{}
	family := func(rawName, typ string) (*promFamily, string) {
		base, labels := parseInstrumentName(rawName)
		name := sanitizePromName(base)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		return f, renderPromLabels(labels)
	}
	for name, v := range s.Counters {
		f, labels := family(name, "counter")
		f.series = append(f.series, promSeries{labels: labels, value: v})
	}
	for name, v := range s.Gauges {
		f, labels := family(name, "gauge")
		f.series = append(f.series, promSeries{labels: labels, value: v})
	}
	for name, h := range s.Histograms {
		f, labels := family(name, "histogram")
		hc := h
		f.series = append(f.series, promSeries{labels: labels, hist: &hc})
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.series, func(i, k int) bool { return f.series[i].labels < f.series[k].labels })
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, se := range f.series {
			if se.hist == nil {
				fmt.Fprintf(bw, "%s%s %d\n", f.name, se.labels, se.value)
				continue
			}
			// Buckets are cumulative in the exposition format; the
			// snapshot stores per-bucket counts.
			cum := int64(0)
			for _, b := range se.hist.Buckets {
				cum += b.Count
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					mergeLe(se.labels, formatPromFloat(float64(b.Le))), cum)
			}
			if n := len(se.hist.Buckets); n == 0 || !math.IsInf(float64(se.hist.Buckets[n-1].Le), 1) {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, mergeLe(se.labels, "+Inf"), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, se.labels, formatPromFloat(se.hist.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, se.labels, se.hist.Count)
		}
	}
	return bw.Flush()
}

// mergeLe appends the `le` label to an already-rendered label block.
func mergeLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
