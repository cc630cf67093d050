package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"element/internal/telemetry/stream"
)

// Format names an exporter for CLI flags.
type Format string

// Supported export formats.
const (
	FormatChrome Format = "chrome"
	FormatJSONL  Format = "jsonl"
	FormatText   Format = "text"
)

// ParseFormat validates a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatChrome, FormatJSONL, FormatText:
		return Format(s), nil
	}
	return "", fmt.Errorf("telemetry: unknown format %q (have chrome, jsonl, text)", s)
}

// Export writes the run's telemetry to w in the given format.
func (t *Telemetry) Export(w io.Writer, f Format) error {
	switch f {
	case FormatChrome:
		return t.WriteChromeTrace(w)
	case FormatJSONL:
		return t.WriteJSONL(w)
	case FormatText:
		return t.WriteText(w)
	}
	return fmt.Errorf("telemetry: unknown format %q", f)
}

// ChromeEvent is one entry of the Chrome trace_event "JSON Array Format"
// (also understood by Perfetto). Instants use ph "i", counter tracks "C",
// complete duration events "X" (with DurUs), metadata "M".
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTraceWriter streams ChromeEvents as a loadable trace_event JSON
// document. It factors the envelope/comma bookkeeping out of the exporters
// so other subsystems (the waterfall attribution, notably) can emit their
// own tracks in the same format. Call Close to finish the document.
type ChromeTraceWriter struct {
	bw    *bufio.Writer
	enc   *json.Encoder
	first bool
	err   error
}

// NewChromeTraceWriter starts a trace_event document on w.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	cw := &ChromeTraceWriter{bw: bw, enc: enc, first: true}
	_, cw.err = bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return cw
}

// Write appends one event to the document.
func (cw *ChromeTraceWriter) Write(ev ChromeEvent) error {
	if cw.err != nil {
		return cw.err
	}
	if !cw.first {
		if cw.err = cw.bw.WriteByte(','); cw.err != nil {
			return cw.err
		}
	}
	cw.first = false
	// Encoder appends a newline after each value; harmless inside the
	// array and keeps the file diffable.
	cw.err = cw.enc.Encode(ev)
	return cw.err
}

// Close terminates the JSON document and flushes.
func (cw *ChromeTraceWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.bw.WriteString("]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

func fieldArgs(fields []Field) map[string]any {
	if len(fields) == 0 {
		return nil
	}
	args := make(map[string]any, len(fields))
	for _, f := range fields {
		if f.Str != "" {
			args[f.Key] = f.Str
		} else {
			args[f.Key] = f.Val
		}
	}
	return args
}

// numericArgs keeps only numeric fields (Chrome counter tracks reject
// string series).
func numericArgs(fields []Field) map[string]any {
	args := make(map[string]any, len(fields))
	for _, f := range fields {
		if f.Str == "" {
			args[f.Key] = f.Val
		}
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteChromeTrace writes the event ring as Chrome trace_event JSON loadable
// in chrome://tracing or https://ui.perfetto.dev. Components become
// categories and name thread tracks; flows become thread IDs; Sample events
// become counter tracks ("C"), point events become thread instants ("i").
func (t *Telemetry) WriteChromeTrace(w io.Writer) error {
	cw := NewChromeTraceWriter(w)
	events := t.Tracer().Events()

	// Name the (pid, tid) tracks after component/flow so the UI is legible.
	type track struct {
		comp string
		flow int
	}
	seen := map[track]bool{}
	pids := map[string]int{}
	pidOf := func(comp string) int {
		if id, ok := pids[comp]; ok {
			return id
		}
		id := len(pids) + 1
		pids[comp] = id
		return id
	}

	for _, ev := range events {
		pid := pidOf(ev.Component)
		tr := track{ev.Component, ev.Flow}
		if !seen[tr] {
			seen[tr] = true
			meta := ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": ev.Component},
			}
			if err := cw.Write(meta); err != nil {
				return err
			}
			meta = ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: ev.Flow,
				Args: map[string]any{"name": fmt.Sprintf("%s/flow%d", ev.Component, ev.Flow)},
			}
			if err := cw.Write(meta); err != nil {
				return err
			}
		}
		ce := ChromeEvent{
			Name: ev.Name,
			Cat:  ev.Component,
			TsUs: float64(ev.At) / 1e3, // ns → µs
			Pid:  pid,
			Tid:  ev.Flow,
		}
		if ev.Sample {
			ce.Ph = "C"
			ce.Args = numericArgs(ev.Fields)
		} else {
			ce.Ph = "i"
			ce.Scope = "t"
			ce.Args = fieldArgs(ev.Fields)
		}
		if err := cw.Write(ce); err != nil {
			return err
		}
	}
	return cw.Close()
}

// jsonlEvent is the JSONL export schema: one event object per line.
type jsonlEvent struct {
	T         float64        `json:"t"` // virtual seconds
	Component string         `json:"component"`
	Flow      int            `json:"flow"`
	Event     string         `json:"event"`
	Sev       string         `json:"sev"`
	Sample    bool           `json:"sample,omitempty"`
	Fields    map[string]any `json:"fields,omitempty"`
}

// WriteJSONL writes the event ring as one JSON object per line, oldest
// first — the format for ad-hoc jq/awk analysis.
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for _, ev := range t.Tracer().Events() {
		je := jsonlEvent{
			T:         ev.At.Seconds(),
			Component: ev.Component,
			Flow:      ev.Flow,
			Event:     ev.Name,
			Sev:       ev.Sev.String(),
			Sample:    ev.Sample,
			Fields:    fieldArgs(ev.Fields),
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// escapeLabelValue escapes a Prometheus label value per the text exposition
// format: backslash, double-quote and newline. (fmt's %q escapes far more —
// e.g. non-ASCII — which standard Prometheus parsers reject un-escaping.)
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP docstring (backslash and newline only; quotes
// are legal there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// header writes the # HELP and # TYPE preamble for one metric family.
func promHeader(bw *bufio.Writer, name, kind, help string) {
	fmt.Fprintf(bw, "# HELP element_%s %s\n", name, escapeHelp(help))
	fmt.Fprintf(bw, "# TYPE element_%s %s\n", name, kind)
}

// WriteText writes a Prometheus text-exposition snapshot of the metrics
// registry: counters and gauges as single samples, histograms as summaries
// (quantiles + _sum + _count). Metric names are `element_<name>` with the
// component as a label, so parallel components aggregate naturally. Each
// family carries # HELP/# TYPE lines and label values are escaped, so the
// output parses with standard Prometheus tooling.
func (t *Telemetry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	reg := t.Registry()

	typed := map[string]bool{}
	for _, c := range reg.Counters() {
		if !typed[c.Name] {
			typed[c.Name] = true
			promHeader(bw, c.Name, "counter", "Cumulative count of "+c.Name+" recorded by the element simulator.")
		}
		fmt.Fprintf(bw, "element_%s{component=\"%s\"} %g\n", c.Name, escapeLabelValue(c.Component), c.Value())
	}
	typed = map[string]bool{}
	for _, g := range reg.Gauges() {
		v, ok := g.Value()
		if !ok {
			continue
		}
		if !typed[g.Name] {
			typed[g.Name] = true
			promHeader(bw, g.Name, "gauge", "Last value of "+g.Name+" recorded by the element simulator.")
		}
		fmt.Fprintf(bw, "element_%s{component=\"%s\"} %g\n", g.Name, escapeLabelValue(g.Component), v)
	}
	typed = map[string]bool{}
	for _, h := range reg.Histograms() {
		if !typed[h.Name] {
			typed[h.Name] = true
			promHeader(bw, h.Name, "summary", "Distribution of "+h.Name+" recorded by the element simulator.")
		}
		stream.WriteSummary(bw, "element_"+h.Name, `component="`+escapeLabelValue(h.Component)+`"`, &h.Sketch, h.Sum())
	}
	if tr := t.Tracer(); tr != nil {
		promHeader(bw, "trace_events", "gauge", "Events currently retained in the telemetry ring.")
		fmt.Fprintf(bw, "element_trace_events{component=\"telemetry\"} %d\n", tr.Len())
		promHeader(bw, "trace_evicted", "counter", "Events evicted from the telemetry ring.")
		fmt.Fprintf(bw, "element_trace_evicted{component=\"telemetry\"} %d\n", tr.Evicted())
	}
	return bw.Flush()
}
