package stream

import (
	"bufio"
	"fmt"
	"io"
)

// exportQuantiles is the fixed set of quantiles every exporter emits for
// every sketch: the windowed text and JSONL exporters here and the
// registry snapshot (telemetry's WriteText, through WriteSummary).
var exportQuantiles = []float64{0.5, 0.9, 0.99}

// WriteSummary writes the sample lines of one Prometheus summary series:
// `fam{labels,quantile="q"} v` for each exported quantile of sk, then
// `fam_sum{labels} sum` and `fam_count{labels} n`. labels is the series'
// already-escaped label set without braces (e.g. `window="3"`); sum is
// the caller's choice of exact or estimated total. # HELP/# TYPE lines
// and any extra gauges stay with the caller.
func WriteSummary(w io.Writer, fam, labels string, sk *Sketch, sum float64) {
	for _, q := range exportQuantiles {
		fmt.Fprintf(w, "%s{%s,quantile=\"%g\"} %g\n", fam, labels, q, sk.Quantile(q))
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", fam, labels, sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", fam, labels, sk.Count())
}

// Sink consumes sealed windows. names is the stream's series-name slice
// (one entry per Window.Sketches index); it is identical on every call
// for a given stream, so sinks may capture derived state on first use.
type Sink interface {
	ExportWindow(names []string, w *Window) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(names []string, w *Window) error

// ExportWindow calls f.
func (f SinkFunc) ExportWindow(names []string, w *Window) error { return f(names, w) }

// TextExporter writes each sealed window as Prometheus text exposition.
// Every series is a proper summary family — a # TYPE line, quantile
// samples, and the _sum/_count pair the scrape format requires — plus
// _min/_max gauges that summaries cannot carry. Output depends only on
// the window contents, so merged fleet windows export byte-identically
// for any shard count. The # TYPE line is emitted once per family on its
// first window; the exposition format forbids repeating it.
type TextExporter struct {
	w       *countingWriter
	typed   map[string]bool
	Windows uint64 // windows exported
}

// NewTextExporter returns a text Sink writing to w.
func NewTextExporter(w io.Writer) *TextExporter {
	return &TextExporter{w: &countingWriter{w: w}}
}

// BytesWritten reports the bytes emitted so far — the export-rate meter
// the overload governor's ExportBytesPerSec budget reads.
func (t *TextExporter) BytesWritten() int { return t.w.n }

// countingWriter counts bytes through to an io.Writer.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// ExportWindow writes one window.
func (t *TextExporter) ExportWindow(names []string, win *Window) error {
	if t.typed == nil {
		t.typed = make(map[string]bool, len(names))
	}
	bw := bufio.NewWriter(t.w)
	fmt.Fprintf(bw, "# window %d [%s,%s) samples=%d flagged=%d late=%d\n",
		win.Index, win.Start, win.End, win.Samples, win.Flagged, win.Late)
	label := fmt.Sprintf(`window="%d"`, win.Index)
	for i, name := range names {
		sk := &win.Sketches[i]
		fam := "element_stream_" + name
		if !t.typed[fam] {
			t.typed[fam] = true
			fmt.Fprintf(bw, "# TYPE %s summary\n", fam)
		}
		WriteSummary(bw, fam, label, sk, sk.ApproxSum())
		fmt.Fprintf(bw, "%s_min{%s} %g\n", fam, label, sk.Min())
		fmt.Fprintf(bw, "%s_max{%s} %g\n", fam, label, sk.Max())
	}
	t.Windows++
	return bw.Flush()
}

// BatchExporter writes sealed windows as remote-write-shaped JSONL — one
// batch object per window, each series a timeseries entry with quantile
// samples stamped at the window end — under a hard byte budget. A window
// whose encoding would exceed the remaining budget is dropped whole and
// counted, never truncated mid-record, so the output is always valid
// JSONL and never exceeds Budget bytes.
type BatchExporter struct {
	w      io.Writer
	budget int
	spent  int
	buf    []byte

	Windows uint64 // windows written
	Dropped uint64 // windows dropped for budget
}

// NewBatchExporter returns a JSONL Sink writing at most budget bytes to
// w (budget <= 0 means unlimited).
func NewBatchExporter(w io.Writer, budget int) *BatchExporter {
	return &BatchExporter{w: w, budget: budget}
}

// BytesWritten reports the bytes emitted so far.
func (b *BatchExporter) BytesWritten() int { return b.spent }

// ExportWindow encodes one window, enforcing the byte budget.
func (b *BatchExporter) ExportWindow(names []string, win *Window) error {
	b.buf = b.buf[:0]
	b.buf = append(b.buf, fmt.Sprintf(`{"window":%d,"start_s":%g,"end_s":%g,"samples":%d,"flagged":%d,"late":%d,"series":[`,
		win.Index, win.Start.Seconds(), win.End.Seconds(), win.Samples, win.Flagged, win.Late)...)
	for i, name := range names {
		sk := &win.Sketches[i]
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		b.buf = append(b.buf, fmt.Sprintf(`{"name":%q,"count":%d,"min":%g,"max":%g,"samples":[`,
			"element_stream_"+name, sk.Count(), sk.Min(), sk.Max())...)
		for j, q := range exportQuantiles {
			if j > 0 {
				b.buf = append(b.buf, ',')
			}
			b.buf = append(b.buf, fmt.Sprintf(`{"quantile":%g,"value":%g,"timestamp_s":%g}`,
				q, sk.Quantile(q), win.End.Seconds())...)
		}
		b.buf = append(b.buf, "]}"...)
	}
	b.buf = append(b.buf, "]}\n"...)
	if b.budget > 0 && b.spent+len(b.buf) > b.budget {
		b.Dropped++
		return nil
	}
	n, err := b.w.Write(b.buf)
	b.spent += n
	if err != nil {
		return err
	}
	b.Windows++
	return nil
}
