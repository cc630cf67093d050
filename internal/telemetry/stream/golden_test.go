package stream

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"element/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got byte for byte with testdata/name, or rewrites
// the file when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// exportTwoWindows feeds a two-series stream across two one-second
// windows — window 0 with spread delays, zeros and a flagged sample,
// window 1 with one series left empty — and exports both through sink.
func exportTwoWindows(t *testing.T, sink Sink) {
	t.Helper()
	st := New(Config{Width: units.Second, Retain: 4})
	snd := st.Series("snd_delay")
	rcv := st.Series("rcv_delay")
	for i := 0; i < 200; i++ {
		at := units.Time(i) * units.Time(5*units.Millisecond)
		snd.Observe(at, float64(i+1)*1e-3)
		if i%3 == 0 {
			rcv.ObserveFlagged(at, 0)
		} else {
			rcv.Observe(at, float64(i)*2.5e-5)
		}
	}
	for i := 0; i < 7; i++ {
		snd.Observe(units.Time(units.Second)+units.Time(i)*units.Time(units.Millisecond), 1.5e-6*float64(i))
	}
	st.SealThrough(1)
	st.Drain(func(w *Window) {
		if err := sink.ExportWindow(st.Names(), w); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTextExporterGolden pins the windowed Prometheus text export byte
// for byte across two windows (the second must not repeat # TYPE).
func TestTextExporterGolden(t *testing.T) {
	var buf bytes.Buffer
	ex := NewTextExporter(&buf)
	exportTwoWindows(t, ex)
	if ex.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", ex.Windows)
	}
	checkGolden(t, "text_exporter.golden", buf.Bytes())
}

// TestBatchExporterGolden pins the JSONL batch export byte for byte
// across the same two windows.
func TestBatchExporterGolden(t *testing.T) {
	var buf bytes.Buffer
	ex := NewBatchExporter(&buf, 0)
	exportTwoWindows(t, ex)
	if ex.Windows != 2 {
		t.Fatalf("Windows = %d, want 2", ex.Windows)
	}
	checkGolden(t, "batch_exporter.golden", buf.Bytes())
}
