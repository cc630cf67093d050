package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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

// TestWriteTextGolden pins the Prometheus text snapshot byte for byte:
// counters, set and unset gauges, histograms with many, few and zero
// observations (including observations of zero), a component label that
// needs every escape, and the tracer's ring gauges.
func TestWriteTextGolden(t *testing.T) {
	tel := New()
	nasty := "comp\"quoted\\slash\nnewline"
	tel.Scope("tcp").Counter("retransmits").Add(7)
	tel.Scope(nasty).Counter("retransmits").Add(2)
	tel.Scope("aqm").Counter("drops").Inc()
	tel.Scope("sockbuf").Gauge("cap_bytes").Set(1 << 16)
	tel.Scope("sockbuf").Gauge("unset_bytes")
	tel.Scope(nasty).Gauge("cap_bytes").Set(0.125)

	delay := tel.Scope("core").Histogram("delay_seconds")
	for i := 1; i <= 1000; i++ {
		delay.Observe(float64(i) * 1e-4) // 100 µs .. 100 ms
	}
	delay.Observe(0)
	delay.Observe(-1) // clamps to zero
	small := tel.Scope(nasty).Histogram("delay_seconds")
	small.Observe(1e-9)
	small.Observe(3.5)
	tel.Scope("aqm").Histogram("sojourn_seconds") // registered, never observed
	tel.Scope("tcp").Histogram("srtt_seconds")    // registered, never observed
	tel.Scope("tcp").Event(SevInfo, "rto", F("n", 1))

	var buf bytes.Buffer
	if err := tel.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "write_text.golden", buf.Bytes())
}
