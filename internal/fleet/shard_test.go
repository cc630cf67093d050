package fleet

import (
	"fmt"
	"testing"

	"element/internal/core"
	"element/internal/faults"
	"element/internal/telemetry"
	"element/internal/testutil"
	"element/internal/units"
)

// TestFleetShardCountInvariance is the golden determinism check for the
// sharded executor: the same seed must produce identical per-connection
// sample series, anomaly counters, and fleet-wide supervisor counters
// whether the fleet runs on one shard or many. This is what licenses
// every source of randomness to live in per-connection streams — any
// accidental draw from a shared RNG, or any cross-connection coupling,
// shows up here as a shard-count-dependent divergence.
func TestFleetShardCountInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	prof, err := faults.ByName("stale-info")
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(29, 10)
	base.Faults = &prof
	run := func(shards int) *Result {
		cfg := base
		cfg.Shards = shards
		return New(cfg).Run()
	}
	want := run(1)
	for _, shards := range []int{2, 4, 7} {
		got := run(shards)
		if got.Restarts != want.Restarts || got.Crashes != want.Crashes ||
			got.Recycles != want.Recycles || got.Checkpoints != want.Checkpoints ||
			got.Evictions != want.Evictions || got.Restores != want.Restores {
			t.Fatalf("shards=%d diverges from shards=1:\n  1: %v\n  %d: %v", shards, want, shards, got)
		}
		for i := range want.Conns {
			cw, cg := want.Conns[i], got.Conns[i]
			if cg.Restarts != cw.Restarts || cg.Crashes != cw.Crashes || cg.Recycles != cw.Recycles ||
				cg.Anomalies != cw.Anomalies || cg.Closed != cw.Closed || cg.GoodputBps != cw.GoodputBps {
				t.Fatalf("shards=%d conn %d counters diverge:\n  1: %+v\n  %d: %+v", shards, i, cw, shards, cg)
			}
			if err := sameSeries(cw.SndLog, cg.SndLog); err != nil {
				t.Fatalf("shards=%d conn %d sender series: %v", shards, i, err)
			}
			if err := sameSeries(cw.RcvLog, cg.RcvLog); err != nil {
				t.Fatalf("shards=%d conn %d receiver series: %v", shards, i, err)
			}
		}
	}
}

// sameSeries compares two measurement series sample-for-sample.
func sameSeries(a, b []core.Measurement) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("sample %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestFleetShardTelemetryMerges checks that per-shard telemetry buffers
// fold into the caller's instance: supervisor counters sum to the Result
// totals and the health gauges (summed across shards) are present, for a
// multi-shard run.
func TestFleetShardTelemetryMerges(t *testing.T) {
	testutil.NoLeaks(t)
	telem := telemetry.New()
	cfg := testConfig(31, 9)
	cfg.Shards = 3
	cfg.Telem = telem
	res := New(cfg).Run()
	got := map[string]float64{}
	for _, c := range telem.Registry().Counters() {
		got[c.Component+"/"+c.Name] = c.Value()
	}
	want := map[string]float64{
		"fleet/restarts":          float64(res.Restarts),
		"fleet/crashes":           float64(res.Crashes),
		"fleet/watchdog_recycles": float64(res.Recycles),
		"fleet/checkpoints":       float64(res.Checkpoints),
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if v, ok := gaugeValue(telem, "fleet", "connections_open"); !ok {
		t.Errorf("connections_open gauge missing after merge")
	} else if v < 0 || v > float64(cfg.Connections) {
		t.Errorf("connections_open = %v, want within [0,%d]", v, cfg.Connections)
	}
	if telem.Tracer().Len() == 0 {
		t.Errorf("no trace events merged from shards")
	}
}

func gaugeValue(telem *telemetry.Telemetry, component, name string) (float64, bool) {
	for _, g := range telem.Registry().Gauges() {
		if g.Component == component && g.Name == name {
			return g.Value()
		}
	}
	return 0, false
}

// BenchmarkFleetSharded measures wall-clock fleet throughput by shard
// count: the same seeded workload executed inline (shards=1) and split
// across workers. The per-connection RNG streams make every variant
// compute the identical result, so the ratio is pure parallel speedup.
func BenchmarkFleetSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Seed:        41,
					Connections: 32,
					Duration:    2 * units.Second,
					Rate:        2 * units.Mbps,
					Interval:    20 * units.Millisecond,
					Shards:      shards,
					Churn:       churnAll,
				}
				res := New(cfg).Run()
				if v := res.Violations(); v != 0 {
					b.Fatalf("bound violations: %d", v)
				}
			}
		})
	}
}
