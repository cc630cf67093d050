package fleet

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"element/internal/faults"
	"element/internal/overload"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
)

// TestFleetOverloadShedsUnderBudgetPressure drives the governor with a
// retained-samples budget a fraction of what the run produces: flows
// must walk down the ladder, every demotion must surface as a Sheds
// anomaly on the affected flow's trackers, dropped samples must be
// counted, and — the contract the whole ladder exists to uphold — the
// samples that ARE retained must still verify against ground truth.
func TestFleetOverloadShedsUnderBudgetPressure(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(41, 12)
	cfg.Churn = ChurnConfig{}
	cfg.Overload = &overload.Config{
		Budgets:   overload.Budgets{RetainedSamples: 2000},
		HoldTicks: 2,
		StepFlows: 2,
	}
	res := New(cfg).Run()

	if res.Sheds == 0 {
		t.Fatalf("no governor sheds despite a %d-sample budget: %+v", 2000, res)
	}
	if res.ShedSamples == 0 {
		t.Fatal("flows were shed but no dropped samples were counted")
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("retained samples violated bounds under shedding: %d", v)
	}
	sum := 0
	for _, n := range res.TierCounts {
		sum += n
	}
	if sum != cfg.Connections {
		t.Fatalf("tier census %v does not sum to %d connections", res.TierCounts, cfg.Connections)
	}
	shedFlows := 0
	for _, cr := range res.Conns {
		if cr.Sheds == 0 {
			continue
		}
		shedFlows++
		// Every demotion sheds both trackers, each counting a Sheds
		// anomaly: a shed flow is flagged, never silently degraded.
		if cr.Anomalies.Sheds < cr.Sheds {
			t.Errorf("conn %d: %d governor sheds but only %d Sheds anomalies",
				cr.ID, cr.Sheds, cr.Anomalies.Sheds)
		}
	}
	if shedFlows == 0 {
		t.Fatal("governor sheds recorded but no flow carries them")
	}
}

// overloadStack is the full-stack config the invariance and soak tests
// share: streaming export through the backpressured queue, a faulted
// sink, and the governor metering queue pressure.
func overloadStack(seed int64, conns int, sinkProfile string, buf *bytes.Buffer) Config {
	prof, err := faults.ByName(sinkProfile)
	if err != nil {
		panic(err)
	}
	cfg := testConfig(seed, conns)
	cfg.Faults = &prof
	cfg.Stream = &StreamConfig{
		Window: 100 * units.Millisecond,
		Sink:   stream.NewTextExporter(buf),
	}
	cfg.ExportQueue = &overload.QueueConfig{
		Capacity:       8,
		Deadline:       60 * units.Second, // never deadline: account every window
		RetryBase:      20 * units.Millisecond,
		BreakerCooloff: 200 * units.Millisecond,
	}
	cfg.Overload = &overload.Config{
		HighWater: 0.5, // demote at half a queue; only QueueFrac meters
		HoldTicks: 2,
		StepFlows: 4,
	}
	return cfg
}

// TestFleetOverloadShardInvariance pins the acceptance bar: with the
// whole overload stack live — governor, queue, flapping sink — a
// fixed-seed run produces byte-identical exports and identical shed,
// queue and per-flow ladder accounting at any shard count.
func TestFleetOverloadShardInvariance(t *testing.T) {
	testutil.NoLeaks(t)
	run := func(shards int) (*Result, []byte) {
		var buf bytes.Buffer
		cfg := overloadStack(57, 12, "flappy-sink", &buf)
		cfg.Shards = shards
		return New(cfg).Run(), buf.Bytes()
	}
	want, wantOut := run(1)
	if want.Sheds == 0 || want.Reclaims == 0 {
		t.Fatalf("run did not exercise the ladder both ways: sheds=%d reclaims=%d (queue %+v)",
			want.Sheds, want.Reclaims, want.Queue)
	}
	for _, shards := range []int{2, 4, 7} {
		got, gotOut := run(shards)
		if got.Sheds != want.Sheds || got.Reclaims != want.Reclaims ||
			got.ShedSamples != want.ShedSamples || got.TierCounts != want.TierCounts {
			t.Fatalf("shards=%d governor diverges: sheds=%d/%d reclaims=%d/%d shedSamples=%d/%d tiers=%v/%v",
				shards, got.Sheds, want.Sheds, got.Reclaims, want.Reclaims,
				got.ShedSamples, want.ShedSamples, got.TierCounts, want.TierCounts)
		}
		if got.Queue != want.Queue || got.SinkFaults != want.SinkFaults {
			t.Fatalf("shards=%d export path diverges:\n  queue %+v vs %+v\n  sink faults %d vs %d",
				shards, got.Queue, want.Queue, got.SinkFaults, want.SinkFaults)
		}
		if got.StreamWindows != want.StreamWindows {
			t.Fatalf("shards=%d windows %d vs %d", shards, got.StreamWindows, want.StreamWindows)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("shards=%d delivered export differs from shards=1 (%d vs %d bytes)",
				shards, len(wantOut), len(gotOut))
		}
		for i := range want.Conns {
			cw, cg := want.Conns[i], got.Conns[i]
			if cg.Tier != cw.Tier || cg.Sheds != cw.Sheds || cg.ShedSamples != cw.ShedSamples ||
				cg.Anomalies != cw.Anomalies {
				t.Fatalf("shards=%d conn %d ladder state diverges:\n  want tier=%v sheds=%d shedSamples=%d anom=%+v\n  got  tier=%v sheds=%d shedSamples=%d anom=%+v",
					shards, i, cw.Tier, cw.Sheds, cw.ShedSamples, cw.Anomalies,
					cg.Tier, cg.Sheds, cg.ShedSamples, cg.Anomalies)
			}
		}
	}
}

// TestFleetQueueRidesOutSinkOutage wedges the sink solid mid-run: the
// queue must absorb the outage (retries, a breaker trip) and — once the
// sink recovers — drain the whole backlog, with every enqueued window
// accounted delivered and nothing silently lost.
func TestFleetQueueRidesOutSinkOutage(t *testing.T) {
	testutil.NoLeaks(t)
	var buf bytes.Buffer
	cfg := overloadStack(23, 8, "wedged-sink", &buf)
	cfg.ExportQueue.Capacity = 64 // hold the whole outage backlog
	res := New(cfg).Run()

	q := res.Queue
	if res.SinkFaults == 0 || q.Retries == 0 {
		t.Fatalf("outage did not exercise the retry path: faults=%d queue=%+v", res.SinkFaults, q)
	}
	if q.BreakerTrips == 0 {
		t.Fatalf("sustained outage never tripped the breaker: %+v", q)
	}
	if res.ExportTruncated {
		t.Fatalf("recovered sink still truncated the export: %+v", q)
	}
	if q.Enqueued != q.Delivered+q.Dropped+q.Deadlined {
		t.Fatalf("queue accounting violated: %+v (depth should be 0 after drain)", q)
	}
	if q.Dropped != 0 || q.Deadlined != 0 {
		t.Fatalf("outage shorter than deadline lost windows: %+v", q)
	}
	if uint64(q.Enqueued) != res.StreamWindows {
		t.Fatalf("enqueued %d windows but the pipeline sealed %d", q.Enqueued, res.StreamWindows)
	}
	if res.StreamErr != nil {
		t.Fatalf("transient sink faults leaked a sticky stream error: %v", res.StreamErr)
	}
}

// TestFleetDrainTimeoutTruncates wedges the sink permanently: the drain
// grace expires, the run exits anyway — never hangs — and the partial
// export carries the explicit truncated marker with the undelivered
// remainder still accounted.
func TestFleetDrainTimeoutTruncates(t *testing.T) {
	testutil.NoLeaks(t)
	var buf bytes.Buffer
	cfg := overloadStack(23, 8, "wedged-sink", &buf)
	// Re-wedge permanently: stall from 2 s with no recovery.
	prof := *cfg.Faults
	prof.Sink = faults.SinkFaults{StallAfter: 2 * units.Second}
	cfg.Faults = &prof
	cfg.ExportQueue.Capacity = 64
	cfg.DrainTimeout = 500 * units.Millisecond
	res := New(cfg).Run()

	q := res.Queue
	if !res.ExportTruncated {
		t.Fatalf("dead sink did not truncate the export: %+v", q)
	}
	if q.Delivered >= q.Enqueued {
		t.Fatalf("truncated run claims full delivery: %+v", q)
	}
	if rem := q.Enqueued - q.Delivered - q.Dropped - q.Deadlined; rem <= 0 {
		t.Fatalf("truncated export left no accounted remainder: %+v", q)
	}
}

// TestFleetOverloadSoakShort is one overload/recovery cycle: the wedged
// sink fills the queue, queue pressure sheds flows, the sink recovers,
// the backlog drains, and the governor reclaims every flow — with the
// bounded-or-flagged contract intact throughout. Runs in every `make
// check`; the env-gated TestFleetOverloadSoak below is the long
// multi-cycle variant behind `make soak-overload`.
func TestFleetOverloadSoakShort(t *testing.T) {
	testutil.NoLeaks(t)
	var buf bytes.Buffer
	cfg := overloadStack(31, 12, "wedged-sink", &buf)
	res := New(cfg).Run()

	if res.Sheds == 0 {
		t.Fatalf("outage pressure shed no flows: queue %+v", res.Queue)
	}
	if res.Reclaims == 0 {
		t.Fatalf("recovery reclaimed no flows: sheds=%d tiers=%v", res.Sheds, res.TierCounts)
	}
	if res.TierCounts[overload.TierFull] != cfg.Connections {
		t.Fatalf("fleet did not fully recover: tiers=%v (sheds=%d reclaims=%d)",
			res.TierCounts, res.Sheds, res.Reclaims)
	}
	if res.ExportTruncated {
		t.Fatalf("backlog did not drain after recovery: %+v", res.Queue)
	}
	if res.StreamErr != nil {
		t.Fatalf("sticky stream error: %v", res.StreamErr)
	}
}

// TestFleetOverloadSoak is the chaos soak (`make soak-overload`, race
// detector on): repeated overload/recovery cycles from a flapping sink,
// across shard counts, asserting recovery, shard-invariant shed
// accounting, full export accounting, and no leaked goroutines. Skipped
// unless ELEMENT_SOAK is set — it runs seconds, not milliseconds.
func TestFleetOverloadSoak(t *testing.T) {
	if os.Getenv("ELEMENT_SOAK") == "" {
		t.Skip("set ELEMENT_SOAK=1 (or run `make soak-overload`) for the long soak")
	}
	testutil.NoLeaks(t)
	for _, seed := range []int64{3, 59, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run := func(shards int) (*Result, []byte) {
				var buf bytes.Buffer
				// Flapping sink: an outage every 2 s for 800 ms — three
				// full overload/recovery cycles over the run.
				cfg := overloadStack(seed, 16, "flappy-sink", &buf)
				cfg.Duration = 8 * units.Second
				cfg.Shards = shards
				prof := *cfg.Faults
				prof.Sink.FlapLen = 800 * units.Millisecond
				cfg.Faults = &prof
				return New(cfg).Run(), buf.Bytes()
			}
			want, wantOut := run(1)
			if want.Sheds == 0 || want.Reclaims == 0 {
				t.Fatalf("soak cycles did not move the ladder: sheds=%d reclaims=%d queue=%+v",
					want.Sheds, want.Reclaims, want.Queue)
			}
			if v := want.Violations(); v != 0 {
				t.Fatalf("bound violations during soak: %d", v)
			}
			q := want.Queue
			if q.Enqueued != q.Delivered+q.Dropped+q.Deadlined && !want.ExportTruncated {
				t.Fatalf("unaccounted window loss: %+v", q)
			}
			for _, shards := range []int{4} {
				got, gotOut := run(shards)
				if got.Sheds != want.Sheds || got.Reclaims != want.Reclaims ||
					got.TierCounts != want.TierCounts || got.Queue != want.Queue {
					t.Fatalf("shards=%d soak diverges: sheds=%d/%d reclaims=%d/%d tiers=%v/%v queue %+v vs %+v",
						shards, got.Sheds, want.Sheds, got.Reclaims, want.Reclaims,
						got.TierCounts, want.TierCounts, got.Queue, want.Queue)
				}
				if !bytes.Equal(wantOut, gotOut) {
					t.Fatalf("shards=%d soak export differs (%d vs %d bytes)",
						shards, len(wantOut), len(gotOut))
				}
			}
		})
	}
}
