package fleet

import (
	"context"
	"os"
	"strconv"
	"testing"

	"element/internal/faults"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/testutil"
	"element/internal/units"
)

// churnAll is the standard test churn: staggered opens, and a third of
// the fleet each crashing, wedging, or closing early.
var churnAll = ChurnConfig{
	OpenWindow: units.Second,
	CloseFrac:  0.3,
	CrashFrac:  0.4,
	StallFrac:  0.3,
}

func testConfig(seed int64, conns int) Config {
	return Config{
		Seed:        seed,
		Connections: conns,
		Duration:    6 * units.Second,
		Churn:       churnAll,
	}
}

func TestFleetBoundedOrFlaggedUnderChurn(t *testing.T) {
	testutil.NoLeaks(t)
	res := New(testConfig(3, 12)).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations under churn: %d (sender %+v receiver %+v)", v, res.Sender, res.Receiver)
	}
	if res.Crashes == 0 || res.Recycles == 0 {
		t.Fatalf("churn did not exercise the supervisor: %v", res)
	}
	if res.Restarts < res.Crashes+res.Recycles {
		t.Fatalf("restarts %d < crashes %d + recycles %d", res.Restarts, res.Crashes, res.Recycles)
	}
	if res.Restores == 0 {
		t.Fatalf("no checkpoint restores despite crashes: %v", res)
	}
	for _, c := range res.Conns {
		if len(c.SndLog) == 0 {
			t.Errorf("conn %d produced no sender samples", c.ID)
		}
	}
}

// TestFleetPollsKeepExactDeadlines pins the per-monitor scheduling
// contract: a monitor polls exactly every Interval from the instant its
// connection opened, even when a staggered open lands between ticks of
// the poll grid. A scheduler that quantizes deadlines to the grid moves
// every such sample and fails here. The only samples off that grid are
// the drain's, from its final poll at the end of the run.
func TestFleetPollsKeepExactDeadlines(t *testing.T) {
	testutil.NoLeaks(t)
	f := New(Config{
		Seed:        5,
		Connections: 8,
		Duration:    2 * units.Second,
		Shards:      2,
		Churn:       ChurnConfig{OpenWindow: units.Second},
	})
	res := f.Run()
	if res.Restarts != 0 {
		t.Fatalf("config restarted monitors (%v); poll phases would legitimately shift", res)
	}
	interval := int64(f.cfg.Interval)
	offGrid := 0
	for i, c := range res.Conns {
		openAt := int64(f.monitors[i].plan.openAt)
		if openAt%interval != 0 {
			offGrid++
		}
		if len(c.SndLog) == 0 {
			t.Fatalf("conn %d produced no sender samples", i)
		}
		for _, s := range c.SndLog {
			if s.At == units.Time(f.cfg.Duration) {
				continue // the drain's final poll
			}
			since := int64(s.At) - openAt
			if since < interval || since%interval != 0 {
				t.Fatalf("conn %d (opened at %v): sample at %v is not open + k×%v",
					i, units.Duration(openAt), s.At, f.cfg.Interval)
			}
		}
	}
	if offGrid == 0 {
		t.Fatal("every open landed on the poll grid; the test is vacuous")
	}
}

func TestFleetDeterministicForFixedSeed(t *testing.T) {
	testutil.NoLeaks(t)
	a := New(testConfig(17, 10)).Run()
	b := New(testConfig(17, 10)).Run()
	if a.Restarts != b.Restarts || a.Crashes != b.Crashes || a.Recycles != b.Recycles ||
		a.Checkpoints != b.Checkpoints || a.Evictions != b.Evictions || a.Restores != b.Restores {
		t.Fatalf("same-seed runs diverge:\n  a %v\n  b %v", a, b)
	}
	for i := range a.Conns {
		ca, cb := a.Conns[i], b.Conns[i]
		if ca.Restarts != cb.Restarts || ca.Crashes != cb.Crashes || ca.Recycles != cb.Recycles ||
			len(ca.SndLog) != len(cb.SndLog) || len(ca.RcvLog) != len(cb.RcvLog) {
			t.Fatalf("conn %d diverges between same-seed runs:\n  a %+v (%d/%d samples)\n  b %+v (%d/%d samples)",
				i, ca, len(ca.SndLog), len(ca.RcvLog), cb, len(cb.SndLog), len(cb.RcvLog))
		}
	}
}

func TestFleetWatchdogRecyclesWedgedMonitors(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(5, 4)
	cfg.Churn = ChurnConfig{StallFrac: 1}
	res := New(cfg).Run()
	if res.Recycles < cfg.Connections {
		t.Fatalf("recycles = %d, want ≥ %d (every monitor wedges once)", res.Recycles, cfg.Connections)
	}
	// A recycled monitor must resume its series: samples exist from after
	// the earliest possible wedge time.
	for _, c := range res.Conns {
		last := c.SndLog[len(c.SndLog)-1]
		if last.At < units.Time(cfg.Duration/2) {
			t.Errorf("conn %d series stops at %v — monitor never resumed", c.ID, last.At)
		}
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations after recycles: %d", v)
	}
}

func TestFleetCrashRestoresFromCheckpoint(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(7, 4)
	cfg.Churn = ChurnConfig{CrashFrac: 1}
	res := New(cfg).Run()
	if res.Crashes < cfg.Connections {
		t.Fatalf("crashes = %d, want ≥ %d", res.Crashes, cfg.Connections)
	}
	if res.Checkpoints == 0 {
		t.Fatalf("no checkpoints taken")
	}
	// Crashes land mid-run, after the first 500 ms checkpoint — every
	// restart must be a restore, visible in the anomaly counters.
	if res.Restores < cfg.Connections {
		t.Fatalf("restores = %d, want ≥ %d (restart without checkpoint?)", res.Restores, cfg.Connections)
	}
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations after crash/restore: %d", v)
	}
}

func TestFleetMinimizeSurvivesChurn(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := testConfig(9, 6)
	cfg.Minimize = true
	res := New(cfg).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations with minimizer: %d", v)
	}
	if res.Crashes == 0 {
		t.Fatalf("churn did not crash any monitor: %v", res)
	}
}

func TestFleetComposesWithFaultProfiles(t *testing.T) {
	testutil.NoLeaks(t)
	prof, err := faults.ByName("stale-info")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11, 8)
	cfg.Faults = &prof
	res := New(cfg).Run()
	if v := res.Violations(); v != 0 {
		t.Fatalf("bound violations under faults+churn: %d (sender %+v receiver %+v)", v, res.Sender, res.Receiver)
	}
}

func TestFleetTelemetryCountersMatchResult(t *testing.T) {
	testutil.NoLeaks(t)
	telem := telemetry.New()
	cfg := testConfig(13, 8)
	cfg.Telem = telem
	res := New(cfg).Run()
	reg := telem.Registry()
	want := map[string]float64{
		"fleet/restarts":          float64(res.Restarts),
		"fleet/crashes":           float64(res.Crashes),
		"fleet/watchdog_recycles": float64(res.Recycles),
		"fleet/checkpoints":       float64(res.Checkpoints),
	}
	got := map[string]float64{}
	for _, c := range reg.Counters() {
		got[c.Component+"/"+c.Name] = c.Value()
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	sawGauge := false
	for _, g := range reg.Gauges() {
		if g.Component == "fleet" {
			sawGauge = true
		}
	}
	if !sawGauge {
		t.Errorf("no fleet health gauges registered")
	}
}

func TestFleetInterruptDrainsGracefully(t *testing.T) {
	testutil.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run: the fleet must still drain cleanly
	res := New(testConfig(19, 6)).RunContext(ctx)
	if !res.Interrupted {
		t.Fatalf("result not marked interrupted")
	}
	if len(res.Conns) != 6 {
		t.Fatalf("drain reconciled %d conns, want 6", len(res.Conns))
	}
}

// TestFleetSoak is the churn soak harness: FLEET_SOAK_CONNS connections
// with full churn under -race, asserting zero goroutine leaks, zero
// bound violations, and counter-for-counter determinism across two
// same-seed runs. FLEET_SOAK_SHARDS sets the worker count for the first
// run; the second run always executes single-shard, so the determinism
// check doubles as a shard-count-invariance check at soak scale.
// `make soak-short` runs ~100 connections, `make soak` ≥1000.
func TestFleetSoak(t *testing.T) {
	connsEnv := os.Getenv("FLEET_SOAK_CONNS")
	if connsEnv == "" {
		t.Skip("set FLEET_SOAK_CONNS (see `make soak` / `make soak-short`)")
	}
	conns, err := strconv.Atoi(connsEnv)
	if err != nil || conns <= 0 {
		t.Fatalf("bad FLEET_SOAK_CONNS %q", connsEnv)
	}
	shards := 0 // default: one shard per core
	if shardsEnv := os.Getenv("FLEET_SOAK_SHARDS"); shardsEnv != "" {
		if shards, err = strconv.Atoi(shardsEnv); err != nil || shards < 0 {
			t.Fatalf("bad FLEET_SOAK_SHARDS %q", shardsEnv)
		}
	}
	testutil.NoLeaks(t)
	cfg := Config{
		Seed:        23,
		Connections: conns,
		Duration:    4 * units.Second,
		Rate:        2 * units.Mbps,
		Interval:    20 * units.Millisecond,
		Churn:       churnAll,
		Shards:      shards,
	}
	a := New(cfg).Run()
	t.Logf("soak run (%d shards): %v", shards, a)
	if v := a.Violations(); v != 0 {
		t.Fatalf("soak bound violations: %d (sender %+v receiver %+v)", v, a.Sender, a.Receiver)
	}
	if a.Crashes == 0 || a.Recycles == 0 || a.Restores == 0 {
		t.Fatalf("soak churn did not exercise the supervisor: %v", a)
	}
	for _, c := range a.Conns {
		if len(c.SndLog) == 0 && len(c.RcvLog) == 0 {
			t.Errorf("conn %d produced no samples at all", c.ID)
		}
	}
	cfg.Shards = 1
	b := New(cfg).Run()
	if a.Restarts != b.Restarts || a.Crashes != b.Crashes || a.Recycles != b.Recycles ||
		a.Evictions != b.Evictions || a.Restores != b.Restores {
		t.Fatalf("sharded and single-shard soak runs diverge for fixed seed:\n  a %v\n  b %v", a, b)
	}

	// Stream-mode soak: the same churning fleet through the windowed
	// sketch pipeline with escalation rules. Retention must stay bounded —
	// no sealed-queue overflow, and per-connection series only on flows
	// that actually escalated — and the NoLeaks guard covers the whole
	// run, so a leaked stream goroutine or timer fails the test.
	cfg.Shards = shards
	cfg.Stream = &StreamConfig{
		Window: 250 * units.Millisecond,
		Rules:  stream.Rules{P99Above: 200 * units.Millisecond},
	}
	c := New(cfg).Run()
	t.Logf("stream soak: windows=%d late=%d escalations=%d demotions=%d",
		c.StreamWindows, c.StreamLate, c.Escalations, c.Demotions)
	if c.StreamWindows == 0 {
		t.Fatal("stream soak exported no windows")
	}
	if c.StreamDropped != 0 {
		t.Fatalf("stream soak dropped %d windows — retention not bounded by drains", c.StreamDropped)
	}
	if c.StreamErr != nil {
		t.Fatalf("stream soak sink error: %v", c.StreamErr)
	}
	for _, conn := range c.Conns {
		if conn.Escalations == 0 && conn.Demotions == 0 && (len(conn.SndLog) != 0 || len(conn.RcvLog) != 0) {
			t.Fatalf("conn %d never escalated yet retained %d/%d samples",
				conn.ID, len(conn.SndLog), len(conn.RcvLog))
		}
	}
}
