// Package fleet is the supervision layer that runs ELEMENT monitors over
// many concurrent connections. Each connection gets a monitor — the
// Algorithm 1 sender tracker, the Algorithm 2 receiver tracker and
// optionally the Algorithm 3 minimizer — driven poll-by-poll by the
// supervisor so every poll runs under a panic-recovery wrapper. A crashed
// monitor is restarted with capped exponential backoff plus jitter; a
// wedged monitor (no poll progress within the watchdog deadline) is
// recycled. Restarts resume from the last persisted JSON checkpoint, so
// the estimate series continues with bounds widened over the outage
// window instead of starting over — the connection itself keeps carrying
// traffic throughout; a monitor failure never kills the flow it watches.
//
// Execution is sharded: the fleet splits its connections across worker
// shards, each owning a private deterministic engine, and advances all
// shards in parallel between barrier points. Every source of randomness a
// connection can observe — churn plan, backoff jitter, fault injection —
// is drawn from a per-connection RNG stream derived from the seed and the
// connection ID, never from a shared engine RNG, so a run's results are a
// pure function of the seed regardless of shard count or interleaving:
// same-seed runs produce identical per-connection series and counters
// whether they execute on one shard or sixteen. Per-shard telemetry and
// waterfall buffers keep the hot paths single-threaded and are merged
// into the caller's instances when the run drains.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/faults"
	"element/internal/netem"
	"element/internal/overload"
	"element/internal/reqtrace"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/trace"
	"element/internal/units"
	"element/internal/waterfall"
)

// Defaults for Config fields left zero.
const (
	DefaultConnections = 8
	DefaultDuration    = 10 * units.Second
	DefaultRate        = 4 * units.Mbps
	DefaultRTT         = 40 * units.Millisecond

	// DefaultCheckpointEvery is the periodic JSON checkpoint cadence; it
	// bounds how much estimator state a crash can lose.
	DefaultCheckpointEvery = 500 * units.Millisecond
)

// BackoffConfig is the restart policy for crashed monitors: capped
// exponential backoff with multiplicative jitter so a correlated crash
// burst does not restart in lockstep.
type BackoffConfig struct {
	Initial units.Duration // first restart delay (default 50 ms)
	Max     units.Duration // delay cap (default 2 s)
	Factor  float64        // growth per consecutive crash (default 2)
	Jitter  float64        // uniform extra fraction of the delay (default 0.2)
}

func (b BackoffConfig) normalize() BackoffConfig {
	if b.Initial <= 0 {
		b.Initial = 50 * units.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * units.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 {
		b.Jitter = 0.2
	}
	return b
}

// ChurnConfig describes the connection/monitor churn schedule. All draws
// come from each connection's private seeded RNG stream, so the schedule
// is a pure function of (seed, connection ID) — independent of shard
// count and of every other connection.
type ChurnConfig struct {
	// OpenWindow staggers connection opens uniformly over [0, OpenWindow]
	// (0 = all connections open at t=0).
	OpenWindow units.Duration
	// CloseFrac is the fraction of connections that close early,
	// somewhere in the middle of the run. The monitor keeps polling a
	// closed connection until the fleet drains — draining matched records
	// is part of its job.
	CloseFrac float64
	// CrashFrac is the fraction of monitors that panic mid-poll at a
	// scheduled time. The supervisor recovers, backs off, and restores
	// from the last checkpoint.
	CrashFrac float64
	// StallFrac is the fraction of monitors that silently wedge (their
	// poll loop stops making progress). The watchdog detects and recycles
	// them.
	StallFrac float64
}

// Config describes a fleet run.
type Config struct {
	Seed        int64
	Connections int
	Duration    units.Duration
	// Rate/RTT shape each connection's private path.
	Rate units.Rate
	RTT  units.Duration
	// Interval is the TCP_INFO polling period per monitor (0 = 10 ms).
	Interval units.Duration
	// RecordCap bounds each tracker FIFO (0 = core.DefaultRecordCap,
	// negative = unlimited).
	RecordCap int
	// Minimize runs the Algorithm 3 minimizer on every monitor.
	Minimize bool

	// Shards is the number of worker shards the connections are split
	// across, each advancing its own engine on its own goroutine between
	// barrier points (0 = GOMAXPROCS, capped at Connections; 1 = fully
	// inline single-threaded execution). Results are byte-identical
	// across shard counts for a fixed seed.
	Shards int

	Backoff BackoffConfig
	// Watchdog is the no-poll-progress deadline after which a monitor is
	// recycled (0 = max(10 polling intervals, 100 ms)).
	Watchdog units.Duration
	// CheckpointEvery is the periodic serialization cadence (0 =
	// DefaultCheckpointEvery, negative disables checkpoints — restarts
	// then begin a fresh series).
	CheckpointEvery units.Duration

	Churn ChurnConfig

	// Faults composes a fault-injection profile over the whole fleet:
	// every monitor polls a degraded TCP_INFO view and every path gets
	// the profile's chaos, each connection drawing from its own derived
	// fault stream.
	Faults *faults.Profile
	// Telem publishes fleet health gauges and restart/eviction/checkpoint
	// counters under the "fleet" component (nil disables). Shards record
	// into private buffers that merge into this instance at drain time.
	Telem *telemetry.Telemetry
	// Waterfall attaches per-byte-range delay attribution to every
	// connection (nil disables). Per-shard waterfalls are absorbed into
	// this instance at drain time. With Stream escalation rules enabled,
	// recorders exist but stay detached until a flow escalates.
	Waterfall *waterfall.Waterfall

	// Stream enables the bounded-memory streaming telemetry pipeline
	// (nil disables): per-shard windowed sketches merged at barriers,
	// bounded export, and optional sketch-driven escalation.
	Stream *StreamConfig

	// Overload enables the budgeted degradation governor (nil disables):
	// at every barrier the fleet meters its retained samples, sketch
	// bytes, export rate and queue depth against the configured budgets
	// and walks individual flows down (and back up) the degradation
	// ladder — full → sketch-only → counters-only → parked. Every
	// demotion sheds tracker state through core's Shed hook, so the
	// affected flow's samples carry widened error bounds and a Sheds
	// anomaly instead of silently skewing. Decisions run at the barrier
	// on the coordinator, so they are byte-identical for a fixed seed at
	// any shard count.
	Overload *overload.Config

	// ExportQueue fronts the stream sink with a bounded backpressured
	// queue (nil = direct export): deliveries retry with capped
	// exponential backoff plus seeded jitter behind a circuit breaker,
	// so a wedged or flapping sink costs queue depth — visible to the
	// governor as pressure — instead of lost windows or a stuck run.
	// Ignored without Config.Stream and a non-nil sink.
	ExportQueue *overload.QueueConfig

	// DrainTimeout bounds the end-of-run export-backlog drain: after the
	// last barrier the fleet keeps advancing the queue's retry clock
	// until the backlog empties or this much extra virtual time elapses,
	// then force-flushes whatever remains and marks the result
	// ExportTruncated (0 = 2 s grace, negative = no grace).
	DrainTimeout units.Duration

	// Resume restores estimator state and governor tiers from a prior
	// run's Snapshot. Monitors re-home onto this run's shard layout by
	// connection ID — the snapshot's shard count is irrelevant — and
	// every restored tracker counts a Restores anomaly with bounds
	// widened per the rebase contract in internal/core.
	Resume *Snapshot

	// QueuePackets overrides each connection's bottleneck queue depth in
	// packets (0 = the discipline's default — for the standard FIFO the
	// paper's bufferbloat-deep 1000 packets).
	QueuePackets int
	// Disc selects the bottleneck AQM discipline ("" = pfifo_fast).
	Disc aqm.Kind
	// CC selects every connection's congestion control ("" = cubic).
	CC cc.Kind

	// Fanout switches the workload from per-connection bulk transfer to
	// grouped fan-out RPC with request-scoped span tracing (nil = bulk).
	// Fanout mode implies per-connection waterfalls, forces open-at-zero
	// and no early closes (a group's request stream needs all its legs),
	// and disables the minimizer.
	Fanout *FanoutConfig
}

// slice is the barrier interval: shards advance in parallel between
// barriers of this length.
func (c Config) slice() units.Duration {
	s := c.Duration / 64
	if s < c.Interval {
		s = c.Interval
	}
	return s
}

func (c Config) normalize() Config {
	if c.Connections <= 0 {
		c.Connections = DefaultConnections
	}
	if c.Duration <= 0 {
		c.Duration = DefaultDuration
	}
	if c.Rate <= 0 {
		c.Rate = DefaultRate
	}
	if c.RTT <= 0 {
		c.RTT = DefaultRTT
	}
	if c.Interval <= 0 {
		c.Interval = core.DefaultInterval
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 10 * c.Interval
		if c.Watchdog < 100*units.Millisecond {
			c.Watchdog = 100 * units.Millisecond
		}
	}
	switch {
	case c.CheckpointEvery == 0:
		c.CheckpointEvery = DefaultCheckpointEvery
	case c.CheckpointEvery < 0:
		c.CheckpointEvery = 0
	}
	c.Backoff = c.Backoff.normalize()
	if c.Fanout != nil {
		fo := *c.Fanout // callers keep their struct; normalize a copy
		fo.normalize()
		c.Fanout = &fo
		if rem := c.Connections % fo.Degree; rem != 0 {
			c.Connections += fo.Degree - rem
		}
		c.Churn.OpenWindow = 0
		c.Churn.CloseFrac = 0
		c.Minimize = false
	}
	return c
}

// connSeed derives the RNG stream seed for one connection (or, with
// negative ids, one shard engine) from the run seed: a splitmix64
// finalizer over seed+id, so neighbouring ids get decorrelated streams
// and the mapping never depends on shard layout.
func connSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(int64(id)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shard is one worker: a private engine plus the monitors pinned to it.
// Everything a shard touches while the clock advances — engine, sockets,
// telemetry, waterfall, supervisor timers — is shard-local, so shards
// never synchronize between barriers.
type shard struct {
	id       int
	fl       *Fleet
	eng      *sim.Engine
	monitors []*Monitor

	// Per-shard observability buffers (nil when the fleet's are nil),
	// merged into Config.Telem / Config.Waterfall at drain.
	telem *telemetry.Telemetry
	wf    *waterfall.Waterfall

	// Shard-local health accounting (summed into the Result at drain;
	// also mirrored into the shard telemetry).
	restarts    int
	crashes     int
	recycles    int
	checkpoints int

	ctrRestarts    *telemetry.Counter
	ctrCrashes     *telemetry.Counter
	ctrRecycles    *telemetry.Counter
	ctrCheckpoints *telemetry.Counter
	gRunning       *telemetry.Gauge
	gBackingOff    *telemetry.Gauge
	gOpen          *telemetry.Gauge

	// rt is the shard's request-span tracer (nil without Config.Fanout);
	// absorbed into the caller's tracer at drain.
	rt *reqtrace.Tracer

	// Streaming pipeline (nil when Config.Stream is nil): the shard's
	// windowed sketches plus the tracker delay series handles, and the
	// Evictions-style escalation transition accounting.
	stream         *stream.Stream
	seSnd, seRcv   *stream.Series
	escalations    int
	demotions      int
	ctrEscalations *telemetry.Counter
	ctrDemotions   *telemetry.Counter
}

// Fleet is a built supervision run ready to execute.
type Fleet struct {
	cfg      Config
	shards   []*shard
	monitors []*Monitor // all monitors in connection-ID order

	// Streaming merge state (unused when cfg.Stream is nil): the
	// reusable fleet-level merge window, the series names shared by
	// every shard stream, and export accounting.
	fwin          stream.Window
	streamNames   []string
	streamWindows uint64
	streamErr     error

	// Overload state (nil without Config.Overload / Config.ExportQueue):
	// the governor, the backpressured queue fronting the sink chain, the
	// fleet-level sink fault injector, and the effective sink the sealed
	// windows actually go to. baseSink is the chain below the queue,
	// kept for export-rate metering.
	gov      *overload.Governor
	queue    *overload.Queue
	sinkInj  *faults.SinkInjector
	expSink  stream.Sink
	baseSink stream.Sink
	// Export-rate metering: bytes the base sink had written at the last
	// governor tick.
	exportMark  int
	exportRate  float64
	exportTrunc bool
	lastTickAt  units.Time

	draining bool
}

// New builds the fleet: shard engines, per-connection paths and sockets,
// churn plans, supervisor timers. Nothing runs until Run.
func New(cfg Config) *Fleet {
	cfg = cfg.normalize()
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	if nshards > cfg.Connections {
		nshards = cfg.Connections
	}
	if g := cfg.groups(); g > 0 && nshards > g {
		// Groups are shard-atomic: never split a fan-out group.
		nshards = g
	}
	f := &Fleet{cfg: cfg}

	for s := 0; s < nshards; s++ {
		sh := &shard{id: s, fl: f, eng: sim.New(connSeed(cfg.Seed, -1-s))}
		if cfg.Telem != nil {
			sh.telem = telemetry.New()
			sh.telem.SetClock(sh.eng.Now)
			sc := sh.telem.Scope("fleet")
			sh.ctrRestarts = sc.Counter("restarts")
			sh.ctrCrashes = sc.Counter("crashes")
			sh.ctrRecycles = sc.Counter("watchdog_recycles")
			sh.ctrCheckpoints = sc.Counter("checkpoints")
			sh.gRunning = sc.Gauge("monitors_running")
			sh.gBackingOff = sc.Gauge("monitors_backing_off")
			sh.gOpen = sc.Gauge("connections_open")
		}
		if cfg.Waterfall != nil || cfg.Fanout != nil {
			// Fanout mode needs the recorders even when the caller keeps
			// no waterfall: the span tracer joins on their finalized
			// ranges.
			sh.wf = waterfall.New()
			sh.wf.SetClock(sh.eng.Now)
			sh.wf.Instrument(sh.telem.Scope("waterfall"))
		}
		if cfg.Fanout != nil {
			sh.rt = reqtrace.New()
			sh.rt.SetClock(sh.eng.Now)
		}
		if cfg.Stream != nil {
			sh.buildStream(cfg)
		}
		f.shards = append(f.shards, sh)
	}
	if cfg.Stream != nil {
		f.streamNames = f.shards[0].stream.Names()
		f.fwin.Sketches = make([]stream.Sketch, len(f.streamNames))
	}
	f.buildOverload()

	// Churn plans draw from each connection's private stream at build
	// time, so the whole schedule is fixed before any event runs and is
	// identical however the connections are sharded. Sink faults live at
	// the fleet's export layer, so a sink-only profile builds no
	// per-connection injectors.
	injectFaults := cfg.Faults != nil && cfg.Faults.ConnActive()
	resume := cfg.Resume.index()
	for i := 0; i < cfg.Connections; i++ {
		si := i % nshards
		if cfg.Fanout != nil {
			si = (i / cfg.Fanout.Degree) % nshards
		}
		sh := f.shards[si]
		m := &Monitor{
			ID:         i,
			fl:         f,
			sh:         sh,
			rng:        rand.New(rand.NewSource(connSeed(cfg.Seed, i))),
			backoffCur: cfg.Backoff.Initial,
		}
		if injectFaults {
			m.inj = faults.New(sh.eng, *cfg.Faults, connSeed(cfg.Seed, i)+0x6661756c74) // "fault"
		}
		if cfg.Stream != nil && cfg.Stream.Rules.Enabled() {
			m.esc = stream.NewEscalator(cfg.Stream.Rules, cfg.streamCfg().Width)
			if sh.wf != nil && cfg.Fanout == nil {
				// Fanout mode never gates: the span tracer joins on every
				// finalized range, so recorders stay attached for the
				// whole run regardless of escalation state.
				m.gate = &hookGate{}
			}
		}
		m.plan = drawPlan(cfg, m.rng)
		if cs, ok := resume[i]; ok && len(cs.Snd) > 0 && len(cs.Rcv) > 0 {
			// Resume: seed the crash-restore path with the snapshot's
			// rebased checkpoints; open() restores instead of starting
			// fresh, counting the Restores anomaly.
			m.sndCP, m.rcvCP, m.minCP = cs.Snd, cs.Rcv, cs.Min
			m.haveCP = true
		}
		if f.gov != nil {
			m.tier = f.gov.Tier(i)
		}
		f.monitors = append(f.monitors, m)
		sh.monitors = append(sh.monitors, m)
	}

	for _, m := range f.monitors {
		m := m
		if m.plan.openAt > 0 {
			m.sh.eng.At(units.Time(m.plan.openAt), func() { m.open() })
		} else {
			m.open()
		}
	}

	if cfg.Fanout != nil {
		f.startFanout()
	}

	// Per-shard supervisor timers.
	for _, sh := range f.shards {
		sh.scheduleWatchdog()
		if cfg.CheckpointEvery > 0 {
			sh.scheduleCheckpoints()
		}
	}
	return f
}

func (sh *shard) scheduleWatchdog() {
	sh.eng.Schedule(sh.fl.cfg.Watchdog, func() {
		if sh.fl.draining {
			return
		}
		for _, m := range sh.monitors {
			m.watchdogCheck()
		}
		sh.updateGauges()
		sh.scheduleWatchdog()
	})
}

func (sh *shard) scheduleCheckpoints() {
	sh.eng.Schedule(sh.fl.cfg.CheckpointEvery, func() {
		if sh.fl.draining {
			return
		}
		for _, m := range sh.monitors {
			m.checkpoint()
		}
		sh.scheduleCheckpoints()
	})
}

func (sh *shard) updateGauges() {
	if sh.gRunning == nil {
		return
	}
	running, backing, open := 0, 0, 0
	for _, m := range sh.monitors {
		switch m.state {
		case stateRunning:
			running++
		case stateBackoff:
			backing++
		}
		if m.connOpen {
			open++
		}
	}
	sh.gRunning.Set(float64(running))
	sh.gBackingOff.Set(float64(backing))
	sh.gOpen.Set(float64(open))
}

// buildConn constructs one connection's private path, net, ground-truth
// collector and socket pair on this shard's engine.
func (sh *shard) buildConn(m *Monitor) {
	eng := sh.eng
	cfg := sh.fl.cfg
	fwd := netem.LinkConfig{Rate: cfg.Rate, Delay: cfg.RTT / 2}
	if cfg.QueuePackets > 0 || cfg.Disc != "" {
		// The discipline draws from the connection's private stream, so
		// AQM randomness (PIE) never couples connections across shards.
		fwd.Discipline = aqm.MustNew(cfg.Disc, aqm.Config{LimitPackets: cfg.QueuePackets}, m.rng)
	}
	path := netem.NewPath(eng, netem.PathConfig{
		Forward: fwd,
		Reverse: netem.LinkConfig{Rate: cfg.Rate, Delay: cfg.RTT / 2},
	})
	if m.inj != nil {
		m.inj.ApplyPath(path)
	}
	sh.wf.TapLink(path.Forward)
	sh.wf.TapLink(path.Reverse)
	net := stack.NewNet(eng, path)
	var sndHooks, rcvHooks stack.TraceHooks
	if cfg.Stream == nil {
		// Ground truth costs O(samples) per connection; stream mode's
		// whole point is memory independent of sample count, so the
		// collector only exists in the exit-export mode.
		m.gt = trace.New(eng)
		sndHooks, rcvHooks = m.gt.SenderHooks(), m.gt.ReceiverHooks()
	}
	if sh.wf != nil {
		rec := sh.wf.NewFlow()
		recSnd, recRcv := rec.SenderHooks(), rec.ReceiverHooks()
		if m.gate != nil {
			// Escalation mode: the recorder's hooks are installed but
			// gated off until the flow escalates.
			recSnd, recRcv = m.gate.wrap(recSnd), m.gate.wrap(recRcv)
		}
		sndHooks = stack.MergeTraceHooks(sndHooks, recSnd)
		rcvHooks = stack.MergeTraceHooks(rcvHooks, recRcv)
		m.wf = rec
	}
	m.conn = stack.Dial(net, stack.ConnConfig{
		// Every connection runs its own private Net, whose flow counter
		// would hand out the same ID fleet-wide; pin the globally unique
		// connection ID instead so the shard waterfall's by-flow link-tap
		// dispatch never aliases two connections.
		FlowID:        m.ID + 1,
		CC:            cfg.CC,
		SenderHooks:   sndHooks,
		ReceiverHooks: rcvHooks,
		Telem:         sh.telem,
	})
	if m.wf != nil && m.gate == nil {
		sh.wf.Bind(m.conn.FlowID, m.wf)
	}
	m.sndSrc = core.InfoSource(m.conn.Sender)
	m.rcvSrc = core.InfoSource(m.conn.Receiver)
	if m.inj != nil {
		m.sndSrc = m.inj.WrapInfo(m.conn.Sender)
		m.rcvSrc = m.inj.WrapInfo(m.conn.Receiver)
	}
}

// Run executes the fleet to its configured duration, drains, and
// reconciles. Equivalent to RunContext(context.Background()).
func (f *Fleet) Run() *Result { return f.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: virtual time advances
// in slices — all shards in parallel up to each slice barrier — and a
// canceled context stops the run early; the fleet still drains, so
// partial series, telemetry and waterfall state are intact.
func (f *Fleet) RunContext(ctx context.Context) *Result {
	end := units.Time(f.cfg.Duration)
	slice := f.cfg.slice()
	now := units.Time(0)
	for now < end {
		if ctx.Err() != nil {
			break
		}
		next := now.Add(slice)
		if next > end {
			next = end
		}
		f.advance(next)
		f.streamAdvance(next)
		f.overloadTick(next)
		now = next
	}
	return f.drain(ctx.Err() != nil)
}

// advance runs every shard engine up to the barrier time. A single shard
// runs inline on the calling goroutine; multiple shards run in parallel
// and join before returning, so everything outside advance is
// single-threaded.
func (f *Fleet) advance(next units.Time) {
	if len(f.shards) == 1 {
		f.shards[0].eng.RunUntil(next)
		return
	}
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.eng.RunUntil(next)
		}()
	}
	wg.Wait()
}

// drain is the graceful shutdown: every live monitor takes a final poll
// (so in-flight records get their last chance to match), flushes its
// series, and stops; per-shard telemetry and waterfalls merge into the
// caller's instances; parked processes are terminated so no goroutine
// outlives the run. Drain runs entirely on the calling goroutine, after
// the last barrier.
func (f *Fleet) drain(interrupted bool) *Result {
	f.draining = true
	res := &Result{Config: f.cfg, Interrupted: interrupted}
	for _, m := range f.monitors {
		cr := m.drain()
		res.Conns = append(res.Conns, cr)
		res.Sender.Merge(cr.Sender)
		res.Receiver.Merge(cr.Receiver)
		res.Evictions += cr.Anomalies.Evictions
		res.Restores += cr.Anomalies.Restores
		if cr.Escalated {
			res.Escalated++
		}
		res.Escalations += cr.Escalations
		res.Demotions += cr.Demotions
	}
	f.streamDrain()
	f.drainExports(res)
	res.StreamWindows = f.streamWindows
	res.StreamErr = f.streamErr
	if f.gov != nil {
		res.Sheds = f.gov.Sheds()
		res.Reclaims = f.gov.Reclaims()
		res.TierCounts = f.gov.TierCounts()
		res.Parked = res.TierCounts[overload.TierParked]
	}
	res.SinkFaults = f.sinkInj.Failures()
	for _, cr := range res.Conns {
		res.ShedSamples += cr.ShedSamples
	}
	for _, sh := range f.shards {
		sh.updateGauges()
		res.Restarts += sh.restarts
		res.Crashes += sh.crashes
		res.Recycles += sh.recycles
		res.Checkpoints += sh.checkpoints
		res.StreamLate += sh.stream.Late()
		res.StreamDropped += sh.stream.DroppedWindows()
		f.cfg.Telem.Merge(sh.telem)
		f.cfg.Waterfall.Absorb(sh.wf)
		if sh.rt != nil {
			res.Requests += sh.rt.Completed()
			res.RequestsAbandoned += sh.rt.Outstanding()
			f.cfg.Fanout.Tracer.Absorb(sh.rt)
		}
		sh.eng.Shutdown()
	}
	return res
}

// Result is the reconciled outcome of a fleet run.
type Result struct {
	Config      Config
	Conns       []*ConnResult
	Sender      core.BoundCheck // merged across connections
	Receiver    core.BoundCheck
	Restarts    int
	Crashes     int
	Recycles    int
	Checkpoints int
	Evictions   int
	Restores    int
	Interrupted bool

	// Streaming pipeline accounting (zero when Config.Stream is nil).
	Escalations   int    // lightweight → full transitions across the fleet
	Demotions     int    // full → lightweight transitions
	Escalated     int    // flows still escalated at drain
	StreamWindows uint64 // merged fleet windows exported
	StreamLate    uint64 // samples beyond the watermark (anomalies)
	StreamDropped uint64 // windows lost to sealed-queue overflow
	StreamErr     error  // first sink error, if any

	// Fan-out accounting (zero when Config.Fanout is nil).
	Requests          uint64 // requests completed across all groups
	RequestsAbandoned uint64 // requests still in flight at drain

	// Overload accounting (zero without Config.Overload/ExportQueue).
	Sheds           int                    // ladder demotions across the fleet
	Reclaims        int                    // ladder promotions (recoveries)
	Parked          int                    // flows parked at drain
	ShedSamples     int                    // samples dropped below the sketch tier
	TierCounts      [overload.NumTiers]int // flows per tier at drain
	Queue           overload.QueueStats    // export-queue accounting
	SinkFaults      int                    // delivery attempts the injector rejected
	ExportTruncated bool                   // drain timeout expired with backlog remaining
}

// ConnResult is one connection's reconciliation against its own ground
// truth.
type ConnResult struct {
	ID         int
	Sender     core.BoundCheck
	Receiver   core.BoundCheck
	Anomalies  core.AnomalyCounts
	Restarts   int
	Crashes    int
	Recycles   int
	GoodputBps float64
	Closed     bool // closed early by churn
	// Escalation state (zero without stream escalation rules).
	Escalations int
	Demotions   int
	Escalated   bool // still escalated at drain
	// Overload state (zero without Config.Overload).
	Tier        overload.Tier // ladder tier at drain
	Sheds       int           // governor demotions applied to this flow
	ShedSamples int           // samples this flow dropped while below the sketch tier
	// SndLog/RcvLog are the full per-connection estimate series stitched
	// across monitor incarnations.
	SndLog []core.Measurement
	RcvLog []core.Measurement
}

// Violations is the fleet-wide bounded-or-flagged violation count.
func (r *Result) Violations() int {
	return r.Sender.Violations + r.Receiver.Violations
}

func (r *Result) String() string {
	return fmt.Sprintf("fleet{conns=%d restarts=%d crashes=%d recycles=%d checkpoints=%d evictions=%d restores=%d violations=%d}",
		len(r.Conns), r.Restarts, r.Crashes, r.Recycles, r.Checkpoints, r.Evictions, r.Restores, r.Violations())
}
