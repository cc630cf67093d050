package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"

	"element/internal/apps"
	"element/internal/aqm"
	"element/internal/cc"
	"element/internal/core"
	"element/internal/exp"
	"element/internal/fleet"
	"element/internal/netem"
	"element/internal/overload"
	"element/internal/pkt"
	"element/internal/reqtrace"
	"element/internal/stats"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
)

// params are one episode's inputs: everything a workload builds derives
// from them.
type params struct {
	seed int64
	tiny bool
	dur  units.Duration // simulated time the episode covers
	// perturb deliberately alters the simulated configuration, so the
	// self-test can prove that a changed result fails the digest check.
	perturb bool
	tr      *tracer // nil when untraced
}

// instance is one built workload. run advances it through its fixed
// simulated duration; check hashes every simulated output into d and
// counts the workload's operations. Where checking the operations costs
// more than the run itself, check does so only when contract is set: the
// digest already proves that every episode of a run produced the same
// outputs, so one checked episode stands for all. An error means the
// outputs break one of the program's own invariants, which makes the run
// incorrect.
type instance interface {
	run()
	check(d *digest, contract bool) (ops, error)
}

type ops struct{ attempted, failed int64 }

type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// why each workload was chosen.
	name string
	// dur and tinyDur are the simulated time one episode covers at the
	// benchmark's and the self-test's size.
	dur, tinyDur units.Duration
	build        func(p params) instance
}

func (w *workload) simDur(tiny bool) units.Duration {
	if tiny {
		return w.tinyDur
	}
	return w.dur
}

var workloads = []workload{
	{
		name:    "bulk-bdp",
		dur:     2 * units.Second,
		tinyDur: units.Second / 2,
		build:   buildBulk,
	},
	{
		name:    "rpc-fanout",
		dur:     4 * units.Second,
		tinyDur: units.Second / 4,
		build:   buildFanout,
	},
	{
		name:    "fleet-scale",
		dur:     2 * units.Second,
		tinyDur: units.Second,
		build:   buildScale,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// digest hashes an episode's simulated outputs as canonical text lines.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

// measurements hashes an estimator series sample by sample.
func (d *digest) measurements(name string, log []core.Measurement) {
	d.add("%s %d", name, len(log))
	for _, m := range log {
		d.add("%d %d %d %d %d %d %d", m.At, m.Delay, m.Cwnd, m.Ssthresh, m.RTT, m.Confidence, m.ErrBound)
	}
}

// series hashes a ground-truth delay series.
func (d *digest) series(name string, s stats.Series) {
	d.add("%s %d", name, len(s))
	for _, x := range s {
		d.add("%d %d %d", x.At, x.Delay, x.Bytes)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// readCounters sums the telemetry registry's counters by component/name
// across flows into tr.counters.
func readCounters(tr *tracer, tel *telemetry.Telemetry) map[string]float64 {
	tr.counters = map[string]float64{}
	for _, c := range tel.Registry().Counters() {
		tr.counters[c.Component+"/"+c.Name] += c.Value()
	}
	return tr.counters
}

func boundValues(tr *tracer, b core.BoundCheck) {
	tr.set("core.samples", float64(b.Samples))
	tr.set("core.flagged_frac", b.FlaggedFraction())
	tr.set("core.violations", float64(b.Violations))
}

// bulk is the bulk-bdp workload: the paper's §2 bufferbloat setup at a
// bandwidth-delay product of thousands of segments.
type bulk struct {
	p    params
	s    *exp.Scenario
	tel  *telemetry.Telemetry
	done bool // traced runs: the end-of-run sentinel event fired
}

func buildBulk(p params) instance {
	rtt := 50 * units.Millisecond
	if p.perturb {
		rtt += units.Microsecond
	}
	cfg := exp.ScenarioConfig{
		Seed:         p.seed,
		Rate:         500 * units.Mbps,
		RTT:          rtt,
		Disc:         aqm.KindFIFO,
		QueuePackets: aqm.DefaultFIFOLimit,
		Duration:     p.dur,
		// Flow 0 carries the ELEMENT sender and receiver trackers; the
		// writers use 8 KiB writes and send-buffer autotuning.
		Flows: []exp.FlowSpec{{CC: cc.KindCubic, Element: true}, {CC: cc.KindCubic}, {CC: cc.KindCubic}},
	}
	// The path itself draws no randomness, so the seed staggers the
	// competing flows' starts. The stagger stays under a millisecond: it
	// changes every simulated output while keeping the work per run, and
	// so the cost, nearly the same across seeds.
	rng := rand.New(rand.NewSource(p.seed))
	for i := 1; i < len(cfg.Flows); i++ {
		cfg.Flows[i].StartAt = units.Duration(rng.Int63n(int64(units.Millisecond)))
	}
	b := &bulk{p: p}
	if p.tr != nil {
		b.tel = telemetry.New()
		cfg.Telemetry = b.tel
	}
	b.s = exp.Build(cfg)
	if tr := p.tr; tr != nil {
		b.s.Path.WrapSinks(func(reverse bool, sink netem.Sink) netem.Sink {
			name := "tcp.data"
			if reverse {
				name = "tcp.ack"
			}
			return func(q *pkt.Packet) {
				tr.begin(name)
				sink(q)
				tr.end(1)
			}
		})
		// Stepping stops at a sentinel one nanosecond past the end, so
		// the traced run executes exactly the events RunUntil(end) would:
		// it is scheduled before any event runs, so it precedes every
		// other event at that instant.
		b.s.Eng.At(units.Time(cfg.Duration)+1, func() { b.done = true })
	}
	return b
}

func (b *bulk) run() {
	if tr := b.p.tr; tr != nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		// The stepping loop's span and allocation count cover everything
		// the events do, in every layer; the sim layer's own cost per event
		// comes from the CPU profile.
		tr.begin("run.step")
		var n int64
		for !b.done && b.s.Eng.Step() {
			n++
		}
		n-- // the sentinel
		tr.end(n)
		runtime.ReadMemStats(&m1)
		tr.set("sim.events", float64(n))
		tr.set("run.allocs_per_event", frac(float64(m1.Mallocs-m0.Mallocs), float64(n)))
	}
	// Run finishes the scenario: after stepping it only fills in goodput
	// and stops the parked processes.
	b.s.Run()
}

func (b *bulk) check(d *digest, contract bool) (ops, error) {
	f0 := b.s.Flows[0]
	slog, rlog := f0.Sender.Estimates().Log(), f0.Receiver.Estimates().Log()
	tr := b.p.tr
	var o ops
	var sb, rb core.BoundCheck
	if contract || tr != nil {
		if tr != nil {
			tr.begin("core.check")
		}
		sb = core.CheckSenderBounds(slog, f0.GT.SenderDelay(), 0)
		rb = core.CheckReceiverBounds(rlog, f0.GT.ReceiverDelay())
		if tr != nil {
			tr.set("core.check_ms", float64(tr.end(1))/1e6)
		}
		// An estimator sample is one operation; it fails when it lies
		// outside its ErrBound without being flagged.
		o = ops{attempted: int64(len(slog) + len(rlog)), failed: int64(sb.Violations + rb.Violations)}
	}

	var segs, retrans int
	for i, f := range b.s.Flows {
		info := f.Conn.Sender.GetsockoptTCPInfo()
		segs += info.SegsOut
		retrans += info.TotalRetrans
		d.add("flow %d gt snd=%d net=%d rcv=%d read=%d segs_out=%d retrans=%d",
			i, f.GT.SenderDelay().Mean(), f.GT.NetworkDelay().Mean(), f.GT.ReceiverDelay().Mean(),
			f.Conn.Receiver.ReadCum(), info.SegsOut, info.TotalRetrans)
	}
	fwd, rev := b.s.Path.Forward, b.s.Path.Reverse
	d.add("fwd %+v %+v", fwd.Stats(), fwd.QueueStats())
	d.add("rev %+v %+v", rev.Stats(), rev.QueueStats())
	d.measurements("snd", slog)
	d.measurements("rcv", rlog)
	d.series("gt.snd", f0.GT.SenderDelay())
	d.series("gt.rcv", f0.GT.ReceiverDelay())

	if tr != nil {
		tr.set("tcp.ack_ns", tr.perOp("tcp.ack"))
		tr.set("tcp.data_ns", tr.perOp("tcp.data"))
		tr.set("tcp.segs_out", float64(segs))
		tr.set("tcp.retrans_frac", frac(float64(retrans), float64(segs)))
		c := readCounters(tr, b.tel)
		tr.set("tcp.rto_fires", c["tcp/rto_fires"])
		tr.set("tcp.dup_acks", c["tcp/dup_acks"])
		tr.set("sockbuf.writer_blocks", c["sockbuf/writer_blocks"])
		q := fwd.QueueStats()
		drops := float64(q.TailDrops + q.AQMDrops)
		tr.set("netem.pkts", float64(fwd.Stats().Delivered+rev.Stats().Delivered))
		tr.set("aqm.drops", drops)
		tr.set("aqm.drop_frac", frac(drops, float64(q.Enqueued)+drops))
		all := sb
		all.Merge(rb)
		boundValues(tr, all)
	}
	return o, nil
}

// fanout is the rpc-fanout workload: a supervised fleet of traced
// partition-aggregate RPC groups.
type fanout struct {
	p   params
	fl  *fleet.Fleet
	rt  *reqtrace.Tracer
	tel *telemetry.Telemetry
	res *fleet.Result
}

// telescopeTol is the largest |Σstages − e2e| / e2e a request may show
// and still count as telescoping; stage sums are exact in integer
// nanoseconds, so this only absorbs float rounding.
const telescopeTol = 1e-9

func buildFanout(p params) instance {
	groups := 8
	if p.tiny {
		groups = 2
	}
	rps := 500.0
	if p.perturb {
		rps++
	}
	f := &fanout{p: p, rt: reqtrace.New()}
	cfg := fleet.Config{
		Seed:        p.seed,
		Connections: groups * 16,
		Duration:    p.dur,
		Rate:        fleet.DefaultRate,
		RTT:         20 * units.Millisecond,
		Shards:      runtime.NumCPU(),
		Disc:        aqm.KindCoDel,
		CC:          cc.KindCubic,
		Fanout: &fleet.FanoutConfig{
			Degree:       16,
			Arrivals:     apps.ArrivalPoisson,
			RPS:          rps,
			RequestBytes: 256,
			Tracer:       f.rt,
		},
	}
	if p.tr != nil {
		f.tel = telemetry.New()
		cfg.Telem = f.tel
	}
	f.fl = fleet.New(cfg)
	return f
}

func (f *fanout) run() { f.res = f.fl.Run() }

func (f *fanout) check(d *digest, _ bool) (ops, error) {
	tr := f.p.tr
	if tr != nil {
		tr.begin("reqtrace.report")
	}
	rp := f.rt.Report()
	crossErr := rp.CrossCheck()
	if tr != nil {
		tr.set("reqtrace.report_ms", float64(tr.end(1))/1e6)
	}
	var bad int64
	for _, r := range f.rt.Records() {
		if r.Residual() > telescopeTol {
			bad++
		}
	}

	res := f.res
	d.add("%s", res)
	d.add("requests=%d abandoned=%d escalations=%d demotions=%d", res.Requests, res.RequestsAbandoned, res.Escalations, res.Demotions)
	for _, c := range res.Conns {
		d.add("conn %d snd=%+v rcv=%+v anomalies=%+v restarts=%d crashes=%d recycles=%d goodput=%v closed=%v",
			c.ID, c.Sender, c.Receiver, c.Anomalies, c.Restarts, c.Crashes, c.Recycles, c.GoodputBps, c.Closed)
		d.measurements("snd", c.SndLog)
		d.measurements("rcv", c.RcvLog)
	}
	d.add("report completed=%d outstanding=%d retained=%d decimated=%v stray=%d residual=%v",
		rp.Completed, rp.Outstanding, rp.Retained, rp.Decimated, rp.StrayBytes, rp.MaxResidual)
	d.add("mean e2e=%v stages=%v exact=%v approx=%v critical=%v", rp.MeanE2E, rp.MeanStage, rp.Exact, rp.Approx, rp.CriticalShare)

	if tr != nil {
		c := readCounters(tr, f.tel)
		tr.set("tcp.rto_fires", c["tcp/rto_fires"])
		tr.set("tcp.dup_acks", c["tcp/dup_acks"])
		tr.set("sockbuf.writer_blocks", c["sockbuf/writer_blocks"])
		all := res.Sender
		all.Merge(res.Receiver)
		boundValues(tr, all)
		tr.set("fleet.requests", float64(res.Requests))
		tr.set("fleet.abandoned", float64(res.RequestsAbandoned))
		tr.set("fleet.restarts", float64(res.Restarts))
		tr.set("fleet.checkpoints", float64(res.Checkpoints))
		tr.set("reqtrace.max_residual", rp.MaxResidual)
	}
	// A completed request is one operation; it fails when its stages do
	// not telescope to its end-to-end delay. Requests still in flight when
	// the simulated window closes are cut off by the run's end, not lost:
	// they are counted in fleet.abandoned and pinned by the digest.
	o := ops{attempted: int64(rp.Completed), failed: bad}
	if crossErr != nil {
		return o, fmt.Errorf("rpc-fanout: %w", crossErr)
	}
	return o, nil
}

// scale is the fleet-scale workload: the million-monitor mode at 200k
// closed-form flows.
type scale struct {
	p        params
	flows    int
	fl       *fleet.ScaleFleet
	export   hash.Hash // the text export of every sealed window
	sinkErrs int
	res      *fleet.ScaleResult
	tel      *telemetry.Telemetry
}

func buildScale(p params) instance {
	flows := 200_000
	if p.tiny {
		flows = 2_000
	}
	if p.perturb {
		flows++
	}
	s := &scale{p: p, flows: flows, export: sha256.New()}
	text := stream.NewTextExporter(s.export)
	cfg := fleet.ScaleConfig{
		Seed:     p.seed,
		Flows:    flows,
		Duration: p.dur,
		Interval: 100 * units.Millisecond,
		Shards:   runtime.NumCPU(),
		Overload: &overload.Config{Budgets: overload.Budgets{LiveFull: flows / 64}},
		Sink: stream.SinkFunc(func(names []string, w *stream.Window) error {
			err := text.ExportWindow(names, w)
			if err != nil {
				s.sinkErrs++
			}
			return err
		}),
	}
	if p.tr != nil {
		s.tel = telemetry.New()
		cfg.Telem = s.tel
	}
	s.fl = fleet.NewScale(cfg)
	return s
}

func (s *scale) run() {
	if s.p.tr == nil {
		s.res = s.fl.Run()
		return
	}
	c0 := cpuTime()
	s.res = s.fl.Run()
	polls := float64(s.res.Polls + s.res.TrackerPolls)
	s.p.tr.set("fleet.ns_per_poll", frac(float64(cpuTime()-c0), polls))
}

func (s *scale) check(d *digest, _ bool) (ops, error) {
	res := s.res
	d.add("%+v", *res)
	d.add("export %x", s.export.Sum(nil))
	if tr := s.p.tr; tr != nil {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		readCounters(tr, s.tel)
		tr.set("fleet.bytes_per_flow", float64(ms.HeapAlloc)/float64(s.flows))
		tr.set("fleet.polls", float64(res.Polls))
		tr.set("fleet.tracker_polls", float64(res.TrackerPolls))
		tr.set("fleet.escalations", float64(res.Escalations))
		tr.set("fleet.demotions", float64(res.Demotions))
		tr.set("stream.windows", float64(res.StreamWindows))
		tr.set("overload.sheds", float64(res.Sheds))
	}
	// A lite or tracker poll is one operation; a stream export error
	// fails them all.
	n := int64(res.Polls + res.TrackerPolls)
	o := ops{attempted: n}
	if res.StreamErr != nil || s.sinkErrs > 0 {
		o.failed = n
	}
	return o, nil
}
