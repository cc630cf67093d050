package fleet

import (
	"math/rand"

	"element/internal/core"
	"element/internal/faults"
	"element/internal/overload"
	"element/internal/sim"
	"element/internal/stack"
	"element/internal/telemetry/stream"
	"element/internal/trace"
	"element/internal/units"
	"element/internal/waterfall"
)

// monitorState is the supervisor's view of one monitor.
type monitorState int

const (
	stateIdle    monitorState = iota // connection not opened yet
	stateRunning                     // polling
	stateBackoff                     // crashed, restart scheduled
	stateDone                        // drained
)

// churnPlan is one connection's pre-drawn schedule. Zero times mean "never".
type churnPlan struct {
	openAt  units.Duration
	closeAt units.Duration
	crashAt units.Duration
	stallAt units.Duration
}

// drawPlan consumes the connection's private RNG in a fixed order so the
// schedule is a pure function of (seed, connection ID), independent of
// every other connection and of the shard layout.
func drawPlan(cfg Config, rng *rand.Rand) churnPlan {
	var p churnPlan
	if w := cfg.Churn.OpenWindow; w > 0 {
		p.openAt = units.Duration(rng.Int63n(int64(w) + 1))
	}
	mid := func(lo, hi float64) units.Duration {
		span := float64(cfg.Duration) * (hi - lo)
		return units.Duration(float64(cfg.Duration)*lo + rng.Float64()*span)
	}
	// Every branch draws the same number of variates whether or not the
	// fault is selected, keeping plans independent across connections.
	crashRoll, crashAt := rng.Float64(), mid(0.25, 0.7)
	if crashRoll < cfg.Churn.CrashFrac {
		p.crashAt = crashAt
	}
	stallRoll, stallAt := rng.Float64(), mid(0.25, 0.7)
	if stallRoll < cfg.Churn.StallFrac {
		p.stallAt = stallAt
	}
	closeRoll, closeAt := rng.Float64(), mid(0.5, 0.9)
	if closeRoll < cfg.Churn.CloseFrac {
		p.closeAt = closeAt
	}
	return p
}

// Monitor supervises one connection's ELEMENT instance: it owns the
// trackers (and minimizer), drives every poll under panic recovery, and
// keeps the crash-safe checkpoint the supervisor restores from. A monitor
// lives entirely on one shard; its RNG stream and fault injector are
// derived from the connection ID so its behaviour never depends on which
// shard runs it.
type Monitor struct {
	ID   int
	fl   *Fleet
	sh   *shard
	plan churnPlan
	// rng is the connection's private stream: churn plan (at build time)
	// and backoff jitter draw here, never from a shared engine RNG.
	rng *rand.Rand
	// inj is the connection's private fault injector (nil when the fleet
	// has no fault profile).
	inj *faults.Injector

	conn     *stack.Conn
	gt       *trace.Collector
	wf       *waterfall.Recorder
	sndSrc   core.InfoSource
	rcvSrc   core.InfoSource
	connOpen bool
	closed   bool

	state monitorState
	// alive gates the app-side feed (OnWrite/OnRead): a dead monitor's
	// connection keeps moving bytes, it just goes unobserved.
	alive bool
	// wedged simulates a stuck monitor thread: the poll loop stops
	// silently and only the watchdog can notice.
	wedged    bool
	crashNext bool

	snd *core.SenderTracker
	rcv *core.ReceiverTracker
	min *core.Minimizer

	// Crash-safe state: the last serialized checkpoints. Restores parse
	// these bytes — state lost since the last checkpoint stays lost,
	// exactly like a process that died before fsync.
	sndCP, rcvCP, minCP []byte
	haveCP              bool

	// Series stitched across incarnations, flushed after every poll. In
	// stream mode these stay empty except while the flow is escalated.
	sndLog, rcvLog []core.Measurement
	sndOff, rcvOff int

	// Streaming state (nil/zero without Config.Stream): the per-flow
	// escalation state machine, the waterfall hook gate it drives, and
	// the anomaly-total mark for per-poll deltas.
	esc      *stream.Escalator
	gate     *hookGate
	anomMark int

	// Overload state (zero without Config.Overload): the flow's current
	// ladder tier, when it was parked (for the unpark outage fold), and
	// the shed accounting.
	tier        overload.Tier
	parkedAt    units.Time
	sheds       int
	shedSamples int

	// Watchdog progress mark: total polls at the last check.
	pollMark int

	backoffCur units.Duration
	restarts   int
	crashes    int
	recycles   int
}

// open builds the connection, starts traffic, and starts the monitor.
func (m *Monitor) open() {
	sh := m.sh
	sh.buildConn(m)
	m.connOpen = true
	if m.fl.cfg.Fanout == nil {
		// Fanout mode replaces the bulk writer/reader with the group
		// workload, started once the whole group is open.
		m.startTraffic()
	}
	if m.haveCP {
		// Resume path: the fleet seeded the crash-restore bytes from a
		// prior run's snapshot, so the first incarnation restores —
		// counting the Restores anomaly, with bounds widened per the
		// rebase contract — instead of starting a fresh series.
		m.restore()
	} else {
		m.startFresh()
	}
	if at := m.plan.crashAt; at > 0 {
		sh.eng.At(units.Time(at), func() { m.crashNext = true })
	}
	if at := m.plan.stallAt; at > 0 {
		sh.eng.At(units.Time(at), func() { m.wedged = true })
	}
	if at := m.plan.closeAt; at > 0 {
		sh.eng.At(units.Time(at), func() {
			if m.connOpen {
				m.closed = true
				m.connOpen = false
				m.conn.Close()
			}
		})
	}
	sh.updateGauges()
}

// startTraffic spawns the writer/reader pair. The app feeds the trackers
// only while the monitor is alive — a crashed monitor misses writes and
// reads, and the restored one picks the cumulative counters back up.
func (m *Monitor) startTraffic() {
	conn := m.conn
	stop := units.Time(m.fl.cfg.Duration)
	m.sh.eng.Spawn("fleet-writer", func(p *sim.Proc) {
		const chunk = 8 << 10
		for p.Now() < stop {
			size := chunk
			if m.inj != nil {
				if d := m.inj.WriteStall(); d > 0 {
					p.Sleep(d)
				}
				size = m.inj.WriteSize(chunk)
			}
			n := conn.Sender.Write(p, size)
			if n == 0 {
				return
			}
			if m.alive {
				cum := conn.Sender.WrittenCum()
				m.snd.OnWrite(cum)
				if m.min != nil {
					m.min.AfterSend(p, cum)
				}
			}
		}
	})
	m.sh.eng.Spawn("fleet-reader", func(p *sim.Proc) {
		for {
			max := 1 << 20
			if m.inj != nil {
				max = m.inj.ReadSize(max)
			}
			n := conn.Receiver.Read(p, max)
			if n == 0 {
				return
			}
			if m.alive {
				m.rcv.OnRead(conn.Receiver.ReadCum(), n, n < max)
			}
		}
	})
}

// startFresh brings up a brand-new monitor incarnation (first start, or a
// restart with no checkpoint to restore).
func (m *Monitor) startFresh() {
	cfg := m.fl.cfg
	opts := core.TrackerOptions{Interval: cfg.Interval, RecordCap: cfg.RecordCap, Detached: true}
	m.snd = core.NewSenderTrackerOpts(m.sh.eng, m.sndSrc, opts)
	m.rcv = core.NewReceiverTrackerOpts(m.sh.eng, m.rcvSrc, opts)
	if cfg.Minimize {
		m.min = core.NewMinimizerDetached(m.sh.eng, m.sndSrc, m.snd, core.MinimizerConfig{})
	}
	m.becomeRunning()
}

// restore brings up an incarnation from the last persisted checkpoint.
func (m *Monitor) restore() {
	cfg := m.fl.cfg
	scp, err := core.UnmarshalSenderCheckpoint(m.sndCP)
	if err != nil {
		m.startFresh()
		return
	}
	rcp, err := core.UnmarshalReceiverCheckpoint(m.rcvCP)
	if err != nil {
		m.startFresh()
		return
	}
	opts := core.TrackerOptions{Interval: cfg.Interval, RecordCap: cfg.RecordCap, Detached: true}
	m.snd = core.RestoreSenderTracker(m.sh.eng, m.sndSrc, scp, opts)
	m.rcv = core.RestoreReceiverTracker(m.sh.eng, m.rcvSrc, rcp, opts)
	if cfg.Minimize && m.minCP != nil {
		if mcp, err := core.UnmarshalMinimizerCheckpoint(m.minCP); err == nil {
			m.min = core.RestoreMinimizer(m.sh.eng, m.snd, mcp, true)
		} else {
			m.min = core.NewMinimizerDetached(m.sh.eng, m.sndSrc, m.snd, core.MinimizerConfig{})
		}
	} else if cfg.Minimize {
		m.min = core.NewMinimizerDetached(m.sh.eng, m.sndSrc, m.snd, core.MinimizerConfig{})
	}
	m.becomeRunning()
}

func (m *Monitor) becomeRunning() {
	m.state = stateRunning
	m.alive = true
	m.sndOff, m.rcvOff = 0, 0
	m.anomMark = m.anomalyTotal() // restored counts are not new anomalies
	m.pollMark = -1               // grace: the first watchdog pass after a start never fires
	m.scheduleTick()
}

// scheduleTick arms the next poll as the monitor's own engine event,
// exactly one Interval out. Staggered opens and crash-backoff restarts
// put monitors off the poll grid, so the phase must not be rounded.
func (m *Monitor) scheduleTick() {
	m.sh.eng.Schedule(m.fl.cfg.Interval, func() { m.tick() })
}

// tick is one supervised poll: the only place tracker code runs, wrapped
// in recover so a panicking monitor takes down nothing but itself.
func (m *Monitor) tick() {
	if m.state != stateRunning || m.fl.draining {
		return
	}
	if m.wedged {
		// The monitor thread is stuck: no polls, no rescheduling. Only
		// the watchdog will notice.
		return
	}
	if m.tier == overload.TierParked {
		// Parked by the governor: zero observation, but the tick loop
		// stays armed so promotion needs no re-arm handshake with the
		// barrier — the flow resumes polling on its next interval.
		m.scheduleTick()
		return
	}
	ok := m.protectedPoll()
	if !ok {
		m.onCrash()
		return
	}
	m.flush()
	m.scheduleTick()
}

func (m *Monitor) protectedPoll() (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	if m.crashNext {
		m.crashNext = false
		panic("fleet: injected monitor fault")
	}
	m.snd.PollOnce()
	m.rcv.PollOnce()
	if m.min != nil {
		m.min.CheckOnce()
	}
	return true
}

// flush streams freshly produced samples into the per-connection series.
// Exporting incrementally is what makes the series crash-safe: samples
// already flushed survive the incarnation that produced them. In stream
// mode the samples drain into the shard's windowed sketches instead, so
// per-connection memory stays constant.
func (m *Monitor) flush() {
	if m.sh.stream != nil {
		m.flushStream()
		return
	}
	if m.snd != nil {
		log := m.snd.Estimates().Log()
		if m.tier >= overload.TierSketch {
			// Shed below full retention: the samples are counted, not
			// kept — the flow's Sheds anomaly and widened bounds already
			// flag the gap.
			m.shedSamples += len(log) - m.sndOff
		} else {
			m.sndLog = append(m.sndLog, log[m.sndOff:]...)
		}
		m.sndOff = len(log)
	}
	if m.rcv != nil {
		log := m.rcv.Estimates().Log()
		if m.tier >= overload.TierSketch {
			m.shedSamples += len(log) - m.rcvOff
		} else {
			m.rcvLog = append(m.rcvLog, log[m.rcvOff:]...)
		}
		m.rcvOff = len(log)
	}
}

// onCrash handles a recovered panic: count it, drop the incarnation, and
// schedule a restart after backoff with jitter drawn from the monitor's
// private stream.
func (m *Monitor) onCrash() {
	sh := m.sh
	m.crashes++
	sh.crashes++
	if sh.ctrCrashes != nil {
		sh.ctrCrashes.Inc()
	}
	m.dropIncarnation()
	m.state = stateBackoff
	delay := m.backoffCur
	if j := m.fl.cfg.Backoff.Jitter; j > 0 {
		delay += units.Duration(float64(delay) * j * m.rng.Float64())
	}
	next := units.Duration(float64(m.backoffCur) * m.fl.cfg.Backoff.Factor)
	if next > m.fl.cfg.Backoff.Max {
		next = m.fl.cfg.Backoff.Max
	}
	m.backoffCur = next
	sh.updateGauges()
	sh.eng.Schedule(delay, func() {
		if m.state != stateBackoff || m.fl.draining {
			return
		}
		m.doRestart()
	})
}

// watchdogCheck recycles a running monitor that made no poll progress
// since the previous check: checkpoint-less memory is untrusted, so the
// recycle restores from the last persisted checkpoint like a crash, but
// restarts immediately — the monitor is not failing repeatedly, it is
// merely stuck.
func (m *Monitor) watchdogCheck() {
	if m.state != stateRunning {
		return
	}
	if m.tier == overload.TierParked {
		// A parked monitor makes no poll progress by design; re-arm the
		// grace so the first check after unparking never fires either.
		m.pollMark = -1
		return
	}
	progress := 0
	if m.snd != nil {
		progress += m.snd.Polls()
	}
	if m.rcv != nil {
		progress += m.rcv.Polls()
	}
	if m.pollMark < 0 {
		m.pollMark = progress
		return
	}
	if progress != m.pollMark {
		m.pollMark = progress
		return
	}
	m.recycles++
	m.sh.recycles++
	if m.sh.ctrRecycles != nil {
		m.sh.ctrRecycles.Inc()
	}
	m.wedged = false
	m.dropIncarnation()
	m.doRestart()
}

func (m *Monitor) dropIncarnation() {
	m.alive = false
	if m.snd != nil {
		m.snd.Stop()
	}
	if m.rcv != nil {
		m.rcv.Stop()
	}
	if m.min != nil {
		m.min.Stop()
		m.min = nil
	}
	m.snd, m.rcv = nil, nil
}

func (m *Monitor) doRestart() {
	m.restarts++
	m.sh.restarts++
	if m.sh.ctrRestarts != nil {
		m.sh.ctrRestarts.Inc()
	}
	if m.haveCP {
		m.restore()
	} else {
		m.startFresh()
	}
	m.sh.updateGauges()
}

// checkpoint serializes the live trackers to JSON. The bytes, not the
// live objects, are what restores parse — proving the round trip every
// time.
func (m *Monitor) checkpoint() {
	if m.state != stateRunning || m.wedged {
		return
	}
	scp, err := m.snd.Checkpoint().Marshal()
	if err != nil {
		return
	}
	rcp, err := m.rcv.Checkpoint().Marshal()
	if err != nil {
		return
	}
	if m.min != nil {
		mcp, err := m.min.Checkpoint().Marshal()
		if err != nil {
			return
		}
		m.minCP = mcp
	}
	m.sndCP, m.rcvCP = scp, rcp
	m.haveCP = true
	m.sh.checkpoints++
	if m.sh.ctrCheckpoints != nil {
		m.sh.ctrCheckpoints.Inc()
	}
}

// drain finishes the monitor: one last supervised poll so in-flight
// records get a final chance to match, then flush and reconcile against
// this connection's own ground truth.
func (m *Monitor) drain() *ConnResult {
	cr := &ConnResult{ID: m.ID, Restarts: m.restarts, Crashes: m.crashes, Recycles: m.recycles, Closed: m.closed}
	if m.state == stateRunning && !m.wedged && m.tier != overload.TierParked {
		m.protectedPoll()
		m.flush()
	}
	if m.snd != nil {
		cr.Anomalies = m.snd.Anomalies()
		cr.Anomalies.Add(m.rcv.Anomalies())
	}
	if m.esc != nil {
		// Evaluate the partial last window so a run ending mid-window
		// still counts its final evidence.
		if changed := m.esc.Finish(); changed {
			m.setEscalated(m.esc.Escalated())
		}
		cr.Escalations = int(m.esc.Escalations())
		cr.Demotions = int(m.esc.Demotions())
		cr.Escalated = m.esc.Escalated()
	}
	cr.Tier = m.tier
	cr.Sheds = m.sheds
	cr.ShedSamples = m.shedSamples
	m.dropIncarnation()
	m.state = stateDone
	cr.SndLog, cr.RcvLog = m.sndLog, m.rcvLog
	if m.gt != nil {
		cr.Sender = core.CheckSenderBounds(m.sndLog, m.gt.SenderDelay(), m.fl.cfg.Interval)
		cr.Receiver = core.CheckReceiverBounds(m.rcvLog, m.gt.ReceiverDelay())
	}
	if m.conn != nil {
		active := m.fl.cfg.Duration - m.plan.openAt
		if m.plan.closeAt > 0 {
			active = m.plan.closeAt - m.plan.openAt
		}
		if active > 0 {
			cr.GoodputBps = float64(m.conn.Receiver.ReadCum()) * 8 / active.Seconds()
		}
	}
	return cr
}
