// Command elemfleet runs the supervised monitoring fleet: N concurrent
// simulated connections, each watched by its own ELEMENT monitor under
// the fleet supervisor (panic recovery, backoff restarts, watchdog
// recycling, periodic JSON checkpoints). Connection and monitor churn is
// scheduled deterministically from the seed and composes with the fault
// profiles.
//
// Usage:
//
//	elemfleet                          # 8 connections, default churn
//	elemfleet -conns 100 -dur 10       # a bigger fleet
//	elemfleet -conns 1000 -shards 4    # sharded across 4 workers, same results
//	elemfleet -crash-frac 1            # crash every monitor once
//	elemfleet -faults stale-info       # degrade TCP_INFO fleet-wide
//	elemfleet -metrics -waterfall      # export telemetry and attribution
//	elemfleet -stream                  # windowed quantile sketches, O(1) memory
//	elemfleet -stream -escalate 200    # + waterfall escalation at p99 > 200 ms
//	elemfleet -stream -stream-format jsonl -stream-budget 65536
//	elemfleet -fanout 4 -rps 300       # fan-out RPC workload + tail report
//	elemfleet -fanout 8 -arrivals bursty -reqtrace spans.json
//	elemfleet -overload -budget-samples 5000   # budgeted degradation ladder
//	elemfleet -stream -export-queue 32 -faults wedged-sink -drain-timeout 1
//	elemfleet -snapshot run.snap; elemfleet -resume run.snap -shards 4
//
// With -overload the budgeted degradation governor meters retained
// samples, sketch bytes, export rate and queue depth against the
// configured budgets at every barrier, and walks individual flows down
// the degradation ladder (full → sketch-only → counters-only → parked)
// under pressure, back up as it clears. Every demotion widens the
// affected flow's error bounds and counts a Sheds anomaly — degraded
// coverage is flagged, never silent. -export-queue fronts the stream
// sink with a bounded retry/backoff queue behind a circuit breaker, so
// a wedged sink costs queue depth instead of lost windows;
// -drain-timeout bounds the end-of-run backlog drain, after which the
// partial export is marked truncated and elemfleet exits non-zero.
// -snapshot/-resume persist estimator state and ladder tiers across
// runs, keyed by connection ID so a snapshot restores into any -shards
// layout.
//
// With -fanout N the workload switches from per-connection bulk
// transfer to fan-out RPC: connections group into fan-out groups of N
// backends, each group issues requests under the chosen arrival process
// (-arrivals poisson|bursty|closed), and every request is traced as a
// request-scoped span tree joined to the per-flow waterfall. The run
// prints the per-stage tail-contribution report (exact quantiles
// cross-checked against the mergeable sketches); -reqtrace FILE
// additionally exports the slowest requests' span trees (-reqtrace-
// format chrome loads in chrome://tracing / ui.perfetto.dev).
//
// With -stream the fleet keeps no per-sample state: tracker estimates
// drain into mergeable per-shard quantile sketches over tumbling windows,
// and each sealed window is exported as it closes (Prometheus text or
// remote-write-shaped JSONL under a byte budget). -escalate arms the
// sketch-driven triggers that flip individual flows to full tracker
// series + waterfall granularity and back after clean windows.
//
// Interrupting a run (Ctrl-C) drains gracefully: monitors take a final
// poll, partial series are reconciled, and telemetry/waterfall exports
// are still written. elemfleet exits non-zero if any connection violates
// the bounded-or-flagged contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"element/internal/apps"
	"element/internal/cc"
	"element/internal/cliutil"
	"element/internal/faults"
	"element/internal/fleet"
	"element/internal/overload"
	"element/internal/reqtrace"
	"element/internal/telemetry"
	"element/internal/telemetry/stream"
	"element/internal/units"
	"element/internal/waterfall"
)

func main() {
	var (
		conns     = flag.Int("conns", 8, "number of concurrent connections")
		seed      = flag.Int64("seed", 1, "simulation seed (fixes the churn schedule)")
		dur       = flag.Float64("dur", 8, "simulated duration in seconds")
		rateMbps  = flag.Float64("rate", 4, "per-connection path rate in Mbps")
		rttMs     = flag.Float64("rtt", 40, "per-connection RTT in ms")
		interval  = flag.Float64("interval", 10, "TCP_INFO polling interval in ms")
		recordCap = flag.Int("record-cap", 0, "tracker record FIFO cap (0 = default, negative = unlimited)")
		minimize  = flag.Bool("minimize", false, "run the Algorithm 3 minimizer on every monitor")
		cpEvery   = flag.Float64("checkpoint-every", 500, "checkpoint cadence in ms (negative disables)")
		shards    = flag.Int("shards", 0, "parallel shard count (0 = one per core, 1 = single-threaded); results are identical for any value")
		scaleN    = flag.Int("scale", 0, "million-monitor mode: run N closed-form flows through per-shard event loops with two-phase escalation (replaces the simulated-stack fleet; honors -seed -dur -interval -shards -escalate -window-ms and the -budget-* flags)")

		openWindow = flag.Float64("open-window", 1, "stagger connection opens over this many seconds")
		closeFrac  = flag.Float64("close-frac", 0.25, "fraction of connections closing early")
		crashFrac  = flag.Float64("crash-frac", 0.4, "fraction of monitors crashing mid-run")
		stallFrac  = flag.Float64("stall-frac", 0.3, "fraction of monitors wedging (watchdog recycles them)")

		faultsPr = flag.String("faults", "", "fault profile: "+strings.Join(faults.Names(), "|"))
		metrics  = flag.Bool("metrics", false, "print a telemetry export after the run")
		waterfal = flag.Bool("waterfall", false, "print per-stage delay attribution after the run")
		perConn  = flag.Bool("per-conn", true, "print the per-connection table")

		streamOn  = flag.Bool("stream", false, "streaming telemetry: windowed quantile sketches, memory independent of sample count")
		windowMs  = flag.Float64("window-ms", 1000, "tumbling window width in ms")
		waterMs   = flag.Float64("watermark-ms", 0, "lateness allowance in ms (0 = one window)")
		escalate  = flag.Float64("escalate", 0, "escalate a flow to full waterfall tracing when its windowed p99 sndbuf delay exceeds this many ms (0 = never)")
		streamFmt = flag.String("stream-format", "text", "window export format: text|jsonl")
		streamCap = flag.Int("stream-budget", 0, "hard byte budget for jsonl window export (0 = unlimited)")

		overloadOn   = flag.Bool("overload", false, "enable the budgeted degradation governor")
		budgetLive   = flag.Int("budget-live", 0, "overload budget: flows at full fidelity (0 = unlimited)")
		budgetSamp   = flag.Int("budget-samples", 0, "overload budget: fleet-wide retained samples+records (0 = unlimited)")
		budgetSketch = flag.Int("budget-sketch-bytes", 0, "overload budget: streaming sketch footprint in bytes (0 = unlimited)")
		budgetExport = flag.Float64("budget-export-bps", 0, "overload budget: sustained export bytes/s (0 = unlimited)")
		highWater    = flag.Float64("high-water", 0, "overload pressure above which flows demote (0 = 1.0)")
		lowWater     = flag.Float64("low-water", 0, "overload pressure below which flows promote (0 = 0.75*high)")
		queueCap     = flag.Int("export-queue", 0, "bounded retry/backoff queue of this many windows fronting the stream sink (0 = direct export)")
		drainT       = flag.Float64("drain-timeout", 0, "end-of-run export-backlog drain grace in seconds; on expiry the partial export is marked truncated and elemfleet exits non-zero (0 = 2s, negative = none)")
		snapOut      = flag.String("snapshot", "", "write a resumable fleet snapshot (estimator checkpoints + ladder tiers, JSON) to this file after the run")
		snapIn       = flag.String("resume", "", "resume estimator state and ladder tiers from a snapshot file; re-homes onto this run's -shards layout by connection ID")

		fanout   = flag.Int("fanout", 0, "fan-out degree: group connections into fan-out RPC groups of this many backends (0 = bulk workload)")
		arrivals = flag.String("arrivals", "poisson", "fan-out arrival process: poisson|bursty|closed")
		rps      = flag.Float64("rps", 0, "fan-out per-group arrival rate, requests/s (0 = default)")
		reqBytes = flag.Int("req-bytes", 0, "fan-out mean per-leg response size in bytes (0 = default)")
		ccAlg    = flag.String("cc", "", "congestion control for every connection: reno|cubic|vegas|bbr (empty = cubic)")
		rtOut    = flag.String("reqtrace", "", "export the slowest requests' span trees to this file (fanout mode)")
		rtForm   = flag.String("reqtrace-format", "chrome", "span-tree export format: chrome|jsonl")
	)
	flag.Parse()

	// Fail fast on bad export destinations before simulating anything.
	if err := cliutil.ValidateOutputPaths(map[string]string{
		"snapshot": *snapOut,
		"reqtrace": *rtOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "elemfleet:", err)
		os.Exit(2)
	}
	if err := cliutil.ValidateInputPath("resume", *snapIn); err != nil {
		fmt.Fprintln(os.Stderr, "elemfleet:", err)
		os.Exit(2)
	}

	if *scaleN > 0 {
		runScale(*scaleN, *seed, *dur, *interval, *shards, *escalate, *windowMs,
			*budgetLive, *budgetSamp, *budgetSketch, *streamOn, *metrics, *snapOut, *snapIn)
		return
	}

	cfg := fleet.Config{
		Seed:            *seed,
		Connections:     *conns,
		Duration:        units.DurationFromSeconds(*dur),
		Rate:            units.Rate(*rateMbps * 1e6),
		RTT:             units.DurationFromSeconds(*rttMs / 1e3),
		Interval:        units.DurationFromSeconds(*interval / 1e3),
		RecordCap:       *recordCap,
		Minimize:        *minimize,
		Shards:          *shards,
		CheckpointEvery: units.DurationFromSeconds(*cpEvery / 1e3),
		Churn: fleet.ChurnConfig{
			OpenWindow: units.DurationFromSeconds(*openWindow),
			CloseFrac:  *closeFrac,
			CrashFrac:  *crashFrac,
			StallFrac:  *stallFrac,
		},
	}
	if *cpEvery < 0 {
		cfg.CheckpointEvery = -1
	}
	cfg.CC = cc.Kind(*ccAlg)
	var rt *reqtrace.Tracer
	var rtFormat reqtrace.Format
	if *fanout > 0 {
		kind, err := apps.ParseArrivals(*arrivals)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet:", err)
			os.Exit(1)
		}
		if *rtOut != "" {
			if rtFormat, err = reqtrace.ParseFormat(*rtForm); err != nil {
				fmt.Fprintln(os.Stderr, "elemfleet:", err)
				os.Exit(1)
			}
		}
		rt = reqtrace.New()
		cfg.Fanout = &fleet.FanoutConfig{
			Degree:       *fanout,
			Arrivals:     kind,
			RPS:          *rps,
			RequestBytes: *reqBytes,
			Tracer:       rt,
		}
	}
	if *faultsPr != "" {
		p, err := faults.ByName(*faultsPr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet:", err)
			os.Exit(1)
		}
		cfg.Faults = &p
	}
	var telem *telemetry.Telemetry
	if *metrics {
		telem = telemetry.New()
		cfg.Telem = telem
	}
	var wf *waterfall.Waterfall
	if *waterfal || (*streamOn && *escalate > 0) {
		// Escalation without -waterfall still needs the recorders: they
		// stay gated off until a flow escalates.
		wf = waterfall.New()
		cfg.Waterfall = wf
	}
	var jsonl *stream.BatchExporter
	if *streamOn {
		sc := &fleet.StreamConfig{
			Window:    units.DurationFromSeconds(*windowMs / 1e3),
			Watermark: units.DurationFromSeconds(*waterMs / 1e3),
		}
		switch *streamFmt {
		case "text":
			sc.Sink = stream.NewTextExporter(os.Stdout)
		case "jsonl":
			jsonl = stream.NewBatchExporter(os.Stdout, *streamCap)
			sc.Sink = jsonl
		default:
			fmt.Fprintf(os.Stderr, "elemfleet: unknown -stream-format %q (text|jsonl)\n", *streamFmt)
			os.Exit(1)
		}
		if *escalate > 0 {
			sc.Rules = stream.Rules{P99Above: units.DurationFromSeconds(*escalate / 1e3)}
		}
		cfg.Stream = sc
	}
	if *overloadOn || *budgetLive > 0 || *budgetSamp > 0 || *budgetSketch > 0 || *budgetExport > 0 {
		cfg.Overload = &overload.Config{
			Budgets: overload.Budgets{
				LiveFull:          *budgetLive,
				RetainedSamples:   *budgetSamp,
				SketchBytes:       *budgetSketch,
				ExportBytesPerSec: *budgetExport,
			},
			HighWater: *highWater,
			LowWater:  *lowWater,
		}
	}
	if *queueCap > 0 {
		if cfg.Stream == nil {
			fmt.Fprintln(os.Stderr, "elemfleet: -export-queue requires -stream")
			os.Exit(1)
		}
		cfg.ExportQueue = &overload.QueueConfig{Capacity: *queueCap}
	}
	cfg.DrainTimeout = units.DurationFromSeconds(*drainT)
	if *drainT < 0 {
		cfg.DrainTimeout = -1
	}
	if *snapIn != "" {
		raw, err := os.ReadFile(*snapIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: resume:", err)
			os.Exit(1)
		}
		snap, err := fleet.UnmarshalSnapshot(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: resume:", err)
			os.Exit(1)
		}
		cfg.Resume = snap
	}

	// Ctrl-C stops the virtual clock at the next slice boundary; the
	// fleet still drains, so partial results and exports are intact.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fl := fleet.New(cfg)
	res := fl.RunContext(ctx)
	if res.Interrupted {
		fmt.Fprintln(os.Stderr, "elemfleet: interrupted — reporting the partial run")
	}

	if *perConn {
		fmt.Printf("%-5s %12s %9s %11s %9s %8s %9s %13s\n",
			"conn", "snd samples", "flagged%", "violations", "restarts", "crashes", "recycles", "goodput Mbps")
		for _, c := range res.Conns {
			fmt.Printf("%-5d %12d %9.1f %11d %9d %8d %9d %13.2f\n",
				c.ID, c.Sender.Samples, 100*c.Sender.FlaggedFraction(),
				c.Sender.Violations+c.Receiver.Violations,
				c.Restarts, c.Crashes, c.Recycles, c.GoodputBps/1e6)
		}
	}
	fmt.Println(res)
	if *streamOn {
		fmt.Printf("stream{windows=%d late=%d dropped=%d escalations=%d demotions=%d escalated=%d}\n",
			res.StreamWindows, res.StreamLate, res.StreamDropped,
			res.Escalations, res.Demotions, res.Escalated)
		if jsonl != nil {
			fmt.Printf("stream export: %d bytes, %d windows written, %d dropped for budget\n",
				jsonl.BytesWritten(), jsonl.Windows, jsonl.Dropped)
		}
		if res.StreamErr != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: stream sink:", res.StreamErr)
		}
	}
	if cfg.Overload != nil {
		tc := res.TierCounts
		fmt.Printf("overload{sheds=%d reclaims=%d shed_samples=%d tiers=[full=%d sketch=%d counters=%d parked=%d]}\n",
			res.Sheds, res.Reclaims, res.ShedSamples,
			tc[overload.TierFull], tc[overload.TierSketch], tc[overload.TierCounters], tc[overload.TierParked])
	}
	if cfg.ExportQueue != nil {
		q := res.Queue
		fmt.Printf("export-queue{enqueued=%d delivered=%d retries=%d dropped=%d deadlined=%d breaker_trips=%d high_water=%d sink_faults=%d}\n",
			q.Enqueued, q.Delivered, q.Retries, q.Dropped, q.Deadlined, q.BreakerTrips, q.HighWater, res.SinkFaults)
	}
	if *snapOut != "" {
		raw, err := fl.Snapshot().Marshal()
		if err == nil {
			err = os.WriteFile(*snapOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: snapshot:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot: %d connections -> %s\n", len(res.Conns), *snapOut)
	}

	if rt != nil {
		fmt.Printf("--- tail report: %d requests (%d abandoned) ---\n", res.Requests, res.RequestsAbandoned)
		rp := rt.Report()
		rp.WriteTable(os.Stdout)
		if err := rp.CrossCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: quantile cross-check:", err)
			os.Exit(1)
		}
		if *rtOut != "" {
			out, err := os.Create(*rtOut)
			if err == nil {
				err = rt.Export(out, rtFormat)
				if cerr := out.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "elemfleet: reqtrace export:", err)
				os.Exit(1)
			}
			fmt.Printf("reqtrace: %d slowest span trees -> %s (%s)\n", len(rt.Slowest()), *rtOut, rtFormat)
		}
	}

	if telem != nil {
		fmt.Println("--- metrics ---")
		if err := telem.Export(os.Stdout, telemetry.FormatText); err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: metrics export:", err)
		}
	}
	if wf != nil && *waterfal {
		agg := wf.Aggregate()
		fmt.Printf("--- waterfall: %d flows, %d byte ranges ---\n", len(wf.Flows()), agg.Ranges)
		agg.WriteTable(os.Stdout)
	}
	if res.ExportTruncated {
		fmt.Fprintln(os.Stderr, "elemfleet: export truncated — drain timeout expired with windows undelivered")
		os.Exit(1)
	}
	if v := res.Violations(); v != 0 {
		fmt.Fprintf(os.Stderr, "elemfleet: %d bounded-or-flagged violations\n", v)
		os.Exit(1)
	}
}

// runScale is the -scale entry point: the million-monitor mode. The
// simulated stack is replaced by closed-form flows, so the only
// per-flow cost is the lite poll column sweep; escalated flows get the
// same full SenderTracker the big fleet uses.
func runScale(flows int, seed int64, dur, intervalMs float64, shards int, escalateMs, windowMs float64, budgetLive, budgetSamp, budgetSketch int, streamOn, metrics bool, snapOut, snapIn string) {
	cfg := fleet.ScaleConfig{
		Seed:     seed,
		Flows:    flows,
		Duration: units.DurationFromSeconds(dur),
		Interval: units.DurationFromSeconds(intervalMs / 1e3),
		Shards:   shards,
		Window:   units.DurationFromSeconds(windowMs / 1e3),
	}
	if escalateMs > 0 {
		cfg.EscalateAbove = units.DurationFromSeconds(escalateMs / 1e3)
	}
	if budgetLive > 0 || budgetSamp > 0 || budgetSketch > 0 {
		cfg.Overload = &overload.Config{Budgets: overload.Budgets{
			LiveFull:        budgetLive,
			RetainedSamples: budgetSamp,
			SketchBytes:     budgetSketch,
		}}
	}
	if streamOn {
		cfg.Sink = stream.NewTextExporter(os.Stdout)
	}
	var telem *telemetry.Telemetry
	if metrics {
		telem = telemetry.New()
		cfg.Telem = telem
	}
	if snapIn != "" {
		raw, err := os.ReadFile(snapIn)
		if err == nil {
			cfg.Resume, err = fleet.UnmarshalScaleSnapshot(raw)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: resume:", err)
			os.Exit(1)
		}
	}

	fl := fleet.NewScale(cfg)
	res := fl.Run()
	fmt.Printf("scale{flows=%d shards=%d polls=%d tracker_polls=%d flagged=%d}\n",
		res.Flows, shards, res.Polls, res.TrackerPolls, res.Flagged)
	fmt.Printf("escalation{escalations=%d demotions=%d false_alarms=%d escalated=%d restores=%d retained=%d}\n",
		res.Escalations, res.Demotions, res.FalseAlarms, res.Escalated, res.Restores, res.RetainedSamples)
	fmt.Printf("stream{windows=%d late=%d} snd_p50=%.1fms snd_p99=%.1fms rcv_p99=%.1fms\n",
		res.StreamWindows, res.StreamLate, res.SndP50*1e3, res.SndP99*1e3, res.RcvP99*1e3)
	if cfg.Overload != nil {
		tc := res.TierCounts
		fmt.Printf("overload{sheds=%d reclaims=%d parked_skips=%d tiers=[full=%d sketch=%d counters=%d parked=%d]}\n",
			res.Sheds, res.Reclaims, res.ParkedSkips,
			tc[overload.TierFull], tc[overload.TierSketch], tc[overload.TierCounters], tc[overload.TierParked])
	}
	if res.StreamErr != nil {
		fmt.Fprintln(os.Stderr, "elemfleet: stream:", res.StreamErr)
		os.Exit(1)
	}
	if telem != nil {
		telem.WriteText(os.Stdout)
	}
	if snapOut != "" {
		raw, err := fl.Snapshot().Marshal()
		if err == nil {
			err = os.WriteFile(snapOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "elemfleet: snapshot:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot: %d flows -> %s\n", res.Flows, snapOut)
	}
}
