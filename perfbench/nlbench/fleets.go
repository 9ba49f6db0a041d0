package main

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

const (
	fleetPairs   = 12
	fleetWorkers = 6
	fleetSpares  = 3
	// fleetClients and fleetRate shape the open-loop trace replayed
	// against every pair: 2 connections, 400 req/s per pair.
	fleetClients = 2
	fleetRate    = 400.0
	// fleetTrace is the replayed trace length, which is also the
	// campaign's fault window. It runs well past recovery.
	fleetTrace = 12 * simtime.Second
	// fleetWarmup is the campaign's fixed warmup before the trace starts
	// (chaos fleetWarmup).
	fleetWarmup = 600 * simtime.Millisecond
	// The kill lands fleetKillFrom..fleetKillTo into the trace; see
	// campaignSeed.
	fleetKillFrom = 1500 * simtime.Millisecond
	fleetKillTo   = 2500 * simtime.Millisecond
)

// fleetPairsHostkill: 12 pairs on 6 workers + 3 spares, core.AllOpts()
// with leases on, one host kill, under the open-loop trace. The trace has
// zipf keys but Poisson arrivals: the zipf preset's Pareto arrivals end a
// stalled client's wait at the first long arrival gap, which made p99.9
// vary twentyfold between seeds.
func fleetPairsHostkill(r *run, seed int64) {
	runFleet(r, seed, chaos.FleetConfig{
		Opts: core.AllOpts(), OptName: "perfbench-pairs", Kills: 1,
	})
}

// fleetChainsReplayZonekill: the same pool and trace as 3-wide chains
// over 3 zones under core.ReplayOpts(), killing a whole zone.
func fleetChainsReplayZonekill(r *run, seed int64) {
	runFleet(r, seed, chaos.FleetConfig{
		Opts: core.ReplayOpts(), OptName: "perfbench-chains-replay",
		Replicas: 3, Zones: 3, KillZone: true,
	})
}

// campaignSeed maps the benchmark seed to the first campaign seed whose
// host kill lands fleetKillFrom..fleetKillTo into the trace. A fleet
// campaign draws its kill instant uniformly over the whole fault window
// from its seed; pinning the band keeps the post-kill span, which sets
// the stalled clients' latency, comparable across benchmark seeds.
// The draw mirrors the campaign's (first value of its seeded stream);
// runFleet checks the instant the campaign actually used.
func campaignSeed(seed int64) (int64, simtime.Duration) {
	lo := int64(fleetWarmup + 150*simtime.Millisecond)
	hi := int64(fleetWarmup + fleetTrace - 150*simtime.Millisecond)
	for cand := seed * 1000; ; cand++ {
		z := uint64(cand)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		at := simtime.Duration(lo + simtime.NewRand(int64(z>>1)).Int63n(hi-lo))
		if at >= fleetWarmup+fleetKillFrom && at < fleetWarmup+fleetKillTo {
			return cand, at
		}
	}
}

func runFleet(r *run, seed int64, cfg chaos.FleetConfig) {
	cseed, wantKill := campaignSeed(seed)
	tr := traffic.Synthesize(traffic.SynthConfig{
		Name: "zipf-poisson", Seed: cseed, KeyDist: "zipf",
		Clients: fleetClients, Rate: fleetRate, Duration: fleetTrace,
	})

	cfg.Seed = cseed
	cfg.Pairs, cfg.Workers, cfg.Spares = fleetPairs, fleetWorkers, fleetSpares
	cfg.Duration = fleetTrace
	cfg.Traffic = tr
	r.res.Shape = fmt.Sprintf("fleet %s: %d pairs, %d workers + %d spares, replicas %d, zipf-key Poisson trace %d clients × %.0f req/s per pair for %s, campaign seed %d",
		cfg.OptName, cfg.Pairs, cfg.Workers, cfg.Spares, max(2, cfg.Replicas), fleetClients, fleetRate, fleetTrace, cseed)
	r.setupDone()

	// The campaign drives its own clock, so the traced run polls the
	// live heap in host time instead of at virtual instants.
	stopPoll := func() {}
	if r.traced {
		stopPoll = r.pollHeap()
	}
	res := chaos.VerifyFleetSeed(cfg)
	stopPoll()
	r.span("campaign")

	for _, v := range res.Verdicts {
		// slo-windows is a latency judgement, reported below as
		// traffic.uncovered_violation_windows rather than gated on.
		if !v.OK && v.Oracle != "slo-windows" {
			r.problem("oracle %s failed: %s", v.Oracle, v.Detail)
		}
		if v.Oracle == "slo-windows" {
			r.virt("traffic.uncovered_violation_windows", float64(uncovered(v)))
		}
	}
	killAt := traceKillAt(res.Trace)
	if killAt != int64(wantKill) {
		r.problem("campaign killed at t=%d, want t=%d: the kill-instant draw in campaignSeed is out of date", killAt, int64(wantKill))
	}

	slo := res.SLO
	if slo == nil {
		r.problem("campaign produced no SLO report")
		return
	}
	r.virt("client_p50_ms", slo.P50)
	r.virt("client_p99_ms", slo.P99)
	r.virt("client_p999_ms", slo.P999)
	r.res.Samples["client"] = slo.Completions
	if slo.Completions < 10000 {
		r.problem("%d latency samples, fewer than the 10000 p99.9 needs", slo.Completions)
	}
	// Open-loop latency runs from each request's due time, so the
	// longest wait spans a stalled client's gap from the fault to its
	// first reply after recovery.
	r.virt("outage_ms", slo.Max)
	r.virt("slo_bad_window_pct", 100*float64(slo.Violations)/float64(max(1, slo.TotalWindows)))
	r.res.Samples["slo_windows"] = slo.TotalWindows
	r.res.Attempted = int64(slo.Arrivals)
	r.res.Failed = int64(slo.Outstanding)
	if slo.Outstanding > 0 {
		r.problem("%d requests never completed", slo.Outstanding)
	}

	r.virt("traffic.completions", float64(slo.Completions))
	for i, name := range traffic.FactorNames() {
		r.virt("traffic.share."+name, slo.Shares[i])
	}
	r.virt("workloads.completed", float64(slo.Completions))
	r.virt("core.epochs", float64(res.Epochs))
	r.virt("core.resyncs", float64(res.Resyncs))
	r.virt("chaos.link_drops", float64(res.LinkDrops))
	r.virt("cluster.failovers", float64(res.Failovers))
	events := traceEvents(res.Trace)
	if at, ok := firstEvent(events, "host-dead"); ok {
		r.virt("core.detect_ms", float64(at-killAt)/1e6)
	}
	if at, ok := lastEvent(events, "protected", "replica-joined"); ok && at > killAt {
		r.virt("cluster.converge_ms", float64(at-killAt)/1e6)
	}
	if err := timelineStats(r, res.TimelineCSV); err != nil {
		r.problem("timeline: %v", err)
	}
	r.span("verify")
}

// uncovered reads the count of violation windows outside the kill
// interval from a failed slo-windows verdict ("N/M violation windows
// uncovered: ...").
func uncovered(v chaos.Verdict) int {
	if v.OK {
		return 0
	}
	n, err := strconv.Atoi(strings.SplitN(v.Detail, "/", 2)[0])
	if err != nil {
		return -1
	}
	return n
}

// traceKillAt returns the kill instant from the campaign's
// "sched kill-at=" header line, or -1.
func traceKillAt(trace string) int64 {
	for _, line := range strings.Split(trace, "\n") {
		if rest, ok := strings.CutPrefix(line, "sched kill-at="); ok {
			at, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			if err == nil {
				return at
			}
		}
	}
	return -1
}

type traceEvent struct {
	at   int64
	kind string
}

// traceEvents parses "t=<ns> event <kind> ..." lines.
func traceEvents(trace string) []traceEvent {
	var out []traceEvent
	for _, line := range strings.Split(trace, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[1] != "event" || !strings.HasPrefix(f[0], "t=") {
			continue
		}
		at, err := strconv.ParseInt(f[0][2:], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, traceEvent{at, f[2]})
	}
	return out
}

func firstEvent(evs []traceEvent, kind string) (int64, bool) {
	for _, e := range evs {
		if e.kind == kind {
			return e.at, true
		}
	}
	return 0, false
}

func lastEvent(evs []traceEvent, kinds ...string) (int64, bool) {
	var at int64
	found := false
	for _, e := range evs {
		for _, k := range kinds {
			if e.kind == k && e.at >= at {
				at, found = e.at, true
			}
		}
	}
	return at, found
}

// timelineStats derives the per-epoch criu, simkernel and core metrics
// from the fleet's epoch timeline (trace.Timeline CSV: durations in µs).
func timelineStats(r *run, text string) error {
	rows, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return err
	}
	if len(rows) < 2 {
		return fmt.Errorf("no epochs recorded")
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	get := func(row []string, name string) float64 {
		v, _ := strconv.ParseFloat(row[col[name]], 64)
		return v
	}
	n := float64(len(rows) - 1)
	var stops []float64
	sums := map[string]float64{}
	inflightMax := 0.0
	for _, row := range rows[1:] {
		stops = append(stops, get(row, "stop_us")/1000)
		for _, c := range []string{"stop_us", "freeze_us", "memcopy_us", "sockcoll_us", "state_bytes", "dirty_pages", "transfer_us", "ack_us", "commit_us", "wire_bytes"} {
			sums[c] += get(row, c)
		}
		inflightMax = max(inflightMax, get(row, "inflight"))
	}
	sort.Float64s(stops)
	r.virt("criu.stop_ms_mean", sums["stop_us"]/n/1000)
	r.virt("criu.stop_ms_p50", percentile(stops, 50))
	r.virt("criu.stop_ms_p90", percentile(stops, 90))
	r.virt("criu.freeze_wait_ms", sums["freeze_us"]/n/1000)
	r.virt("criu.mem_copy_ms", sums["memcopy_us"]/n/1000)
	r.virt("criu.sock_collect_ms", sums["sockcoll_us"]/n/1000)
	r.virt("criu.state_mb_per_epoch", sums["state_bytes"]/n/(1<<20))
	r.virt("simkernel.dirty_pages_per_epoch", sums["dirty_pages"]/n)
	r.virt("core.stage.transfer_ms", sums["transfer_us"]/n/1000)
	r.virt("core.stage.await_ack_ms", sums["ack_us"]/n/1000)
	r.virt("core.stage.release_output_ms", sums["commit_us"]/n/1000)
	r.virt("core.wire_mb_per_epoch", sums["wire_bytes"]/n/(1<<20))
	r.virt("core.inflight_max", inflightMax)
	return nil
}
