package main

import (
	"fmt"
	"math"
	"sort"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/faultinject"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

const (
	serverIP = "10.0.0.10"
	// sloWindow, sloTarget and sloQuantile are the traffic judge's
	// default SLO (traffic.SLO{}.WithDefaults()), applied here to the
	// closed-loop server workloads.
	sloWindow   = 100 * simtime.Millisecond
	sloTarget   = 100.0 // ms
	sloQuantile = 99.9
)

// server is one single-pair deployment: a cluster, the protected
// container with the workload installed, and (unless stock) its
// replicator.
type server struct {
	clock *simtime.Clock
	cl    *core.Cluster
	ctr   *container.Container
	wl    *workloads.Server
	repl  *core.Replicator

	recovered *core.RecoveryStats
}

// newServer builds the deployment the way the paper's experiments do:
// core.DefaultConfig() plus the profile's calibrated residual stop time
// and runtime tax, and a fresh workload instance to reattach on
// failover.
func newServer(mk func() *workloads.Server, replicate bool) *server {
	s := &server{clock: simtime.NewClock(), wl: mk()}
	prof := s.wl.Profile()
	s.cl = core.NewCluster(s.clock, core.ClusterParams{})
	s.ctr = s.cl.NewProtectedContainer(prof.Name, serverIP, max(1, prof.Procs*prof.ThreadsPer))
	s.wl.Install(s.ctr)
	if !replicate {
		return s
	}
	cfg := core.DefaultConfig()
	cfg.ExtraStopPerCheckpoint = prof.TotalExtraStop()
	cfg.RuntimeTaxPerEpoch = prof.RuntimeTax
	cfg.Reattach = func(ctr core.RestoredContainer, state any) {
		// A failed reattach is recorded in the restored server's own
		// error list, which the correctness gate reads.
		_ = mk().Reattach(ctr, state)
	}
	cfg.OnRecovered = func(_ core.RestoredContainer, st core.RecoveryStats) { s.recovered = &st }
	s.repl = core.NewReplicator(s.cl, s.ctr, cfg)
	return s
}

// sortedMs converts latencies in seconds to sorted milliseconds.
func sortedMs(secs []float64) []float64 {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1000
	}
	sort.Float64s(ms)
	return ms
}

// latencyStats reports the median, p99 and p99.9 of a latency sample
// (seconds) with nearest-rank percentiles.
func latencyStats(r *run, secs []float64) {
	ms := sortedMs(secs)
	r.res.Samples["client"] = len(ms)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 50}, {"p99", 99}, {"p999", 99.9}} {
		r.virt("client_"+q.name+"_ms", percentile(ms, q.p))
	}
	// A percentile is reported only where at least ten samples lie
	// beyond it.
	if len(ms) < 10000 {
		r.problem("%d latency samples, fewer than the 10000 p99.9 needs", len(ms))
	}
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// windowJudge applies the SLO to closed-loop clients: each window of
// completions violates it if its p99.9 exceeds the target, or if it saw
// no completion at all (closed-loop clients always have a request
// outstanding, so silence is an outage).
type windowJudge struct {
	windows, bad int
}

func (j *windowJudge) add(secs []float64) {
	j.windows++
	if len(secs) == 0 {
		j.bad++
		return
	}
	if percentile(sortedMs(secs), sloQuantile) > sloTarget {
		j.bad++
	}
}

func (j *windowJudge) report(r *run) {
	r.virt("slo_bad_window_pct", 100*float64(j.bad)/float64(max(1, j.windows)))
	r.res.Samples["slo_windows"] = j.windows
}

// stepper runs a server's clock and closes an SLO window every 100 ms
// of virtual time: it feeds the window's completed-request latencies to
// the judge and keeps the ones the percentiles cover, and samples the
// replicator's in-flight epochs and the live heap. windowEnd must be set
// to the end of the first window; spans should be whole windows.
type stepper struct {
	r     *run
	s     *server
	sets  []*workloads.ClientSet // sets[0] is the latency-measured set
	judge windowJudge
	seen  int
	// kept holds the latencies (seconds) the percentiles cover. Once
	// faultAt is set, only requests sent before the fault are kept.
	kept        []float64
	faultAt     simtime.Time
	windowEnd   simtime.Time
	inflightMax int
}

// advance runs the clock for d, closing the SLO window if it has ended.
func (st *stepper) advance(d simtime.Duration) {
	st.s.clock.RunFor(d)
	now := st.s.clock.Now()
	if now < st.windowEnd {
		return
	}
	st.windowEnd = st.windowEnd.Add(sloWindow)
	lat := st.sets[0].Latencies.Samples()
	fresh := lat[st.seen:]
	st.seen = len(lat)
	st.judge.add(fresh)
	for _, l := range fresh {
		// Closed-loop clients send nothing between the fault and
		// recovery, and recovery takes longer than one window, so a
		// request that completed in this window was sent before the
		// fault exactly when it is older than the time since the fault
		// less one window.
		if st.faultAt == 0 || l > (now.Sub(st.faultAt)-sloWindow).Seconds() {
			st.kept = append(st.kept, l)
		}
	}
	if st.s.repl != nil {
		st.inflightMax = max(st.inflightMax, st.s.repl.InflightEpochs())
	}
	st.r.sampleHeap(now)
}

// runFor advances the clock by d, window edge by window edge.
func (st *stepper) runFor(d simtime.Duration) {
	end := st.s.clock.Now().Add(d)
	for now := st.s.clock.Now(); now < end; now = st.s.clock.Now() {
		st.advance(min(st.windowEnd.Sub(now), end.Sub(now)))
	}
}

// completed sums completed requests over the stepper's client sets.
func (st *stepper) completed() int64 {
	var n int64
	for _, set := range st.sets {
		n += set.Completed
	}
	return n
}

// checkClients applies the servers' correctness gate to client sets:
// no content errors and no reset connections.
func checkClients(r *run, sets ...*workloads.ClientSet) {
	for _, set := range sets {
		r.res.Attempted += set.Completed + int64(set.Resets)
		r.res.Failed += int64(len(set.Errors) + set.Resets)
		if n := len(set.Errors); n > 0 {
			r.problem("%d client content errors, first: %s", n, set.Errors[0])
		}
		if set.Resets > 0 {
			r.problem("%d connections reset", set.Resets)
		}
	}
}

// replicatorStats reports the criu, simkernel and core per-layer
// metrics accumulated since the last ResetMeasurement.
func replicatorStats(r *run, repl *core.Replicator, span simtime.Duration, backupBusy simtime.Duration) {
	ms := func(s *metrics.Stream) float64 { return s.Mean() * 1000 }
	r.virt("criu.stop_ms_mean", ms(&repl.StopTimes))
	r.virt("criu.stop_ms_p50", repl.StopTimes.Percentile(50)*1000)
	r.virt("criu.stop_ms_p90", repl.StopTimes.Percentile(90)*1000)
	r.virt("criu.freeze_wait_ms", ms(&repl.FreezeWaits))
	r.virt("criu.sock_collect_ms", ms(&repl.SockCollects))
	r.virt("criu.thread_collect_ms", ms(&repl.ThreadColls))
	r.virt("criu.vma_collect_ms", ms(&repl.VMACollects))
	r.virt("criu.mem_copy_ms", ms(&repl.MemCopies))
	r.virt("criu.state_mb_per_epoch", repl.StateBytes.Mean()/(1<<20))
	r.virt("simkernel.dirty_pages_per_epoch", repl.DirtyPages.Mean())
	r.virt("core.wire_mb_per_epoch", repl.BytesOnWire.Mean()/(1<<20))
	r.virt("core.epochs", float64(repl.Epochs()))
	r.virt("core.resyncs", float64(repl.Resyncs.Value()))
	r.virt("core.backup_cpu_cores", (repl.Backup.CPUBusy-backupBusy).Seconds()/span.Seconds())
	for s, name := range stageNames {
		r.virt("core.stage."+name+"_ms", ms(&repl.StageTimes[s]))
	}
}

// stageNames are the metric names of the core.Stage values, in order.
var stageNames = [core.NumStages]string{
	core.StageBlockInput:    "block_input",
	core.StageFreezeCollect: "freeze_collect",
	core.StageThaw:          "thaw",
	core.StageTransfer:      "transfer",
	core.StageAwaitAck:      "await_ack",
	core.StageReleaseOutput: "release_output",
}

// --- node-steady -------------------------------------------------------------

const (
	nodeWarmup  = simtime.Second
	nodeMeasure = 13 * simtime.Second
)

// nodeSteady is the paper's Node profile (128 closed-loop clients, 30k
// pages, 100 dirty pages per request) under core.DefaultConfig(), and a
// Stock run of the same span and seed for the Figure 3 overhead. The
// seed draws the client streams, the client count around the paper's
// 128 and the instant the clients arrive against the epoch clock.
func nodeSteady(r *run, seed int64) {
	rng := simtime.NewRand(seed)
	phase := simtime.Duration(rng.Int63n(int64(30 * simtime.Millisecond)))
	// Closed-loop latency locks to the 30 ms epoch grid; without a
	// seeded client count within two of the paper's 128 the results would
	// not depend on the seed at all.
	clients := workloads.Node().Profile().Clients - 2 + rng.Intn(5)
	r.res.Shape = fmt.Sprintf("node: %d closed-loop clients arriving at %s, warmup %s, measure %s, stock + NiLiCon",
		clients, phase, nodeWarmup, nodeMeasure)

	stock := newServer(workloads.Node, false)
	nl := newServer(workloads.Node, true)
	r.setupDone()

	// Stock: throughput only.
	stockSet := stock.wl.NewClients(stock.cl, serverIP, clients, seed)
	stock.clock.RunFor(nodeWarmup)
	stockSet.BeginWindow()
	stock.clock.RunFor(nodeMeasure)
	stockTput := stockSet.WindowThroughput()
	r.span("stock")

	nl.repl.Start()
	nl.clock.RunFor(phase)
	set := nl.wl.NewClients(nl.cl, serverIP, clients, seed)
	nl.clock.RunFor(nodeWarmup)
	r.span("warmup")
	set.BeginWindow()
	nl.repl.ResetMeasurement()
	st := &stepper{r: r, s: nl, sets: []*workloads.ClientSet{set}, seen: set.Latencies.N()}
	st.windowEnd = nl.clock.Now().Add(sloWindow)
	backupBusy := nl.repl.Backup.CPUBusy
	completedAt := set.Completed
	st.runFor(nodeMeasure)
	tput := set.WindowThroughput()
	r.span("measure")

	nl.repl.Stop()
	latencyStats(r, st.kept)
	st.judge.report(r)
	r.virt("overhead_pct", 100*(1-tput/stockTput))
	r.virt("throughput_rps", tput)
	r.virt("stock_throughput_rps", stockTput)
	replicatorStats(r, nl.repl, nodeMeasure, backupBusy)
	r.virt("core.inflight_max", float64(st.inflightMax))
	r.virt("simtime.events", float64(stock.clock.Executed()+nl.clock.Executed()))
	r.virt("workloads.completed", float64(set.Completed-completedAt))
	r.virt("cluster.failovers", 0)

	checkClients(r, set, stockSet)
	if len(nl.wl.AppErrors()) > 0 {
		r.problem("server errors: %v", nl.wl.AppErrors())
	}
	if tput <= 0 || stockTput <= 0 {
		r.problem("no throughput: stock %.1f, NiLiCon %.1f req/s", stockTput, tput)
	}
	r.span("verify")
}

// --- redis-failstop ----------------------------------------------------------

const (
	redisPreload = 18000 // records, Table II (~100 MB)
	// redisProbes closed-loop probes share Redis with the pipelined
	// stress client; their requests measure the protected service, and
	// the one each has outstanding at the fault measures the failover.
	// With this many probes, those stranded requests are about 2.5% of
	// the samples, so p99 and p99.9 both read the failover tail.
	redisProbes   = 256
	redisPreFault = 12 * simtime.Second
	// redisPostFault is long enough after the fault for the orphaned
	// primary's retained state to dominate peak memory.
	redisPostFault = 3 * simtime.Second
)

// redisFailstop is §VII-A / Table II on Redis: the Table II preload, one
// pipelined stress client and KV probe clients, then a fail-stop fault
// (faultinject.FailStop: the primary keeps running, cut off). The
// backup detects the silence, recovers, and the run checks that every
// client's data survived and service resumed. The seed draws the client
// streams, the probe count and the instant the clients arrive against
// the epoch clock, which also sets the fault's phase.
func redisFailstop(r *run, seed int64) {
	rng := simtime.NewRand(seed)
	phase := simtime.Duration(rng.Int63n(int64(30 * simtime.Millisecond)))
	// The probe count moves p50 between seeds; closed-loop latency
	// otherwise locks to the epoch grid.
	nprobes := redisProbes - rng.Intn(3)
	r.res.Shape = fmt.Sprintf("redis: preload %d, 1 stress client + %d probes arriving at %s, fail-stop %s later, %s after",
		redisPreload, nprobes, phase, redisPreFault, redisPostFault)

	s := newServer(workloads.Redis, true)
	s.repl.Start()
	prof := s.wl.Profile()
	loader := workloads.NewLoader(s.cl, prof, serverIP, redisPreload)
	for i := 0; i < 40000 && !loader.Done(); i++ {
		s.clock.RunFor(5 * simtime.Millisecond)
	}
	if !loader.Done() {
		r.problem("preload did not finish")
	}
	r.setupDone()

	s.clock.RunFor(phase)
	// Every client set numbers its clients from the same address,
	// 10.1.0.1, and the switch routes an address to the stack that
	// claimed it last. The probes go first so that the stress client owns
	// 10.1.0.1; the first probe never connects and sends nothing.
	probes := workloads.NewClientSet(s.cl, prof, serverIP, workloads.KVProbe, nprobes, seed)
	stress := s.wl.NewClients(s.cl, serverIP, 1, seed+100)
	st := &stepper{r: r, s: s, sets: []*workloads.ClientSet{probes, stress}}
	st.windowEnd = s.clock.Now().Add(sloWindow)
	s.repl.ResetMeasurement()
	backupBusy := s.repl.Backup.CPUBusy
	st.runFor(redisPreFault)
	r.span("measure")

	// Per-layer replication stats cover the protected span only; the
	// orphan keeps checkpointing into cut links after the fault.
	replicatorStats(r, s.repl, redisPreFault, backupBusy)

	failAt := s.clock.Now()
	faultinject.FailStop(s.repl)
	st.faultAt = failAt
	before := [2]int64{probes.Completed, stress.Completed}
	var firstReply [2]simtime.Time
	end := failAt.Add(redisPostFault)
	// Step in 1 ms until every client set has its first post-fault
	// reply, then in SLO windows.
	for s.clock.Now() < end && (firstReply[0] == 0 || firstReply[1] == 0) {
		st.advance(simtime.Millisecond)
		for i, set := range st.sets {
			if firstReply[i] == 0 && set.Completed > before[i] {
				firstReply[i] = s.clock.Now()
			}
		}
	}
	progressAt := st.completed()
	if rest := end.Sub(s.clock.Now()); rest > 0 {
		st.runFor(rest)
	}
	r.span("post_fault")

	// The percentiles cover the probe requests sent before the fault.
	// After recovery the mix depends on which client's retransmission
	// lands first (see BASELINE.md), so it is left out.
	latencyStats(r, st.kept)
	st.judge.report(r)
	r.virt("core.inflight_max", float64(st.inflightMax))
	r.virt("simtime.events", float64(s.clock.Executed()))
	r.virt("workloads.completed", float64(st.completed()))

	rec := s.recovered
	r.virt("cluster.failovers", 0)
	switch {
	case rec == nil || !s.repl.Backup.Recovered():
		r.problem("recovery never completed")
	case s.repl.Backup.RecoverError() != nil:
		r.problem("recovery failed: %v", s.repl.Backup.RecoverError())
	case rec.NetworkLiveAt.Sub(failAt) <= sloWindow:
		r.problem("recovery took %s, within one SLO window: the stranded-request split does not hold", rec.NetworkLiveAt.Sub(failAt))
	default:
		r.virt("criu.restore_ms", rec.Restore.Seconds()*1000)
		r.virt("simnet.arp_ms", rec.ARP.Seconds()*1000)
		r.virt("simnet.tcp_resume_ms", rec.TCP.Seconds()*1000)
		r.virt("core.recover_other_ms", rec.Other.Seconds()*1000)
		r.virt("core.detect_ms", rec.DetectedAt.Sub(failAt).Seconds()*1000)
		r.virt("cluster.failovers", 1)
	}
	if firstReply[0] == 0 || firstReply[1] == 0 {
		r.problem("a client set got no reply after the fault")
	} else {
		r.virt("outage_ms", max(firstReply[0], firstReply[1]).Sub(failAt).Seconds()*1000)
	}
	if st.completed() <= progressAt {
		r.problem("no progress after recovery")
	}
	checkClients(r, probes, stress)
	if ctr := s.repl.Backup.RestoredCtr; ctr != nil {
		if sv, ok := ctr.App.(*workloads.Server); ok && len(sv.AppErrors()) > 0 {
			r.problem("restored server errors: %v", sv.AppErrors())
		}
	}
	r.span("verify")
}
