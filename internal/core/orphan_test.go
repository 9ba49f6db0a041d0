package core_test

import (
	"runtime"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/criu"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// orphanEnv is a Redis server protected by a chain of the given width
// (2 = the classic pair) under the workload's calibrated default
// configuration, driven by one batch client.
type orphanEnv struct {
	clock *simtime.Clock
	views []*core.Cluster
	repl  *core.Replicator
}

func newOrphanEnv(t *testing.T, replicas int) *orphanEnv {
	t.Helper()
	return newRedisChainEnv(t, replicas, nil)
}

// newRedisChainEnv is newOrphanEnv with a hook that adjusts the
// configuration (option set, lease) before the replicator starts.
func newRedisChainEnv(t *testing.T, replicas int, tweak func(*core.Config)) *orphanEnv {
	t.Helper()
	sv := workloads.Redis()
	prof := sv.Profile()
	clock := simtime.NewClock()
	views := core.NewChainViews(clock, core.ClusterParams{}, replicas)
	ctr := views[0].NewProtectedContainer(prof.Name, "10.0.0.10", 4)
	sv.Install(ctr)
	cfg := core.DefaultConfig()
	cfg.Replicas = replicas
	cfg.ExtraStopPerCheckpoint = prof.TotalExtraStop()
	cfg.RuntimeTaxPerEpoch = prof.RuntimeTax
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		fresh, err := workloads.ByName(prof.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Reattach(rc, state); err != nil {
			t.Errorf("reattach: %v", err)
		}
	}
	if tweak != nil {
		tweak(&cfg)
	}
	repl := core.NewChainReplicator(views, ctr, cfg)
	repl.Start()
	sv.NewClients(views[0], "10.0.0.10", 1, 33)
	return &orphanEnv{clock: clock, views: views, repl: repl}
}

// liveHeap returns the live heap after a full collection. Two cycles:
// buffers recycled through a sync.Pool survive the first one in the
// pool's victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestOrphanedPrimaryMemoryBounded: the paper's fail-stop fault cuts the
// primary off but leaves it running, so it keeps checkpointing — a full
// resync image per epoch — into links that drop everything. Each dropped
// image must be released at the drop; retaining them grew the heap by
// ~200 MB per 250 ms of virtual time and OOM-killed the suite.
func TestOrphanedPrimaryMemoryBounded(t *testing.T) {
	env := newOrphanEnv(t, 2)
	env.clock.RunFor(2 * simtime.Second)
	preCut := liveHeap()

	faultinject.FailStop(env.repl)
	env.clock.RunFor(simtime.Second)
	if !env.repl.Backup.Recovered() {
		t.Fatal("backup did not take over")
	}
	at1s, epochs1s := env.repl.RetainedBytes(), env.repl.Epochs()
	// Every checkpoint after the cut is a full resync image.
	fullImage := uint64(env.repl.LastStats.StateBytes)

	env.clock.RunFor(9 * simtime.Second)
	at10s := env.repl.RetainedBytes()
	heap := liveHeap()
	// The cut adds two full images' worth of live memory: the promoted
	// replica's restored container, and the orphan's one image queued
	// behind the cut link (its RetainedBytes). Half an image of headroom
	// covers transient state. Retaining every dropped image instead adds
	// one full image per orphaned epoch.
	ceiling := preCut + 2*fullImage + fullImage/2
	t.Logf("retained %d MB at 1 s, %d MB at 10 s after the cut; live heap %d MB pre-cut, %d MB at 10 s (ceiling %d MB); full image %d MB; %d orphaned epochs",
		at1s>>20, at10s>>20, preCut>>20, heap>>20, ceiling>>20, fullImage>>20, env.repl.InflightEpochs())
	if orphaned := env.repl.Epochs() - epochs1s; orphaned < 20 {
		t.Fatalf("orphan took only %d checkpoints in 9 s; the test needs it checkpointing throughout", orphaned)
	}
	if at10s > at1s {
		t.Fatalf("retained bytes climbed from %d at 1 s to %d at 10 s after the cut", at1s, at10s)
	}
	if heap > ceiling {
		t.Fatalf("live heap %d MB at 10 s after the cut, ceiling %d MB (pre-cut %d MB, full image %d MB)",
			heap>>20, ceiling>>20, preCut>>20, fullImage>>20)
	}
}

// TestChainSurvivorsIntactUnderReleasedBuffers: in a 3-wide chain with
// only slot 0's links cut, every epoch's slot-0 transfer drops and its
// page buffers go back to the pool, to be refilled by the next
// checkpoint. The surviving replica commits clones of those images; its
// committed pages must stay hash-identical to the primary's memory, so
// no recycled buffer is ever aliased by a delivered image.
func TestChainSurvivorsIntactUnderReleasedBuffers(t *testing.T) {
	env := newOrphanEnv(t, 3)
	// No self-promotion on slot 0's stale view: the test is about the
	// surviving replica's state, not a failover.
	env.repl.SetExternalArbiter(true)
	env.clock.RunFor(2 * simtime.Second)
	cutAt := env.repl.Epochs()
	env.views[0].ReplLink.SetDown(true)
	env.views[0].AckLink.SetDown(true)
	env.clock.RunFor(3 * simtime.Second)
	if released := env.repl.Epochs() - cutAt; released < 10 {
		t.Fatalf("only %d slot-0 transfers dropped after the cut", released)
	}

	// Stop the load so memory settles, then let the survivor commit a
	// checkpoint of the settled state.
	ctr := env.repl.Ctr
	ctr.Disconnect()
	env.clock.RunFor(500 * simtime.Millisecond)
	survivor := env.repl.ReplicaAgent(1)
	com, ok := survivor.CommittedEpoch()
	if !ok || com+3 < env.repl.Epochs() {
		t.Fatalf("survivor committed through %d of %d epochs", com, env.repl.Epochs())
	}
	pages := 0
	for pi, p := range ctr.Procs {
		for _, v := range p.Mem.VMAs() {
			for pn := v.Start / 4096; pn < v.End/4096; pn++ {
				want := p.Mem.PageData(pn)
				if want == nil {
					continue
				}
				got := survivor.CommittedPage(criu.PageKey(pi, pn))
				if got == nil || criu.HashPage(got) != criu.HashPage(want) {
					t.Fatalf("proc %d page %#x: survivor's committed copy differs from the primary's memory", pi, pn)
				}
				pages++
			}
		}
	}
	t.Logf("%d pages identical; survivor committed through epoch %d of %d", pages, com, env.repl.Epochs())
}
