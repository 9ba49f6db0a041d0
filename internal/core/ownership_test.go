package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/core"
	"nilicon/internal/criu"
	"nilicon/internal/faultinject"
	"nilicon/internal/simtime"
)

// Page-buffer ownership (DESIGN.md §8): every buffer a replica's store
// displaces goes back to the page pool, to be refilled by a later
// checkpoint, clone or decode, unless another store key still holds it.
// Recycling a buffer that is still referenced lets a later checkpoint
// overwrite committed state in place. These tests run many epochs of
// that reuse and then compare every committed page with the primary's
// memory byte for byte.

// forEachResidentPage visits every resident page of the container's
// processes.
func forEachResidentPage(ctr *container.Container, fn func(pi int, pn uint64, data []byte)) int {
	n := 0
	for pi, p := range ctr.Procs {
		for _, v := range p.Mem.VMAs() {
			for pn := v.Start / 4096; pn < v.End/4096; pn++ {
				if data := p.Mem.PageData(pn); data != nil {
					fn(pi, pn, data)
					n++
				}
			}
		}
	}
	return n
}

// settle stops the load and lets the chain commit checkpoints of the
// now-quiet memory, so the primary's memory is the committed epoch's.
func (env *orphanEnv) settle(t *testing.T) {
	t.Helper()
	env.repl.Ctr.Disconnect()
	env.clock.RunFor(500 * simtime.Millisecond)
}

// checkCommitted compares every resident page of the primary with the
// committed copy of each listed replica slot. On a fault-free run it
// also requires that no replica ever rejected an image: a delta or dedup
// frame decoded against an overwritten committed page fails its hash
// check, and the resulting resynchronization would rebuild the store
// and hide the damage from the page comparison.
func (env *orphanEnv) checkCommitted(t *testing.T, faultFree bool, slots ...int) {
	t.Helper()
	if n := env.repl.Resyncs.Value(); faultFree && n != 0 {
		t.Fatalf("a fault-free run resynchronized %d times", n)
	}
	for _, slot := range slots {
		agent := env.repl.ReplicaAgent(slot)
		com, ok := agent.CommittedEpoch()
		if !ok || com+3 < env.repl.Epochs() {
			t.Fatalf("slot %d committed through epoch %d of %d", slot, com, env.repl.Epochs())
		}
		pages := forEachResidentPage(env.repl.Ctr, func(pi int, pn uint64, want []byte) {
			if got := agent.CommittedPage(criu.PageKey(pi, pn)); !bytes.Equal(got, want) {
				t.Fatalf("slot %d, proc %d page %#x: committed copy differs from the primary's memory at epoch %d", slot, pi, pn, com)
			}
		})
		t.Logf("slot %d: %d pages identical at epoch %d of %d", slot, pages, com, env.repl.Epochs())
	}
}

// pageBufAllocRatio runs the loaded chain for d and returns the bytes
// the process allocated per byte of page content the primary shipped to
// one replica. Every shipped page is copied out of the container once
// and, in a chain, cloned once per further replica; with every displaced
// buffer recycled, all of those copies reuse pooled buffers.
func pageBufAllocRatio(env *orphanEnv, d simtime.Duration) float64 {
	pages0 := env.repl.FullFrames.Value() + env.repl.DeltaFrames.Value() +
		env.repl.ZeroFrames.Value() + env.repl.DedupFrames.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	env.clock.RunFor(d)
	runtime.ReadMemStats(&m1)
	pages := env.repl.FullFrames.Value() + env.repl.DeltaFrames.Value() +
		env.repl.ZeroFrames.Value() + env.repl.DedupFrames.Value() - pages0
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pages*4096)
}

// checkAllocRatio fails if the chain allocated a byte or more per byte
// of page content shipped: with the loop closed, the collector's copies
// and the chain's clones all reuse buffers the replicas' stores
// displaced. A store that drops its displaced buffers, or a Clone that
// allocates its copies, costs at least one fresh buffer per shipped
// page. The race detector's sync.Pool drops a random quarter of the
// buffers put back, so the bound only holds without it.
func checkAllocRatio(t *testing.T, env *orphanEnv, d simtime.Duration) {
	t.Helper()
	ratio := pageBufAllocRatio(env, d)
	if ratio >= 1 && !raceEnabled {
		t.Fatalf("allocated %.2f bytes per shipped page byte, want < 1: displaced page buffers are not being reused", ratio)
	}
	t.Logf("allocated %.2f bytes per shipped page byte", ratio)
}

func TestPageOwnershipAllOpts(t *testing.T) {
	env := newRedisChainEnv(t, 2, nil)
	env.clock.RunFor(simtime.Second)
	checkAllocRatio(t, env, 2*simtime.Second)
	env.settle(t)
	env.checkCommitted(t, true, 0)
}

// With dedup on, a dedup frame decodes to a copy of its donor. Were it
// the donor's stored buffer itself, the store would hold it under two
// keys, and recycling it when one key displaces it would corrupt the
// other.
func TestPageOwnershipDeltaDedup(t *testing.T) {
	env := newRedisChainEnv(t, 2, func(cfg *core.Config) { cfg.Opts = core.DeltaOpts() })
	env.clock.RunFor(2 * simtime.Second)
	r := env.repl
	if r.DedupFrames.Value() == 0 || r.DeltaFrames.Value() == 0 {
		t.Fatalf("frames full=%d delta=%d zero=%d dedup=%d: the run must exercise deltas and dedup references",
			r.FullFrames.Value(), r.DeltaFrames.Value(), r.ZeroFrames.Value(), r.DedupFrames.Value())
	}
	env.settle(t)
	env.checkCommitted(t, true, 0)
}

// In a 3-wide chain every further replica commits a Clone built from
// pooled buffers; both replicas' stores must stay intact.
func TestPageOwnershipReplayChain(t *testing.T) {
	env := newRedisChainEnv(t, 3, func(cfg *core.Config) { cfg.Opts = core.ReplayOpts() })
	env.clock.RunFor(simtime.Second)
	checkAllocRatio(t, env, 2*simtime.Second)
	env.settle(t)
	env.checkCommitted(t, true, 0, 1)
}

// One run through the protocol's store-replacing paths: a link cut that
// forces a full resynchronization, a partition that heals while the
// backup's promotion is pending (the lease aborts it), and finally a
// failover, whose restored memory must equal the primary's. The clients
// follow the promoted replica, so its memory is compared the moment it
// is restored, while it is still frozen.
func TestPageOwnershipResyncHealFailover(t *testing.T) {
	var env *orphanEnv
	restored := 0
	env = newRedisChainEnv(t, 2, func(cfg *core.Config) {
		cfg.Opts = core.DeltaOpts()
		cfg.Lease = core.DefaultLease()
		cfg.BackupBeat = true
		reattach := cfg.Reattach
		cfg.Reattach = func(rc core.RestoredContainer, state any) {
			restored = forEachResidentPage(env.repl.Ctr, func(pi int, pn uint64, want []byte) {
				if got := rc.Procs[pi].Mem.PageData(pn); !bytes.Equal(got, want) {
					t.Fatalf("proc %d page %#x: restored memory differs from the primary's at the committed epoch", pi, pn)
				}
			})
			reattach(rc, state)
		}
	})
	r, cl, b := env.repl, env.views[0], env.repl.Backup
	env.clock.RunFor(simtime.Second)

	cl.ReplLink.SetDown(true)
	env.clock.RunFor(50 * simtime.Millisecond)
	cl.ReplLink.SetDown(false)
	env.clock.RunFor(simtime.Second)
	if r.Resyncs.Value() == 0 {
		t.Fatal("the link cut lost no epochs: resync not exercised")
	}

	cl.ReplLink.SetDown(true)
	cl.AckLink.SetDown(true)
	for i := 0; i < 300 && !b.PromotionPending(); i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if !b.PromotionPending() {
		t.Fatal("backup never convicted the partitioned primary")
	}
	cl.ReplLink.SetDown(false)
	cl.AckLink.SetDown(false)
	env.clock.RunFor(simtime.Second)
	if b.Recovered() || b.PromotionPending() {
		t.Fatalf("promotion not aborted on heal: recovered=%v pending=%v", b.Recovered(), b.PromotionPending())
	}

	env.settle(t)
	env.checkCommitted(t, false, 0)

	faultinject.FailStop(r)
	env.clock.RunFor(simtime.Second)
	if !b.Recovered() || b.RecoverError() != nil {
		t.Fatalf("no failover: recovered=%v err=%v", b.Recovered(), b.RecoverError())
	}
	if restored == 0 {
		t.Fatal("restored container never reattached")
	}
	t.Logf("%d pages restored identical", restored)
}
