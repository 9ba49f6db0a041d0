package chaos

// Scripted split-brain campaigns (DESIGN.md §10): unlike the randomized
// schedules, these two scenarios pin the exact fault geometry the lease
// protocol exists for and assert the policy-level outcomes on top of
// the usual oracles.
//
//   - "partition-heal": a full partition outlives the lease term AND the
//     backup's promotion barrier, so both replicas are alive and
//     convinced of their role when the partition heals mid-election.
//     The primary must self-fence before the backup's network goes
//     live, the promoted backup's supersede notice must stand the old
//     primary down after the heal, and at no simulated instant may both
//     serve. Both degradation policies must pass: Availability's
//     unprotect timer must be cancelled by the supersede, never raced.
//
//   - "ack-outage": a sustained one-way cut of the backup→primary link.
//     The backup hears every heartbeat (so it must never promote) while
//     the primary's grants stop arriving. StrictSafety keeps the
//     primary fenced for the whole outage and resumes on heal;
//     Availability declares the pair unprotected after
//     UnprotectedAfter, serves without acks, and the campaign
//     re-protects it with a full resync once the link heals.
//
// Run with Config.PreLease the same seed demonstrates the pre-lease
// detector's dual primary: the partition-heal backup promotes on
// staleness alone while the old primary is still authorized to release
// — the at-most-one-serving oracle fails by hundreds of sampled
// instants. That regression is the justification for the whole layer.

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// Split-brain scenarios.
const (
	ScenarioPartitionHeal = "partition-heal"
	ScenarioAckOutage     = "ack-outage"
)

// SplitBrainConfig parameterizes one scripted split-brain campaign.
type SplitBrainConfig struct {
	Seed     int64
	Scenario string // ScenarioPartitionHeal | ScenarioAckOutage
	Degrade  core.DegradePolicy
	// PreLease disables the lease, reproducing the pre-lease detector
	// (the regression configuration; expected to fail partition-heal).
	PreLease bool
	// Replay runs the scenario under the HyCoR-mode record/replay
	// configuration (core.ReplayOpts) instead of core.AllOpts, so the
	// scripted lease geometries also exercise log-commit-gated release.
	Replay bool
	// Shards / Workers set the engine's lane count and window-drain
	// goroutines (see Config.Shards and Config.Workers).
	Shards  int
	Workers int
}

// Scripted scenario geometry. The partition must outlive the promotion
// barrier (lastGrantSent + Duration + SkewMargin ≈ 255 ms past the cut)
// so the backup genuinely promotes mid-partition; the ack outage must
// outlive the fence (≈120 ms) plus UnprotectedAfter (1 s) so the
// Availability policy genuinely triggers.
const (
	sbFaultAt      = warmup + 300*simtime.Millisecond
	sbPartitionMin = 400 * simtime.Millisecond
	sbPartitionMax = 700 * simtime.Millisecond
	sbPartitionRun = 1500 * simtime.Millisecond
	sbAckOutage    = 1400 * simtime.Millisecond
	sbAckRun       = 2200 * simtime.Millisecond
)

// RunSplitBrain executes one scripted split-brain campaign.
func RunSplitBrain(sb SplitBrainConfig) Result {
	cfg := Config{
		Seed:     sb.Seed,
		Opts:     core.AllOpts(),
		OptName:  "all",
		Terminal: TerminalNone,
		PreLease: sb.PreLease,
		Degrade:  sb.Degrade,
		Shards:   sb.Shards,
		Workers:  sb.Workers,
	}
	if sb.Replay {
		cfg.Opts = core.ReplayOpts()
		cfg.OptName = "replay"
	}
	c := &campaign{cfg: cfg}
	switch sb.Scenario {
	case ScenarioPartitionHeal:
		c.cfg.Duration = sbPartitionRun
		c.sched = schedule{
			events:   []event{{At: sbFaultAt, Kind: "partition", For: sbOutage(sb.Seed)}},
			terminal: TerminalNone,
		}
		c.postSettle = c.afterPartitionHeal
	case ScenarioAckOutage:
		c.cfg.Duration = sbAckRun
		c.sched = schedule{
			events:   []event{{At: sbFaultAt, Kind: "oneway-bp", For: sbAckOutage}},
			terminal: TerminalNone,
		}
		c.postSettle = c.afterAckOutage
	default:
		panic("chaos: unknown split-brain scenario " + sb.Scenario)
	}
	c.build()
	c.emitHeader()
	fmt.Fprintf(&c.trace, "splitbrain scenario=%s\n", sb.Scenario)
	c.execute()
	return c.finish()
}

// VerifySplitBrainSeed runs the campaign twice and adds the determinism
// oracle: byte-identical traces.
func VerifySplitBrainSeed(sb SplitBrainConfig) Result {
	a := RunSplitBrain(sb)
	b := RunSplitBrain(sb)
	ok := a.Trace == b.Trace
	detail := "two runs produced byte-identical traces"
	if !ok {
		detail = fmt.Sprintf("trace mismatch: run1 %d bytes, run2 %d bytes", len(a.Trace), len(b.Trace))
	}
	a.Verdicts = append(a.Verdicts, Verdict{Oracle: "determinism", OK: ok, Detail: detail})
	a.Passed = a.Passed && ok
	return a
}

// sbOutage draws the partition length from the seed (same splitmix64
// decorrelation as the randomized schedules, distinct stream constant).
func sbOutage(seed int64) simtime.Duration {
	z := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	rng := simtime.NewRand(int64(z >> 1))
	return sbPartitionMin + simtime.Duration(rng.Int63n(int64(sbPartitionMax-sbPartitionMin)))
}

// afterPartitionHeal asserts the lease-mode outcome of a partition that
// outlived the election: exactly one failover, and the old primary —
// which self-fenced before the backup's network went live — stood down
// on the promoted side's supersede notice after the heal. Skipped under
// PreLease (the regression configuration has no fence machinery; its
// failure shows up in the at-most-one-serving verdict instead).
func (c *campaign) afterPartitionHeal() {
	if c.cfg.PreLease {
		return
	}
	state := c.repl.LeaseState()
	ok := c.failovers == 1 &&
		state == core.LeaseSuperseded &&
		!c.repl.Serving() &&
		c.repl.SelfFences.Value() >= 1
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "supersede", OK: ok,
		Detail: fmt.Sprintf("failovers=%d lease=%s serving=%v fences=%d",
			c.failovers, state, c.repl.Serving(), c.repl.SelfFences.Value()),
	})
}

// afterAckOutage asserts the degradation policy's outcome for a
// backup→primary ack outage the backup heard heartbeats through: the
// backup must never have promoted, and the primary must have fenced.
// StrictSafety must be holding the (re-granted) lease again after the
// heal; Availability must have declared the pair unprotected, which the
// campaign then repairs with a full in-place re-protection.
func (c *campaign) afterAckOutage() {
	if c.cfg.PreLease {
		return
	}
	fences := c.repl.SelfFences.Value()
	if c.cfg.Degrade == core.Availability {
		ok := c.failovers == 0 &&
			c.repl.Unprotected() &&
			c.repl.Unprotects.Value() == 1 &&
			fences >= 1
		c.verdicts = append(c.verdicts, Verdict{
			Oracle: "degrade-policy", OK: ok,
			Detail: fmt.Sprintf("availability: failovers=%d lease=%s unprotects=%d fences=%d",
				c.failovers, c.repl.LeaseState(), c.repl.Unprotects.Value(), fences),
		})
		c.reprotectUnprotected()
		return
	}
	ok := c.failovers == 0 &&
		c.repl.LeaseState() == core.LeaseHeld &&
		fences >= 1
	c.verdicts = append(c.verdicts, Verdict{
		Oracle: "degrade-policy", OK: ok,
		Detail: fmt.Sprintf("strict: failovers=%d lease=%s fences=%d",
			c.failovers, c.repl.LeaseState(), fences),
	})
}

// reprotectUnprotected repairs an Availability-mode unprotected pair
// after the link heals: stop the stale machinery on both ends and
// re-protect the still-running container in place (same hosts, same
// roles) with a full resync, exactly as the issue's degraded-mode
// policy prescribes. Convergence of the new backup's initial sync is an
// oracle.
func (c *campaign) reprotectUnprotected() {
	c.repl.Stop()
	c.repl.Backup.Halt()
	view := &core.Cluster{
		Clock:    c.clock,
		Switch:   c.cl.Switch,
		Primary:  c.cl.Primary,
		Backup:   c.cl.Backup,
		ReplLink: c.cl.ReplLink,
		AckLink:  c.cl.AckLink,
		Xfer:     c.cl.Xfer,
	}
	cfg := core.DefaultConfig()
	cfg.Opts = c.cfg.Opts
	// The container keeps the keep-alive task from its original Start.
	cfg.KeepAlive = false
	if !c.cfg.PreLease {
		cfg.Lease = core.DefaultLease()
		cfg.Degrade = c.cfg.Degrade
	}
	cfg.Reattach = func(rc core.RestoredContainer, state any) {
		c.app.RestoreState(state)
		c.app.attach(rc)
	}
	cfg.OnRecovered = c.onRecovered
	repl, err := core.ReprotectOnto(view, c.ctr, c.cl.Primary.Disk, cfg)
	if err != nil {
		c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: false,
			Detail: "reprotect-unprotected: " + err.Error()})
		return
	}
	c.cl = view
	c.repl = repl
	repl.Start()
	c.eventf("reprotected-unprotected")

	deadline := c.clock.Now().Add(convergeIn)
	committed := func() bool {
		_, ok := c.repl.Backup.CommittedEpoch()
		return ok
	}
	for !committed() && c.clock.Now() < deadline {
		c.clock.RunFor(5 * simtime.Millisecond)
	}
	ok := committed()
	detail := fmt.Sprintf("re-protection resync committed at t=%d lease=%s",
		int64(c.clock.Now()), c.repl.LeaseState())
	if !ok {
		detail = fmt.Sprintf("re-protection resync did not commit within %s", convergeIn)
	}
	c.verdicts = append(c.verdicts, Verdict{Oracle: "convergence", OK: ok, Detail: detail})
}
