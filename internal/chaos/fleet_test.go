package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
)

// TestFleetCampaignDemo is the acceptance scenario: 8 pairs over 4
// workers plus 2 spares survive 2 concurrent host failures — every
// affected pair fails over or is fenced, re-protects onto the spares,
// and all oracles (output-commit, acked-output, convergence,
// drain-to-zero, determinism) pass.
func TestFleetCampaignDemo(t *testing.T) {
	res := VerifyFleetSeed(FleetConfig{
		Seed:    1,
		Opts:    core.AllOpts(),
		OptName: "all",
		Pairs:   8,
		Workers: 4,
		Spares:  2,
		Kills:   2,
	})
	if !res.Passed {
		t.Fatalf("fleet campaign failed:\n%s", res.Trace)
	}
	if res.Failovers == 0 {
		t.Fatal("campaign killed hosts but no pair failed over")
	}
	if len(res.Verdicts) != 6 {
		t.Fatalf("verdicts = %d, want 6 (output-commit, at-most-one-serving, convergence, acked-output, drain, determinism)", len(res.Verdicts))
	}
	if !strings.Contains(res.Trace, "host-dead") {
		t.Fatalf("trace missing host-death events:\n%s", res.Trace)
	}
	// Two concurrent kills: the two host-dead declarations share one
	// virtual-time instant.
	var deadAt []string
	for _, line := range strings.Split(res.Trace, "\n") {
		if strings.Contains(line, "event host-dead") {
			deadAt = append(deadAt, strings.Fields(line)[0])
		}
	}
	if len(deadAt) != 2 || deadAt[0] != deadAt[1] {
		t.Fatalf("host deaths not concurrent: %v", deadAt)
	}
}

// TestFleetCampaignSeeds sweeps a few seeds at a smaller pool size to
// vary kill timing and victim choice.
func TestFleetCampaignSeeds(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		res := VerifyFleetSeed(FleetConfig{
			Seed:    seed,
			Opts:    core.AllOpts(),
			OptName: "all",
			Pairs:   4,
			Workers: 4,
			Spares:  1,
			Kills:   1,
		})
		if !res.Passed {
			t.Fatalf("seed %d failed:\n%s", seed, res.Trace)
		}
	}
}

// TestFleetZoneKill is the zone failure-domain acceptance scenario:
// 3-replica chains placed zone-anti-affine over 3 zones survive the
// loss of an entire failure domain — every host in the drawn zone,
// spares included, dies in one virtual-time instant. Anti-affinity
// guarantees no chain loses more than one member, so every pair either
// fails over (primary in the dead zone) or fences exactly one slot,
// and all oracles hold.
func TestFleetZoneKill(t *testing.T) {
	res := VerifyFleetSeed(FleetConfig{
		Seed:     1,
		Opts:     core.AllOpts(),
		OptName:  "all",
		Pairs:    4,
		Workers:  6,
		Spares:   3,
		Replicas: 3,
		Zones:    3,
	})
	if !res.Passed {
		t.Fatalf("zone-kill fleet campaign failed:\n%s", res.Trace)
	}
	if !strings.Contains(res.Trace, "zone=") {
		t.Fatalf("trace missing the drawn zone:\n%s", res.Trace)
	}
	// A whole zone of 9 hosts is 3 victims; at least one of the 4
	// chains must have had its primary there across this seed's draw —
	// if not, the scenario under test (chain failover via the fleet's
	// central election) never ran.
	if res.Failovers == 0 {
		t.Fatal("zone kill produced no failovers")
	}
}

// TestFleetReplicasForceZoneKill pins the defaulting rule: asking for
// chains wider than a pair forces zone-kill mode (and enough zones),
// because independent host draws could take two members of one chain
// in the same instant — outside the fault model the convergence
// accounting assumes.
func TestFleetReplicasForceZoneKill(t *testing.T) {
	cfg := FleetConfig{Seed: 7, Replicas: 3}
	cfg.defaults()
	if !cfg.KillZone || cfg.Zones != 3 {
		t.Fatalf("defaults: KillZone=%v Zones=%d, want zone-kill with 3 zones", cfg.KillZone, cfg.Zones)
	}
	c := &fleetCampaign{cfg: cfg}
	c.drawKills()
	if c.killZone < 0 || c.killZone >= cfg.Zones {
		t.Fatalf("killZone = %d, want a zone in [0,%d)", c.killZone, cfg.Zones)
	}
	for _, v := range c.victims {
		if v%cfg.Zones != c.killZone {
			t.Fatalf("victim %d not in zone %d (victims %v)", v, c.killZone, c.victims)
		}
	}
}

// TestFleetKillsNeverAdjacent checks the schedule-drawing invariant
// directly across many seeds: victims are never ring-adjacent, so no
// pair can lose both hosts in one instant.
func TestFleetKillsNeverAdjacent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		c := &fleetCampaign{cfg: FleetConfig{Seed: seed}}
		c.cfg.defaults()
		c.drawKills()
		if len(c.victims) != 2 {
			t.Fatalf("seed %d: %d victims, want 2", seed, len(c.victims))
		}
		w := c.cfg.Workers
		d := (c.victims[0] - c.victims[1] + w) % w
		if d == 1 || d == w-1 {
			t.Fatalf("seed %d drew adjacent victims %v", seed, c.victims)
		}
	}
}

// TestFleetResultCountsResyncs: a fleet result reports the full
// resynchronizations its pairs ran, as a single-pair campaign does. It
// used to leave Resyncs at zero for every fleet. A zone kill takes one
// member of every chain whose slot sat in the zone; each chain repair
// brings the new replica up from a full-resync baseline.
func TestFleetResultCountsResyncs(t *testing.T) {
	res := RunFleet(FleetConfig{
		Seed:     1,
		Opts:     core.AllOpts(),
		OptName:  "all",
		Pairs:    4,
		Workers:  6,
		Spares:   3,
		Replicas: 3,
		Zones:    3,
	})
	if !res.Passed {
		t.Fatalf("zone-kill fleet campaign failed:\n%s", res.Trace)
	}
	if res.Resyncs <= 0 {
		t.Fatalf("host-kill campaign reports %d resyncs, want > 0", res.Resyncs)
	}
}
