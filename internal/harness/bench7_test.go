package harness

import (
	"testing"

	"nilicon/internal/cluster"
	"nilicon/internal/simtime"
)

// bench7TestFleet runs a reduced isolated fleet (the bench7 shape at
// 1/8 scale) and returns its executed-event and window counts.
func bench7TestFleet(t *testing.T, lanes, workers int) (events, windows uint64) {
	t.Helper()
	sc := simtime.NewShardedClock(lanes)
	sc.SetWorkers(workers)
	f, err := cluster.New(sc.Root(), cluster.Params{
		Workers:  8,
		Pairs:    16,
		Seed:     1,
		Isolated: true,
		Workload: func(string) cluster.Workload { return &chatterLoop{} },
	})
	if err != nil {
		t.Fatalf("build isolated fleet: %v", err)
	}
	f.Start()
	sc.Root().RunFor(50 * simtime.Millisecond)
	return sc.Executed(), sc.Windows()
}

// TestBench7WindowedParity is the bench7 determinism cross-check at CI
// scale: the isolated fleet must execute the identical number of events
// under ladder mode and under conservative windows at every lane ×
// worker combination, and multi-lane windowed runs must actually take
// the window path (not the ladder fallback). Under -race this is also
// the soak for the parallel window drains: lanes genuinely drain on
// concurrent pool workers here, unlike the campaign parity suite whose
// pinned shards keep windows single-lane.
func TestBench7WindowedParity(t *testing.T) {
	ladder, _ := bench7TestFleet(t, 8, 0)
	if ladder == 0 {
		t.Fatal("ladder run executed no events")
	}
	for _, cfg := range []struct{ lanes, workers int }{
		{1, 4}, {2, 2}, {4, 4}, {8, 2}, {8, 8},
	} {
		ev, win := bench7TestFleet(t, cfg.lanes, cfg.workers)
		if ev != ladder {
			t.Errorf("lanes=%d workers=%d executed %d events, ladder executed %d",
				cfg.lanes, cfg.workers, ev, ladder)
		}
		if cfg.lanes > 1 && win == 0 {
			t.Errorf("lanes=%d workers=%d never entered a conservative window", cfg.lanes, cfg.workers)
		}
		if cfg.lanes == 1 && win != 0 {
			t.Errorf("lanes=1 should fall back to ladder, ran %d windows", win)
		}
	}
}

// TestPlaceCoupled checks the isolated placement geometry: both ends of
// every pair land in the same host couple, sides alternate, and odd
// worker counts are rejected.
func TestPlaceCoupled(t *testing.T) {
	pl, err := cluster.PlaceCoupled(16, 8, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl {
		if p.Primary/2 != p.Backup/2 {
			t.Errorf("pair %d spans couples: primary host %d, backup host %d", p.Pair, p.Primary, p.Backup)
		}
		if p.Primary == p.Backup {
			t.Errorf("pair %d placed both ends on host %d", p.Pair, p.Primary)
		}
	}
	// Pairs 0 and 4 share couple 0 with alternating sides.
	if pl[0].Primary != 0 || pl[4].Primary != 1 {
		t.Errorf("expected alternating primaries in couple 0, got %d then %d", pl[0].Primary, pl[4].Primary)
	}
	if _, err := cluster.PlaceCoupled(4, 7, 8, 4096); err == nil {
		t.Error("odd worker count should be rejected")
	}
}
