package harness

import (
	"encoding/json"
	"fmt"

	"nilicon/internal/chaos"
	"nilicon/internal/cluster"
	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
)

// FleetScenario is one host-fault entry in the chaos sweep matrix: a
// pool shape plus how many hosts die (concurrently, in one instant).
// Replay runs the pairs under the HyCoR-mode record/replay
// configuration instead of core.AllOpts.
type FleetScenario struct {
	Name    string
	Pairs   int
	Workers int
	Spares  int
	Kills   int
	Replay  bool
}

// FleetScenarios is the host-granularity half of the sweep matrix. The
// first two shapes re-protect every displaced pair: one onto a single
// spare, the other — the README's acceptance demo shape — loses two
// hosts at once and rolls the survivors onto two spares. The third
// re-runs the single-kill shape in record/replay mode, so host-kill
// failovers exercise log replay and the replay-divergence oracle.
func FleetScenarios() []FleetScenario {
	return []FleetScenario{
		{Name: "fleet-1kill", Pairs: 4, Workers: 4, Spares: 1, Kills: 1},
		{Name: "fleet-2kill", Pairs: 8, Workers: 4, Spares: 2, Kills: 2},
		{Name: "fleet-replay", Pairs: 4, Workers: 4, Spares: 1, Kills: 1, Replay: true},
	}
}

// RunFleetCampaign runs one verified fleet campaign for a scenario
// (shards and workers as in chaos.FleetConfig.Shards and
// EngineWorkers).
func RunFleetCampaign(sc FleetScenario, seed int64, duration simtime.Duration, shards, workers int) chaos.Result {
	opts := core.AllOpts()
	if sc.Replay {
		opts = core.ReplayOpts()
	}
	return chaos.VerifyFleetSeed(chaos.FleetConfig{
		Seed:          seed,
		Opts:          opts,
		OptName:       sc.Name,
		Pairs:         sc.Pairs,
		Workers:       sc.Workers,
		Spares:        sc.Spares,
		Kills:         sc.Kills,
		Duration:      duration,
		Shards:        shards,
		EngineWorkers: workers,
	})
}

// Bench4Row is one pool shape of the BENCH_4 fleet-scaling sweep.
type Bench4Row struct {
	Scenario string `json:"scenario"`
	Pairs    int    `json:"pairs"`
	Workers  int    `json:"workers"`
	Spares   int    `json:"spares"`
	// Epochs is the total number of checkpoints committed fleet-wide.
	Epochs uint64 `json:"epochs"`
	// EpochP50Ms / EpochP99Ms are percentiles of the end-to-end epoch
	// (output-commit) latency across every pair, milliseconds. Pairs
	// co-located on a host share its replication NIC, so these grow with
	// pairs-per-host — the contention the transfer scheduler arbitrates.
	EpochP50Ms float64 `json:"epoch_p50_ms"`
	EpochP99Ms float64 `json:"epoch_p99_ms"`
	// WireBytesPerPair is the mean bytes each pair put on its host NIC.
	WireBytesPerPair float64 `json:"wire_bytes_per_pair"`
	// Failovers and the detection→network-live latency stats for the
	// single host kill each row injects.
	Failovers      int     `json:"failovers"`
	FailoverMeanMs float64 `json:"failover_mean_ms"`
	FailoverMaxMs  float64 `json:"failover_max_ms"`
}

// Bench4Report is the committed BENCH_4.json document.
type Bench4Report struct {
	Benchmark string      `json:"benchmark"`
	Seed      int64       `json:"seed"`
	Rows      []Bench4Row `json:"rows"`
}

// bench4Shapes is the scaling ladder: pairs double while the worker
// pool grows slower, so pairs-per-host (NIC contention) rises.
func bench4Shapes() []FleetScenario {
	return []FleetScenario{
		{Name: "2p/2w", Pairs: 2, Workers: 2, Spares: 1},
		{Name: "4p/4w", Pairs: 4, Workers: 4, Spares: 1},
		{Name: "8p/4w", Pairs: 8, Workers: 4, Spares: 2},
		{Name: "16p/8w", Pairs: 16, Workers: 8, Spares: 2},
	}
}

// RunBench4 measures fleet scaling: for each pool shape, a steady-state
// window followed by one host kill and full re-protection. Rows run on
// the harness worker pool (Jobs); each seeded fleet run is
// single-threaded and rows are collected in order, so the report is
// byte-identical for any jobs value.
func RunBench4(seed int64) Bench4Report {
	shapes := bench4Shapes()
	rows := make([]Bench4Row, len(shapes))
	runIndexed(len(shapes), Jobs,
		func(i int) {
			rows[i] = bench4Row(shapes[i], seed)
		},
		func(i int) { progressf("bench4: %s", shapes[i].Name) })
	return Bench4Report{Benchmark: "fleet-scaling", Seed: seed, Rows: rows}
}

func bench4Row(sc FleetScenario, seed int64) Bench4Row {
	clock := simtime.NewClock()
	f, err := cluster.New(clock, cluster.Params{
		Workers: sc.Workers,
		Spares:  sc.Spares,
		Pairs:   sc.Pairs,
		Seed:    seed,
	})
	if err != nil {
		panic("bench4: " + err.Error())
	}
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)
	f.KillHost(0)
	clock.RunFor(3 * simtime.Second)

	var commit metrics.Stream
	var epochs uint64
	for _, r := range f.Timeline.Records() {
		commit.Add(r.Commit.Seconds() * 1000)
		epochs++
	}
	return Bench4Row{
		Scenario:         sc.Name,
		Pairs:            sc.Pairs,
		Workers:          sc.Workers,
		Spares:           sc.Spares,
		Epochs:           epochs,
		EpochP50Ms:       commit.Percentile(50),
		EpochP99Ms:       commit.Percentile(99),
		WireBytesPerPair: float64(f.WireBytes()) / float64(sc.Pairs),
		Failovers:        f.FailoverLatencies.N(),
		FailoverMeanMs:   f.FailoverLatencies.Mean() * 1000,
		FailoverMaxMs:    f.FailoverLatencies.Max() * 1000,
	}
}

// JSON renders the report with stable formatting for committing.
func (r Bench4Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Bench4Table renders the report as a human-readable table.
func Bench4Table(r Bench4Report) *metrics.Table {
	tb := metrics.NewTable("BENCH_4: fleet scaling (one host kill per row)",
		"Shape", "Pairs", "Hosts", "Epochs", "CommitP50", "CommitP99", "Wire/pair", "Failovers", "FailoverMean", "FailoverMax")
	for _, row := range r.Rows {
		tb.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Pairs),
			fmt.Sprintf("%d+%d", row.Workers, row.Spares),
			fmt.Sprintf("%d", row.Epochs),
			fmt.Sprintf("%.2fms", row.EpochP50Ms),
			fmt.Sprintf("%.2fms", row.EpochP99Ms),
			metrics.FormatBytes(int64(row.WireBytesPerPair)),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%.1fms", row.FailoverMeanMs),
			fmt.Sprintf("%.1fms", row.FailoverMaxMs))
	}
	return tb
}
