// Command nlbench runs one instance of one benchmark workload and prints
// its measurements as one JSON object on standard output.
//
// Every workload is a fixed span of virtual time built from the seed, so
// its virtual-time results (client latency, stop times, recovery
// breakdown) repeat exactly for a seed; only the host-side costs (set-up
// and simulation CPU and wall time, heap and GC activity) vary between
// runs.
// perfbench/run.py runs this program several times per benchmark run,
// reads each instance's peak RSS from the operating system, takes
// medians and checks that the virtual-time results agree bit for bit.
//
//	nlbench -workload node-steady -seed 1 [-profile out.pprof]
//
// With -profile the instance also takes a CPU profile, charges each
// sample to the innermost nilicon package on its stack and records GC
// and live-heap statistics (the traced run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"nilicon/internal/simtime"
)

// procStart approximates process start: package variables initialize
// before main runs, after the runtime has started.
var procStart = time.Now()

// result is one instance's output.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	// Set-up runs from process start to the first simulated event the
	// benchmark can separate; the simulation is everything after it.
	// SetupS and CPUS are the process's CPU time (user + system, all
	// threads) in each part, SetupWallS and WallS the elapsed time.
	SetupS     float64 `json:"setup_s"`
	CPUS       float64 `json:"cpu_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	WallS      float64 `json:"wall_s"`

	// Virtual holds every virtual-time metric (end-to-end and per-layer).
	// It is a pure function of the workload and seed.
	Virtual map[string]float64 `json:"virtual"`
	// Samples gives the sample count behind each latency percentile.
	Samples map[string]int `json:"samples"`
	// Host holds traced-run host metrics: spans, GC, module CPU shares.
	Host map[string]float64 `json:"host"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems"`
	Shape     string   `json:"shape"`

	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// run is the state one workload fills in.
type run struct {
	res     *result
	traced  bool
	spans   map[string]float64
	setupAt time.Time
	last    time.Time
	// livePeak is the largest live heap seen (bytes); nextHeapAt is the
	// next virtual instant at which to sample it.
	livePeak   uint64
	nextHeapAt simtime.Time
}

func (r *run) virt(name string, v float64) { r.res.Virtual[name] = v }

func (r *run) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// setupDone marks the end of set-up: everything after it is simulation.
func (r *run) setupDone() {
	r.setupAt = time.Now()
	r.last = r.setupAt
	r.res.SetupS = cpuSeconds()
	r.res.SetupWallS = r.setupAt.Sub(procStart).Seconds()
	r.spans["span.setup_s"] = r.res.SetupWallS
}

// cpuSeconds is the CPU time, user and system, that every thread of the
// process has used since it started. Unlike elapsed time it does not grow
// while other programs hold the host's cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "nlbench: getrusage:", err)
		os.Exit(1)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// span charges the host time since the previous span boundary to name.
func (r *run) span(name string) {
	now := time.Now()
	r.spans["span."+name+"_s"] += now.Sub(r.last).Seconds()
	r.last = now
}

// heapEvery is the virtual-time interval between live-heap samples.
const heapEvery = simtime.Second

// sampleHeap records the live heap after a forced collection once per
// heapEvery of virtual time, so the samples fall at the same instants on
// every run. Only the traced run samples: the forced GC costs wall time.
func (r *run) sampleHeap(now simtime.Time) {
	if !r.traced || now < r.nextHeapAt {
		return
	}
	r.nextHeapAt = now.Add(heapEvery)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.livePeak {
		r.livePeak = ms.HeapAlloc
	}
}

// pollHeap samples the live heap the last GC measured every 10 ms of
// host time, for workloads whose virtual clock the benchmark does not
// drive. The returned function stops the sampler and waits for it.
func (r *run) pollHeap() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				metrics.Read(s)
				r.livePeak = max(r.livePeak, s[0].Value.Uint64())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

var workloadsByName = map[string]func(*run, int64){
	"node-steady":                  nodeSteady,
	"redis-failstop":               redisFailstop,
	"fleet-pairs-hostkill":         fleetPairsHostkill,
	"fleet-chains-replay-zonekill": fleetChainsReplayZonekill,
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	profile := flag.String("profile", "", "take a CPU profile into this file (traced run)")
	flag.Parse()
	wl, ok := workloadsByName[*name]
	if !ok {
		var names []string
		for n := range workloadsByName {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "nlbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seed < 0 {
		fmt.Fprintln(os.Stderr, "nlbench: -seed must be non-negative")
		os.Exit(2)
	}
	res := &result{
		Workload:   *name,
		Seed:       *seed,
		Traced:     *profile != "",
		Virtual:    map[string]float64{},
		Samples:    map[string]int{},
		Host:       map[string]float64{},
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	r := &run{res: res, traced: res.Traced, spans: map[string]float64{}}

	var prof *os.File
	var before []metrics.Sample
	if r.traced {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nlbench:", err)
			os.Exit(1)
		}
		prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "nlbench: start profile:", err)
			os.Exit(1)
		}
		before = readRuntime()
	}

	wl(r, *seed)
	res.WallS = time.Since(r.setupAt).Seconds()
	res.CPUS = cpuSeconds() - res.SetupS
	res.Correct = len(res.Problems) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}

	if r.traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nlbench: close profile:", err)
			os.Exit(1)
		}
		after := readRuntime()
		for k, v := range runtimeDelta(before, after) {
			res.Host[k] = v
		}
		if r.livePeak == 0 {
			r.livePeak = uint64(metricValue(after, liveHeapMetric))
		}
		res.Host["runtime.live_heap_peak_mb"] = float64(r.livePeak) / (1 << 20)
		shares, err := attributeProfile(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nlbench: read profile:", err)
			os.Exit(1)
		}
		for k, v := range shares {
			res.Host[k+".cpu_pct"] = v
		}
		for k, v := range r.spans {
			res.Host[k] = v
		}
		if ev, ok := res.Virtual["simtime.events"]; ok && res.WallS > 0 {
			res.Host["simtime.events_per_s"] = ev / res.WallS
		}
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "nlbench:", err)
		os.Exit(1)
	}
}

const liveHeapMetric = "/gc/heap/live:bytes"

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	liveHeapMetric,
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func metricValue(s []metrics.Sample, name string) float64 {
	for _, m := range s {
		if m.Name != name {
			continue
		}
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
	}
	return 0
}

// runtimeDelta turns two runtime/metrics readings into the runtime.*
// host metrics of the traced run.
func runtimeDelta(a, b []metrics.Sample) map[string]float64 {
	d := func(name string) float64 { return metricValue(b, name) - metricValue(a, name) }
	out := map[string]float64{
		"runtime.alloc_mb":  d("/gc/heap/allocs:bytes") / (1 << 20),
		"runtime.mallocs":   d("/gc/heap/allocs:objects"),
		"runtime.gc_cycles": d("/gc/cycles/total:gc-cycles"),
	}
	// The runtime's CPU classes are estimates of all CPU the process
	// could use (GOMAXPROCS × wall); the GC share is against that total.
	if total := d("/cpu/classes/total:cpu-seconds"); total > 0 {
		out["runtime.gc_cpu_pct"] = 100 * d("/cpu/classes/gc/total:cpu-seconds") / total
	}
	return out
}
