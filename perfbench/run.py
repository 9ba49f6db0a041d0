#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench/nlbench and runs one workload.

    python3 perfbench/run.py --workload node-steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root. Each workload is a fixed span of virtual
time generated from --seed. One run repeats it in fresh processes (the same
seed each time) until --seconds of host time are used, at least twice, and
reports medians. Virtual-time results must repeat bit for bit across the
repetitions; any drift fails the run (the determinism self-check).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
repetitions with CPU-profiled ones and prints the per-layer metrics. The
last line of standard output is the result object; the line before it is
the full report: manifest, every metric of every kind, sample counts.
The benchmark's build output goes to $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, Go build cache included.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = [
    "node-steady",
    "redis-failstop",
    "fleet-pairs-hostkill",
    "fleet-chains-replay-zonekill",
]

# End-to-end metrics (tracing off): name -> unit. Host metrics come from
# the repetitions' medians, virtual ones from the (identical) repetitions.
# setup_s and cpu_s are CPU time (user + system, all threads).
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "client_p50_ms": "virtual-ms",
    "client_p99_ms": "virtual-ms",
    "client_p999_ms": "virtual-ms",
}

# End-to-end metrics printed in the report and by --workload all but not
# in the result object. The elapsed times are here because other programs
# on a shared host stretch them between runs of the same code, while the
# process's CPU time does not count the time it waits for a core. The
# others exist on only some workloads, and the result object must carry
# the same metrics on every workload.
REPORT_ONLY = {
    "setup_wall_s": "s",
    "wall_s": "s",
    "overhead_pct": "%",
    "outage_ms": "virtual-ms",
    "slo_bad_window_pct": "%",
    "failed_ops_pct": "%",
}

MODULES = [
    "simtime", "simnet", "simkernel", "simdisk", "simfs", "criu", "core",
    "container", "cluster", "chaos", "traffic", "workloads", "metrics",
    "trace", "faultinject", "runtime", "bench", "other",
]

# Per-layer metrics (traced run) measured on every workload: name -> unit.
# Virtual times that are fixed model costs on some workload (freeze wait,
# ack wait, ARP) or exist on one workload only (restore, detection,
# convergence, traffic attribution) are in the report line instead.
PER_LAYER = {f"{m}.cpu_pct": "%" for m in MODULES}
PER_LAYER.update({
    "runtime.gc_cpu_pct": "%",
    "runtime.alloc_mb": "MB",
    "runtime.mallocs": "count",
    "runtime.gc_cycles": "count",
    "runtime.live_heap_peak_mb": "MB",
    "span.setup_s": "s",
    "span.verify_s": "s",
    "tracing.overhead_s": "s",
    "criu.stop_ms_mean": "virtual-ms",
    "criu.sock_collect_ms": "virtual-ms",
    "criu.mem_copy_ms": "virtual-ms",
    "criu.state_mb_per_epoch": "MB",
    "simkernel.dirty_pages_per_epoch": "count",
    "core.epochs": "count",
    "core.stage.transfer_ms": "virtual-ms",
    "core.stage.release_output_ms": "virtual-ms",
    "core.wire_mb_per_epoch": "MB",
    "core.inflight_max": "count",
    "cluster.failovers": "count",
    "workloads.completed": "count",
})

INSTANCE_TIMEOUT = 150  # seconds, one repetition
MIN_REPS = 2


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else (Path.cwd() / d)


def go_env(bdir):
    # Everything the go command writes stays under bdir: its caches, its
    # temporary files, and (through XDG_CONFIG_HOME) its telemetry.
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(bdir / "gocache"),
        "GOTMPDIR": str(bdir / "tmp"),
        "GOPATH": str(bdir / "gopath"),
        "GOMODCACHE": str(bdir / "gomodcache"),
        "XDG_CONFIG_HOME": str(bdir / "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    return env


def build():
    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal").is_dir():
        fail(f"{ROOT} holds no nilicon module to build")
    go = shutil.which("go")
    if go is None:
        fail("no go toolchain on PATH")
    bdir = build_dir()
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    binary = bdir / "nlbench"
    proc = subprocess.run(
        [go, "build", "-o", str(binary), "./nlbench"],
        cwd=BENCH_DIR, env=go_env(bdir), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=840)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)
    return binary


def run_instance(binary, workload, seed, profile=None):
    """Runs one repetition; returns its result and its peak RSS in MB."""
    cmd = [str(binary), "-workload", workload, "-seed", str(seed)]
    if profile:
        cmd += ["-profile", str(profile)]
    errpath = build_dir() / f"nlbench-{os.getpid()}.stderr"
    with open(errpath, "w+b") as errf:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errf)
        timer = threading.Timer(INSTANCE_TIMEOUT, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            # wait4 rather than wait: it returns this child's own peak RSS.
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read().decode(errors="replace")
    errpath.unlink()
    if p.returncode != 0:
        fail(f"{workload} seed {seed}: nlbench exited {p.returncode}: {err[-2000:]}")
    return json.loads(out), usage.ru_maxrss / 1024


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "go.mod"]
    for top in ("internal", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.suffix in (".go", ".mod", ".py")]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def median(xs):
    return statistics.median(xs) if xs else None


def run_workload(binary, workload, seed, seconds, traced):
    """Repeats the workload for `seconds`; returns the report dict."""
    start = time.monotonic()
    plain, prof, rss, problems = [], [], [], []
    durations = []
    bdir = build_dir()
    while True:
        n = len(plain) + len(prof)
        elapsed = time.monotonic() - start
        if n >= MIN_REPS and (not traced or prof) and \
                elapsed + median(durations) > seconds:
            break
        t0 = time.monotonic()
        profile = None
        if traced and len(prof) < len(plain):
            profile = bdir / f"nlbench-{os.getpid()}.pprof"
        res, rss_mb = run_instance(binary, workload, seed, profile)
        durations.append(time.monotonic() - t0)
        if profile:
            profile.unlink(missing_ok=True)
            prof.append(res)
        else:
            plain.append(res)
            rss.append(rss_mb)

    first = plain[0]
    for res in plain[1:] + prof:
        if res["virtual"] != first["virtual"]:
            diff = sorted(k for k in set(res["virtual"]) | set(first["virtual"])
                          if res["virtual"].get(k) != first["virtual"].get(k))
            problems.append(f"determinism: virtual-time metrics drifted between repetitions of seed {seed}: {diff}")
            break
    for res in plain + prof:
        problems += [p for p in (res["problems"] or []) if p not in problems]

    correct = not problems
    attempted = max(1, first["attempted"])
    failed = first["failed"] if correct else attempted
    metrics = dict(first["virtual"])
    for k in ("setup_s", "cpu_s", "setup_wall_s", "wall_s"):
        metrics[k] = median([r[k] for r in plain])
    metrics["peak_rss_mb"] = median(rss)
    metrics["failed_ops_pct"] = 100 * failed / attempted
    if prof:
        for k in sorted({k for r in prof for k in r["host"]}):
            xs = [r["host"][k] for r in prof if k in r["host"]]
            # CPU shares are averaged so that they still sum to 100%.
            metrics[k] = statistics.fmean(xs) if k.endswith(".cpu_pct") else median(xs)
        metrics["tracing.overhead_s"] = median([r["wall_s"] for r in prof]) - metrics["wall_s"]
    return {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": first["samples"],
        "manifest": {
            "git_rev": git_rev(),
            "source_digest": source_digest(),
            "go_version": first["go_version"],
            "nproc": os.cpu_count(),
            "gomaxprocs": first["gomaxprocs"],
            "seed": seed,
            "shape": first["shape"],
            "run_seconds": seconds,
            "repetitions": len(plain),
            "traced_repetitions": len(prof),
            "spent_s": round(time.monotonic() - start, 3),
        },
    }


def result_line(rep, wanted):
    metrics = {}
    for name, unit in wanted.items():
        v = rep["metrics"].get(name)
        if v is None:
            # A run that failed its correctness gate may stop before
            # measuring everything; it reports every operation failed.
            if rep["correct"]:
                fail(f"{rep['workload']}: metric {name} was not measured")
            v = 0
        metrics[name] = {"value": v, "unit": unit}
    return {"correct": rep["correct"], "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help=f"one of {WORKLOADS} or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        fail(f"unknown workload {args.workload!r}; have {WORKLOADS} or 'all'")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    reports = [run_workload(binary, n, args.seed, args.seconds, args.trace == 1) for n in names]
    wanted = PER_LAYER if args.trace else END_TO_END

    if len(reports) == 1:
        rep = reports[0]
        print(json.dumps({"report": rep}, sort_keys=True))
        print(json.dumps(result_line(rep, wanted)))
        return

    # --workload all: one table of every end-to-end metric, then a summary.
    every = dict(END_TO_END, **REPORT_ONLY)
    print(f"{'metric':<20} {'unit':<11} " + " ".join(f"{n:>28}" for n in names))
    for name, unit in every.items():
        cells = []
        for rep in reports:
            v = rep["metrics"].get(name)
            cells.append(f"{v:>28.6g}" if v is not None else f"{'n/a':>28}")
        print(f"{name:<20} {unit:<11} " + " ".join(cells))
    print(f"{'samples':<20} {'count':<11} " + " ".join(f"{rep['samples'].get('client', 0):>28}" for rep in reports))
    print(f"{'correct':<20} {'':<11} " + " ".join(f"{str(rep['correct']):>28}" for rep in reports))
    for rep in reports:
        for p in rep["problems"]:
            print(f"{rep['workload']}: {p}")
    print(json.dumps({"reports": reports}, sort_keys=True))
    summary = {"correct": all(r["correct"] for r in reports),
               "attempted": sum(r["attempted"] for r in reports),
               "failed": sum(r["failed"] for r in reports),
               "metrics": {f"{r['workload']}.{k}": v
                           for r in reports for k, v in result_line(r, wanted)["metrics"].items()}}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
