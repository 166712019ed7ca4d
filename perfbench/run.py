"""Benchmark of the simulator's real run mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-sensitivity --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``cold-start``, ``sweep-sensitivity``, ``sweep-comparison``,
``serve-mix`` (see README.md). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is traced and reports the per-layer ones instead. Every output
is checked (see checks.py); a failed check makes ``correct`` false and
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402

WORKLOADS = ("cold-start", "sweep-sensitivity", "sweep-comparison",
             "serve-mix")
#: Measuring processes (sweeps) and server lifecycles (serve-mix) per run;
#: set-up is timed once in each and reported as the median.
SWEEP_PROCESSES = 3
SERVE_LIFECYCLES = 3
#: cold-start runs one process per round, at least this many.
COLD_MIN_ROUNDS = 3
#: Inputs are made from ``--seed`` modulo this, so that every seed derived
#: from it stays a valid numpy ``RandomState`` seed (below 2**32): the
#: suite offsets workload ``i`` by ``101 * i``, and serve-mix cold keys
#: use ``seed * 100_000 + ...``.
SEED_SPACE = 2 ** 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.input_seed = args.seed % SEED_SPACE
    return args


def host_info(root: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` (no git process), or "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p99(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def median_over_cells(rounds, key):
    """Median over cells of each cell's median latency. Cells differ in
    cost by up to 10x, so a pooled median would jump between cost
    clusters from run to run. Each round lists its samples cell by cell,
    the same number per cell."""
    cells = rounds[0]["cells"]
    per_cell = [[] for _ in range(cells)]
    for rnd in rounds:
        samples = rnd[key]
        step = len(samples) // cells
        for index in range(cells):
            per_cell[index].extend(samples[index * step:(index + 1) * step])
    return statistics.median(statistics.median(s) for s in per_cell)


# ---------------------------------------------------------------------- #
# cold-start and the sweeps: measuring worker processes
# ---------------------------------------------------------------------- #
def run_worker(args, root, work, mode, index, seconds, traced, profile):
    out = os.path.join(work, f"worker-{index}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--mode", mode, "--workload", args.workload,
        "--seed", str(args.input_seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--profile", str(int(profile)),
        "--work", work, "--out", out,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    kernel_before = hostspeed.kernel_s()
    started = time.monotonic()
    subprocess.run(cmd + ["--started", repr(started),
                          "--kernel-before", repr(kernel_before)],
                   cwd=root, env=env, check=True, timeout=170)
    with open(out) as handle:
        return json.load(handle)


def measure_processes(args, root, work):
    """Worker outputs of one run: a process per round for cold-start,
    ``SWEEP_PROCESSES`` processes sharing the time for the sweeps."""
    outs = []
    start = time.monotonic()
    if args.workload == "cold-start":
        while (len(outs) < COLD_MIN_ROUNDS
               or time.monotonic() - start < args.seconds):
            traced = bool(args.trace) and len(outs) % 2 == 1
            outs.append(run_worker(args, root, work, "cold", len(outs), 0,
                                   traced, traced and len(outs) == 1))
        return outs
    share = args.seconds / SWEEP_PROCESSES
    for index in range(SWEEP_PROCESSES):
        last = index == SWEEP_PROCESSES - 1
        outs.append(run_worker(args, root, work, "sweep", index, share,
                               bool(args.trace), bool(args.trace) and last))
    return outs


def summarize_processes(args, outs):
    import tracer

    rounds = [r for out in outs for r in out["rounds"]]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    errors = [e for out in outs for e in out["errors"]]
    kinds = {
        "cell": (sum(r["cells"] for r in rounds),
                 sum(r["failed_cells"] for r in rounds)),
        "hit": (sum(r["hits"] for r in rounds),
                sum(r["hit_mismatches"] for r in rounds)),
    }
    for out in outs:
        for name, count in out["kernel"].items():
            hostspeed.COUNTS[name] += count

    def rate(group):
        return statistics.median(r["records"] / r["compute_s"]
                                 for r in group)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(o["setup_s"] for o in outs), "s"),
            "rec_per_s": (rate(plain), "1/s"),
            "peak_rss_mb": (
                statistics.median(o["peak_rss_mb"] for o in outs), "MB"),
            "req_per_s": (statistics.median(
                (r["cells"] + r["hits"]) / (r["compute_s"] + r["hit_s"])
                for r in plain), "1/s"),
            "hit_p50_ms": (median_over_cells(plain, "hit_ms"), "ms"),
            "hit_p99_ms": (p99([ms for r in plain for ms in r["hit_ms"]]),
                           "ms"),
            "compute_p50_ms": (median_over_cells(plain, "cell_ms"), "ms"),
        }
        raw = {"rec_per_s": statistics.median(
            r["records"] / r["compute_raw_s"] for r in plain)}
        return metrics, kinds, errors, raw
    metrics = tracer.layer_metrics(
        [o["layers"] for o in outs if "layers" in o], len(traced))
    for out in outs:
        metrics.update(out.get("self_s", {}))
    metrics.update(serve_counters(None, 1))
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    return metrics, kinds, errors, {}


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
def serve_counters(counters, rounds):
    names = ("hits", "computed", "coalesced", "errors")
    counters = counters or {}
    return {f"serve.{n}": (counters.get(n, 0) / max(1, rounds), "count")
            for n in names}


def run_serve(args, root, work):
    import servemix
    import tracer

    lives = servemix.run_lifecycles(args.input_seed, args.seconds,
                                    bool(args.trace), root, work,
                                    SERVE_LIFECYCLES)
    errors = [e for life in lives for e in life.errors]
    ops = [op for life in lives for op in life.ops]
    kinds = {}
    for kind, _ms, ok in ops:
        attempted, failed = kinds.get(kind, (0, 0))
        kinds[kind] = (attempted + 1, failed + (not ok))
    for kind in ("hit", "compute", "coalesce"):
        if kinds.get(kind, (0, 0))[1]:
            errors.append(f"{kinds[kind][1]} {kind} requests failed")

    def check_samples():
        errors.extend(verify_samples(lives))

    plain = [r for life in lives if not life.traced for r in life.rounds]

    def rate(group):
        return statistics.median(r["records"] / r["wall_s"] for r in group)

    if not args.trace:
        check_samples()
        lat = {k: [ms for kind, ms, _ in ops if kind == k]
               for k in ("hit", "compute")}
        raw = {
            "rec_per_s": statistics.median(
                r["records"] / r["raw_wall_s"] for r in plain),
            "compute_p50_ms": statistics.median(
                ms for life in lives for ms in life.raw_compute_ms),
        }
        metrics = {
            "setup_s": (statistics.median(
                life.setup_s for life in lives), "s"),
            "rec_per_s": (rate(plain), "1/s"),
            "peak_rss_mb": (statistics.median(
                life.peak_rss_mb for life in lives), "MB"),
            "req_per_s": (statistics.median(
                r["ops"] / r["wall_s"] for r in plain), "1/s"),
            "hit_p50_ms": (statistics.median(lat["hit"]), "ms"),
            "hit_p99_ms": (p99(lat["hit"]), "ms"),
            "compute_p50_ms": (statistics.median(lat["compute"]), "ms"),
        }
        return metrics, kinds, errors, raw
    traced_lives = [life for life in lives if life.traced]
    traced_rounds = sum(len(life.rounds) for life in traced_lives)
    snaps = [s for life in traced_lives for s in life.layer_snapshots()]
    metrics = tracer.layer_metrics(snaps, traced_rounds)
    metrics.update(profile_samples(check_samples))
    counters = {}
    for life in traced_lives:
        for name, value in life.counters.items():
            counters[name] = counters.get(name, 0) + value
        # Set-up computed the hit keys; count the timed rounds only.
        counters["computed"] -= len(servemix.HIT_KEYS)
    metrics.update(serve_counters(counters, traced_rounds))
    metrics["trace.overhead_ratio"] = (
        rate([r for life in traced_lives for r in life.rounds]) / rate(plain),
        "ratio")
    return metrics, kinds, errors, {}


def verify_samples(lives):
    """Served results against a local ``run_trace`` of the same key, plus
    the accounting identities on each."""
    import checks
    from repro.serve.protocol import config_from_wire
    from repro.sim.results import SimResult
    from repro.sim.runner import machine_seed_for, run_trace
    from repro.workloads.suite import get_trace

    import servemix

    errors = []
    for life in lives:
        for workload, config, seed, served in life.samples:
            cfg = config_from_wire(config)
            trace = get_trace(workload, servemix.BUDGET, seed)
            local = run_trace(trace, cfg, seed=machine_seed_for(seed))
            if local.to_wire() != served:
                errors.append(f"served {workload} seed {seed} differs from "
                              "a local run_trace")
            for err in checks.cell_errors(
                    checks.TraceFacts(trace), cfg,
                    SimResult.from_wire(served)):
                errors.append(f"served {workload} seed {seed}: {err}")
    return errors


def profile_samples(check_samples):
    """The local verification pass, on the scalar engine, profiled."""
    import checks
    import tracer

    with checks.scalar_engine():
        return tracer.self_seconds(check_samples)


def contention_errors():
    """A run whose kernel timings were mostly contended measured the
    program's own CPU work beside the kernel, not the host's speed."""
    timings, contended = (hostspeed.COUNTS["timings"],
                          hostspeed.COUNTS["contended"])
    if 2 * contended > timings:
        return [f"{contended} of {timings} reference-kernel timings shared "
                "their CPU with the program"]
    return []


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {root}/src/repro; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # The simulator's REPRO_* settings (engine, cache, jobs, budget...)
    # would change what is measured; every process here runs defaults.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    hostspeed.pin_one_cpu()
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    host = host_info(root)
    try:
        if args.workload == "serve-mix":
            metrics, kinds, errors, raw = run_serve(args, root, work)
        else:
            outs = measure_processes(args, root, work)
            metrics, kinds, errors, raw = summarize_processes(args, outs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    errors += contention_errors()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} "
          f"(inputs from {args.input_seed}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    for kind, (attempted, failed) in sorted(kinds.items()):
        print(f"ops {kind}: attempted={attempted} failed={failed}")
    print(f"reference-kernel timings: {hostspeed.COUNTS['timings']}, "
          f"contended (left out of scaling): "
          f"{hostspeed.COUNTS['contended']}")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    for name, value in sorted(raw.items()):
        print(f"unscaled wall-clock {name} = {value:.6g}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": sum(a for a, _ in kinds.values()),
        "failed": sum(f for _, f in kinds.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
