"""One measuring process of the ``cold-start`` or a sweep workload.

``run.py`` starts this script in a fresh interpreter and reads the JSON
it writes to ``--out``. A ``cold`` process does one round: with an empty
trace memo and an empty disk cache it runs the headline pair on every
Table II workload and ``mix2``, generating each trace on first use. A
``sweep`` process generates its traces up front (set-up), then runs
rounds of its cells until its share of the measuring time is used.

A round runs every cell once through ``run_cached`` with the disk cache
on a fresh directory (a *compute*: trace generation on first use,
simulation, result encoding and cache store included), and reads each
cell back from the disk cache ``HIT_REPLAYS`` times right after (each a
*hit*). Checks run after the round, untimed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cells as cellmod  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402

#: Disk-cache reads of every cell after computing it (hit samples).
HIT_REPLAYS = {"cold": 30, "sweep": 20}
#: Cells of the traced run's profiled scalar pass.
PROFILE_CELLS = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("cold", "sweep"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--profile", type=int, default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--kernel-before", type=float, required=True,
                        help="hostspeed.kernel_s() measured just before")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro.sim.diskcache as diskcache
    from repro.sim.runner import machine_seed_for
    from repro.workloads.suite import get_trace

    if args.mode == "cold":
        cells, budget = cellmod.cold_cells()
    else:
        cells, budget = cellmod.sweep_cells(args.workload)
    seed = args.seed
    trace_on = bool(args.trace)
    if trace_on:
        tracer.install()
    if args.mode == "sweep":
        diskcache.disable()
        for wl in dict.fromkeys(wl for _, wl, _ in cells):
            get_trace(wl, budget, seed)
    ready = time.monotonic()
    out = {
        "setup_s": (ready - args.started) * hostspeed.factor_between(
            args.kernel_before, hostspeed.kernel_s()),
        "rounds": [],
        "errors": [],
    }
    replays = HIT_REPLAYS[args.mode]
    facts = {}
    index = 0
    while True:
        traced = trace_on and (args.mode == "cold" or index % 2 == 1)
        rnd = _round(
            cells, budget, seed, replays, traced,
            os.path.join(args.work, f"cache-{os.getpid()}-{index}"),
            diskcache, tracer.TRACER, hostspeed.HostClock(),
        )
        results = rnd.pop("results")
        rnd["failed_cells"] = 0
        for name, wl, cfg in cells:
            if wl not in facts:
                facts[wl] = checks.TraceFacts(get_trace(wl, budget, seed))
            errors = checks.cell_errors(facts[wl], cfg, results[name])
            rnd["failed_cells"] += bool(errors)
            for err in errors:
                out["errors"].append(f"{name} on {wl}: {err}")
        if rnd["hit_mismatches"]:
            out["errors"].append(
                f"{rnd['hit_mismatches']} disk-cache hits differ from "
                "the result that computed them")
        out["rounds"].append(rnd)
        index += 1
        # A traced run needs an untraced and a traced round per process.
        if args.mode == "cold" or (
                time.monotonic() - ready >= args.seconds
                and index >= 1 + trace_on):
            break
    # Engine agreement on one cell the seed picks (both oracle passes).
    name, wl, cfg = cells[seed % len(cells)]
    trace = get_trace(wl, budget, seed)
    if not checks.scalar_matches(trace, cfg, machine_seed_for(seed),
                                 results[name]):
        out["errors"].append(f"{name} on {wl}: scalar engine differs")
    if trace_on:
        out["layers"] = tracer.TRACER.snapshot()
    if args.profile:
        out["self_s"] = _profile(cells, budget, seed, get_trace)
    out["kernel"] = hostspeed.COUNTS
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


def _round(cells, budget, seed, replays, traced, cache_dir, diskcache,
           trace_state, clock):
    """One round. Each cell is computed through ``run_cached`` (timed as
    one compute), then its result is dropped from the in-process memo
    and read back from the disk cache ``replays`` times (each timed as
    one hit), so hits are spread over the whole round. The compute and
    the cell's hits are each host-scaled by ``clock`` from the kernel
    timings around them (see hostspeed.py), trace generation excepted."""
    from repro.sim.runner import clear_run_cache, forget_run, run_cached
    from repro.workloads.suite import get_trace

    clear_run_cache()
    diskcache.enable(cache_dir)
    results = {}
    cell_ms = []
    raw_s = 0.0
    hit_ms = []
    mismatched = 0
    for name, wl, cfg in cells:
        trace_state.on = traced
        t0 = time.perf_counter()
        # The trace run_cached would fetch first (generated and stored on
        # first use). Its numpy-bound generation does not slow down with
        # the interpreter kernel, so it stays unscaled; the rest of the
        # compute is scaled.
        get_trace(wl, budget, seed)
        t1 = time.perf_counter()
        result = run_cached(wl, cfg, budget, seed)
        t2 = time.perf_counter()
        trace_state.on = False
        raw_s += t2 - t0
        cell_ms.append(((t1 - t0) + (t2 - t1) * clock.factor()) * 1e3)
        results[name] = result
        hits = []
        for _ in range(replays):
            forget_run(wl, cfg, budget, seed)
            trace_state.on = traced
            t0 = time.perf_counter()
            again = run_cached(wl, cfg, budget, seed)
            hits.append(time.perf_counter() - t0)
            trace_state.on = False
            if again.to_wire() != result.to_wire():
                mismatched += 1
        factor = clock.factor()
        hit_ms.extend(h * factor * 1e3 for h in hits)
    clear_run_cache()
    diskcache.disable()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "traced": traced,
        "records": sum(checks.records_of(r) for r in results.values()),
        "compute_s": sum(cell_ms) / 1e3,
        "compute_raw_s": raw_s,
        "hit_s": sum(hit_ms) / 1e3,
        "cells": len(cells),
        "hits": len(hit_ms),
        "hit_mismatches": mismatched,
        "cell_ms": cell_ms,
        "hit_ms": hit_ms,
        "results": results,
    }


def _profile(cells, budget, seed, get_trace):
    """Self seconds by module over a scalar-engine pass of a sample of
    cells (evenly spaced through the cell list)."""
    from repro.sim.runner import machine_seed_for, run_trace

    step = max(1, len(cells) // PROFILE_CELLS)
    sample = cells[::step][:PROFILE_CELLS]

    def scalar_pass():
        for _, wl, cfg in sample:
            run_trace(get_trace(wl, budget, seed), cfg,
                      seed=machine_seed_for(seed))

    with checks.scalar_engine():
        return tracer.self_seconds(scalar_pass)


if __name__ == "__main__":
    sys.exit(main())
