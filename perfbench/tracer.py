"""Per-layer timing from outside the program.

:func:`install` wraps the public entry points of each layer — workload
generation, graph construction, the disk cache, machine build and run,
wire encoding — with timers. Times are inclusive and counted only at the
outermost call of each layer (a mix generating its component traces is
one ``generate`` call). After every ``Machine.run`` the machine's
``engine_stats`` are read to split records by engine tier and count
flat-tier declines by reason.

Nothing in the program changes: with the tracer off, the wrappers cost
one attribute test per call; the untraced (end-to-end) runs never
install it at all.

:func:`self_seconds` is the other half of the traced run: a cProfile
pass whose self time is grouped by the program's modules.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

#: Per-layer timer names and the functions each one wraps.
TIMED_LAYERS = (
    "workloads.generate_s",
    "workloads.graph_s",
    "sim.diskcache.store_s",
    "sim.diskcache.load_s",
    "sim.machine.build_s",
    "sim.machine.run_s",
    "sim.results.to_wire_s",
)

DECLINE_REASONS = ("predictor", "reference", "tenant", "hugepage")

#: Module groups for self time: ``self_s.<group>``. A module belongs to
#: the longest group that prefixes its dotted name under ``repro.``.
SELF_GROUPS = (
    "mem.cache", "mem.hierarchy", "mem.replacement",
    "vm.tlb", "vm.pwc", "vm.walker", "vm.pagetable",
    "sim.machine", "sim.reference", "sim.engine",
    "core", "predictors", "common", "workloads.trace",
)


class Tracer:
    def __init__(self):
        self.on = False
        self.installed = False
        self.pid = os.getpid()
        self.export_dir = None
        self._depth = defaultdict(int)
        self._open = 0
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.engine = defaultdict(int)
        self.tier_seconds = defaultdict(float)

    def _forked(self):
        # A forked pool worker inherits the parent's totals; start clean.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.reset()
            self._depth.clear()
            self._open = 0

    def timed(self, layer, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer._forked()
            depth = tracer._depth
            depth[layer] += 1
            tracer._open += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[layer] -= 1
                tracer._open -= 1
                if depth[layer] == 0:
                    tracer.seconds[layer] += elapsed
            if after is not None:
                after(args, elapsed)
            if tracer._open == 0:
                tracer._export_if_set()
            return out

        return wrapper

    def _after_run(self, args, elapsed):
        stats = getattr(args[0], "engine_stats", None) or {}
        engine = self.engine
        records = 0
        for tier in ("flat", "scalar", "bulk"):
            count = int(stats.get(f"{tier}_records", 0))
            engine[f"{tier}_records"] += count
            records += count
        reasons = []
        if stats.get("flat_reason"):
            reasons.append(stats["flat_reason"])
        reasons.extend(stats.get("fallback_reasons", {}))
        for reason in reasons:
            engine[f"decline.{reason}"] += 1
        side = "declined" if reasons else "flat"
        if stats.get("fallback"):
            # A whole-run scalar fallback reports no per-tier split.
            records = len(args[1])
            engine["scalar_records"] += records
        self.tier_seconds[side] += elapsed
        self.tier_seconds[side + "_records"] += records

    def _export_if_set(self):
        if self.export_dir is not None:
            self.export()

    def export(self):
        path = os.path.join(self.export_dir, f"layers-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "engine": dict(self.engine),
            "tier_seconds": dict(self.tier_seconds),
        }


TRACER = Tracer()


def _wrap_attr(owner, name, layer, after=None):
    current = owner.__dict__[name]
    if isinstance(current, classmethod):
        setattr(owner, name,
                classmethod(TRACER.timed(layer, current.__func__, after)))
    else:
        setattr(owner, name, TRACER.timed(layer, current, after))


def install(export_dir=None):
    """Wrap every layer entry point (idempotent per process)."""
    if TRACER.installed:
        return TRACER
    import repro.sim.diskcache as diskcache
    import repro.sim.results as results
    from repro.sim.machine import Machine
    from repro.workloads import graphs, spec_like, synthetic, tenants

    classes = {
        value
        for module in (graphs, spec_like, synthetic, tenants)
        for value in vars(module).values()
        if isinstance(value, type) and "generate" in value.__dict__
    }
    for cls in classes:
        _wrap_attr(cls, "generate", "workloads.generate_s")
    _wrap_attr(graphs.CsrGraph, "random", "workloads.graph_s")
    for name in ("store_result", "store_trace"):
        setattr(diskcache, name, TRACER.timed(
            "sim.diskcache.store_s", getattr(diskcache, name)))
    for name in ("load_result", "load_trace"):
        setattr(diskcache, name, TRACER.timed(
            "sim.diskcache.load_s", getattr(diskcache, name)))
    _wrap_attr(Machine, "__init__", "sim.machine.build_s")
    _wrap_attr(Machine, "run", "sim.machine.run_s", TRACER._after_run)
    _wrap_attr(results.SimResult, "to_dict", "sim.results.to_wire_s")
    _wrap_attr(results.SimResult, "to_wire", "sim.results.to_wire_s")
    wire = TRACER.timed("sim.results.to_wire_s", results.wire_bytes)
    results.wire_bytes = wire
    import repro.serve.app as app

    app.wire_bytes = wire
    TRACER.installed = True
    TRACER.export_dir = export_dir
    return TRACER


def layer_metrics(snapshots, rounds: int) -> dict:
    """Per-round per-layer metrics from tracer snapshots (summed)."""
    seconds = defaultdict(float)
    engine = defaultdict(int)
    tiers = defaultdict(float)
    for snap in snapshots:
        for key, value in snap["seconds"].items():
            seconds[key] += value
        for key, value in snap["engine"].items():
            engine[key] += value
        for key, value in snap["tier_seconds"].items():
            tiers[key] += value
    rounds = max(1, rounds)
    out = {name: (seconds[name] / rounds, "s") for name in TIMED_LAYERS}
    for tier in ("flat", "scalar", "bulk"):
        out[f"sim.engine.{tier}_records"] = (
            engine[f"{tier}_records"] / rounds, "count")
    for reason in DECLINE_REASONS:
        out[f"sim.engine.decline.{reason}"] = (
            engine[f"decline.{reason}"] / rounds, "count")
    for side in ("flat", "declined"):
        secs = tiers[side]
        out[f"sim.engine.{side}_rec_per_s"] = (
            tiers[side + "_records"] / secs if secs else 0.0, "1/s")
    return out


def self_seconds(fn) -> dict:
    """Run ``fn()`` under cProfile; self seconds grouped by module."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    totals = {group: 0.0 for group in SELF_GROUPS}
    stats = pstats.Stats(profiler)
    for (filename, _line, _func), row in stats.stats.items():
        group = _group_of(filename)
        if group is not None:
            totals[group] += row[2]  # tottime
    return {f"self_s.{group}": (value, "s") for group, value in totals.items()}


def _group_of(filename: str):
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return None
    dotted = path[at + len(marker):-3].replace("/", ".")
    best = None
    for group in SELF_GROUPS:
        if dotted == group or dotted.startswith(group + "."):
            if best is None or len(group) > len(best):
                best = group
    return best
