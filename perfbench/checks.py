"""Output checks: properties every simulated cell must have.

None of these compares against a stored copy of an earlier output. Each
is either an accounting identity of the model, a lower bound counted
independently from the trace with numpy, or agreement between the two
engines on the same cell.

Two identities one might expect do not hold today and are left out (see
README.md, "Known faults"): LLC misses = memory reads, and memory
accesses = LLC misses + LLC writebacks.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_PAGE_SHIFT = 12
_BLOCK_SHIFT = 6


class TraceFacts:
    """Quantities counted from a trace, independent of the simulator."""

    __slots__ = ("records", "gap_sum", "distinct_blocks", "distinct_pages")

    def __init__(self, trace):
        vaddrs = np.asarray(trace.vaddrs, dtype=np.uint64)
        asids = getattr(trace, "asids", None)
        self.records = int(len(vaddrs))
        self.gap_sum = int(np.asarray(trace.gaps, dtype=np.int64).sum())
        self.distinct_blocks = _distinct(vaddrs >> np.uint64(_BLOCK_SHIFT),
                                         asids)
        self.distinct_pages = _distinct(vaddrs >> np.uint64(_PAGE_SHIFT),
                                        asids)


def _distinct(keys, asids) -> int:
    if asids is None:
        return int(np.unique(keys).size)
    pairs = np.stack([np.asarray(asids, dtype=np.uint64), keys], axis=1)
    return int(np.unique(pairs, axis=0).shape[0])


def cell_errors(facts: TraceFacts, config, result) -> list:
    """Every violated property of one cell's result, as strings."""
    raw = result.raw
    llt, l1d, l2 = raw["llt"], raw["l1d"], raw["l2"]
    llc, walker, mem = raw["llc"], raw["walker"], raw["memory"]
    errors = []

    def equal(what, got, want):
        if got != want:
            errors.append(f"{what}: {got} != {want}")

    def at_least(what, got, floor):
        if got < floor:
            errors.append(f"{what}: {got} < {floor}")

    equal("instructions = records + sum(gaps)",
          result.instructions, facts.records + facts.gap_sum)
    equal("L1D hits + misses = records",
          l1d["hits"] + l1d["misses"], facts.records)
    equal("L2 lookups = L1D misses + walker memory accesses",
          l2["hits"] + l2["misses"],
          l1d["misses"] + walker["walk_memory_accesses"])
    equal("LLC lookups = L2 misses", llc["hits"] + llc["misses"],
          l2["misses"])
    if config.tlb_predictor == "distance_prefetch":
        # Prefetched translations are extra LLT fills without a miss.
        at_least("LLT fills + bypasses >= misses",
                 llt["fills"] + llt["bypasses"], llt["misses"])
    else:
        equal("LLT misses = fills + bypasses",
              llt["misses"], llt["fills"] + llt["bypasses"])
    equal("walks = LLT misses - victim-buffer hits",
          walker["walks"], llt["misses"] - llt["victim_buffer_hits"])
    equal("memory accesses = reads + writes",
          mem["accesses"], mem["reads"] + mem["writes"])
    equal("result.llc_misses = raw LLC misses",
          result.llc_misses, llc["misses"])
    equal("result.walks = raw walks", result.walks, walker["walks"])
    at_least("LLC misses >= distinct (ASID, block)",
             llc["misses"], facts.distinct_blocks)
    if config.huge_fraction == 0:
        at_least("walks >= distinct (ASID, page)",
                 walker["walks"], facts.distinct_pages)
    return errors


def records_of(result) -> int:
    """Records a result simulated (every record probes the L1D once)."""
    l1d = result.raw["l1d"]
    return l1d["hits"] + l1d["misses"]


@contextmanager
def scalar_engine():
    """Run every machine built inside on the scalar engine
    (``Machine.run_scalar``)."""
    from repro.sim import engine

    engine.set_default_engine(engine.ENGINE_SCALAR)
    try:
        yield
    finally:
        engine.set_default_engine(None)


def scalar_matches(trace, config, seed: int, result) -> bool:
    """Re-run one cell on the scalar engine (both passes of a two-pass
    oracle included) and compare ``to_wire()`` bytes."""
    from repro.sim.runner import run_trace

    with scalar_engine():
        again = run_trace(trace, config, seed=seed)
    return again.to_wire() == result.to_wire()
