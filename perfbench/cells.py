"""The (workload, config) cells each benchmark workload runs.

Cells are built from the same config helpers the experiments use
(``repro.experiments.common`` and ``repro.sim.config``), so a sweep cell
is the exact frozen config a figure or table keys its runs on. Each
config runs on one workload, assigned round-robin over a short workload
list: a round then touches every config once and every listed workload
several times, in a fixed order, so every round of every run is the
same set of operations.
"""

from __future__ import annotations

from dataclasses import replace

#: Round-robin workload list of the two sweeps: two pointer-chasing SPEC
#: kernels, one streaming one, and one graph kernel (whose trace needs
#: ``CsrGraph.random``).
SWEEP_WORKLOADS = ("mcf", "bfs", "lbm", "canneal")

#: Records per cell.
COLD_BUDGET = 4000
SENSITIVITY_BUDGET = 8000
COMPARISON_BUDGET = 4000


def _named(pairs):
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate cell names in {names}")
    return pairs


def sensitivity_configs():
    """Paper cells the flat tier models: Fig. 9 baseline and iso-storage,
    untracked dpPred+cbPred, Fig. 11a-f and the bypass/demote ablation.
    Cells a figure shares with another (the default baseline, default
    dpPred) appear once, as the run cache would dedupe them."""
    from repro.experiments import common
    from repro.sim.config import fast_config, scale_llc, scale_llt

    base = fast_config()
    dp = base.with_predictors(tlb="dppred")
    dpcb = replace(common.combined(), track_reference=False)
    llt64 = scale_llt(base, 64)
    llt192 = scale_llt(base, 192)
    llc384 = scale_llc(base, 1.5)
    srrip_llt = replace(base, tlb_policy="srrip")
    srrip_both = replace(base, tlb_policy="srrip", llc_policy="srrip")
    return _named([
        ("fig9.base", common.baseline()),
        ("fig9.iso", common.iso_storage()),
        ("dpcb.untracked", dpcb),
        ("fig11a.llt64.base", llt64),
        ("fig11a.llt64.dppred", llt64.with_predictors(tlb="dppred")),
        ("fig11a.llt128.dppred", dp),
        ("fig11a.llt192.base", llt192),
        ("fig11a.llt192.dppred", llt192.with_predictors(tlb="dppred")),
        ("fig11b.pc6vpn5", replace(dp, dppred_vpn_bits=5)),
        ("fig11b.pc10", replace(dp, dppred_pc_bits=10, dppred_vpn_bits=0)),
        ("fig11c.shadow4", replace(dp, dppred_shadow_entries=4)),
        ("fig11d.pfq64", replace(dpcb, cbpred_pfq_entries=64)),
        ("fig11e.llc384.base", llc384),
        ("fig11e.llc384.dpcb",
         llc384.with_predictors(tlb="dppred", llc="cbpred")),
        ("fig11f.srrip_llt", srrip_llt),
        ("fig11f.srrip_llt.dppred", srrip_llt.with_predictors(tlb="dppred")),
        ("fig11f.srrip_both", srrip_both),
        ("fig11f.srrip_both.dpcb",
         srrip_both.with_predictors(tlb="dppred", llc="cbpred")),
        ("ablation.demote", base.with_predictors(tlb="dppred_demote")),
    ])


def comparison_configs():
    """Paper cells the flat tier declines: reference tracking (Figs 9/10
    dpPred/cbPred, Tables VI/VII, the threshold ablation), residency and
    correlation tracking (Figs 1-4, Table III), and the other predictor
    families (SHiP, AIP, two-pass oracle, distance prefetch, Leeway,
    perceptron)."""
    from repro.experiments import common
    from repro.sim.config import fast_config

    dpt = common.dppred()
    return _named([
        ("fig9.dppred", dpt),
        ("fig10.dpcb", common.combined()),
        ("table6.dppred_sh", common.dppred_no_shadow()),
        ("table6.ship_tlb", common.ship_tlb()),
        ("table7.cbpred_nopfq", common.combined_no_pfq()),
        ("table7.ship_llc", common.ship_llc()),
        ("ablation.t1", replace(dpt, dppred_threshold=1)),
        ("ablation.t3", replace(dpt, dppred_threshold=3)),
        ("ablation.t7", replace(dpt, dppred_threshold=7)),
        ("fig1-4.char", common.characterization()),
        ("fig9.aip_tlb", common.aip_tlb()),
        ("fig10.aip_llc", common.aip_llc()),
        ("fig10.ship_both", common.ship_both()),
        ("fig10.aip_both", common.aip_both()),
        ("fig9.oracle", common.oracle_tlb()),
        ("ext.prefetch", fast_config(tlb_predictor="distance_prefetch")),
        ("frontier.leeway", common.leeway_both()),
        ("frontier.perceptron", common.perceptron_both()),
    ])


def _predicted(cfg):
    return replace(
        cfg, tlb_predictor="dppred", llc_predictor="cbpred",
        track_reference=True,
    )


def profile_cells():
    """Tenancy profiles: ``mix2`` on its own trace, ``hugepage`` on a
    streaming and a pointer-chasing workload (as the tenancy experiment
    pairs them), each as characterized baseline and dpPred+cbPred."""
    from repro.sim.config import hugepage_config, mix2_config

    cells = []
    for wl, factory in (("mix2", mix2_config), ("bfs", hugepage_config),
                        ("mcf", hugepage_config)):
        cfg = factory()
        cells.append((f"{cfg.name}.base.{wl}", wl,
                      replace(cfg, track_correlation=True)))
        cells.append((f"{cfg.name}.dpcb.{wl}", wl, _predicted(cfg)))
    return cells


def _round_robin(configs):
    return [
        (name, SWEEP_WORKLOADS[i % len(SWEEP_WORKLOADS)], cfg)
        for i, (name, cfg) in enumerate(configs)
    ]


def sweep_cells(workload: str):
    """``[(cell_name, workload, config)]`` and the budget of a sweep."""
    if workload == "sweep-sensitivity":
        return _round_robin(sensitivity_configs()), SENSITIVITY_BUDGET
    if workload == "sweep-comparison":
        cells = _round_robin(comparison_configs()) + profile_cells()
        return cells, COMPARISON_BUDGET
    raise ValueError(f"not a sweep workload: {workload}")


def cold_cells():
    """The Fig. 9/10 headline pair (LRU baseline, dpPred+cbPred with
    reference tracking) on every Table II workload, plus ``mix2`` under
    its own profile."""
    from repro.experiments import common
    from repro.sim.config import mix2_config
    from repro.workloads.suite import workload_names

    cells = []
    for wl in workload_names():
        cells.append((f"base.{wl}", wl, common.baseline()))
        cells.append((f"dpcb.{wl}", wl, common.combined()))
    mix = mix2_config()
    cells.append(("base.mix2", "mix2", mix))
    cells.append(("dpcb.mix2", "mix2", _predicted(mix)))
    return cells, COLD_BUDGET
