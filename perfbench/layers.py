"""Which public library calls are traced, and how spans become layer metrics.

Every traced span belongs to one group.  A group's time metric is the sum of
its spans' self times; its call metric counts entries into the group, i.e.
spans whose parent is not in the same group (so ``BellPolytope.lmo`` calling
``bell_lmo`` is one oracle call).  Because every span's self time lands in
exactly one group, the group times plus the time no root span covers add up
to the traced batch's wall time.
"""

from __future__ import annotations

import numpy as np

from spans import Span, self_times, unattributed

# group -> (call-count metric, self-time metric)
GROUPS = {
    "behavior": ("correlations.behavior_calls", "correlations.behavior_s"),
    "pm_lmo": ("polytope.pm_lmo_calls", "polytope.pm_lmo_s"),
    "bell_lmo": ("polytope.bell_lmo_calls", "polytope.bell_lmo_s"),
    "vertex": ("polytope.vertex_calls", "polytope.vertex_s"),
    "fw": ("polytope.fw_calls", "polytope.fw_self_s"),
    "seesaw": ("pmbell.seesaw_calls", "pmbell.seesaw_self_s"),
    "certify": ("pmbell.certify_calls", "pmbell.certify_self_s"),
    "transfer": ("pmbell.transfer_calls", "pmbell.transfer_s"),
    "feasibility": ("jm.feasibility_calls", "jm.feasibility_s"),
    "screen": ("jm.screen_calls", "jm.screen_s"),
    "cli": ("cli.main_calls", "cli.self_s"),
}

ORACLE_GROUPS = ("pm_lmo", "bell_lmo")

# metric -> unit, in report order
UNITS = {}
for _calls, _time in GROUPS.values():
    UNITS[_calls] = "count"
    UNITS[_time] = "s"
UNITS.update(
    {
        "polytope.lmo_candidates": "count",
        "polytope.lmo_candidates_per_s": "1/s",
        "polytope.fw_iterations": "count",
        "polytope.active_vertices": "count",
        "pmbell.seesaw_outside_ratio": "ratio",
        "jm.dykstra_iterations": "count",
        "jm.decided_ratio": "ratio",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
    }
)


def _pm_candidates(args, kwargs, result) -> dict:
    """Encodings or response tables enumerated, whichever route is cheaper."""
    oracle = args[0]
    d, n_x, n_y = oracle.d, oracle.n_x, oracle.n_y
    return {"candidates": min(d**n_x, 2 ** (d * n_y))}


def _pm_lmo_candidates(args, kwargs, result) -> dict:
    M = args[0]
    d = kwargs["d"] if "d" in kwargs else args[1]
    return {"candidates": d ** len(M)}


def _bell_candidates(args, kwargs, result) -> dict:
    return {"candidates": 2 ** min(np.shape(args[0]))}


def _bell_method_candidates(args, kwargs, result) -> dict:
    oracle = args[0]
    return {"candidates": 2 ** min(oracle.n_a, oracle.n_b)}


def _membership(args, kwargs, result) -> dict:
    active = len(result.weights) if result.weights is not None else 0
    return {"status": result.status, "iterations": result.iterations, "active": active}


def _jm(args, kwargs, result) -> dict:
    return {"status": result.status, "iterations": result.iterations or 0}


def targets(incompat) -> list[tuple]:
    """(owner, attribute, span name, attrs) for every traced public entry point."""
    corr, poly, pmbell, jm, cli = (
        incompat.correlations,
        incompat.polytope,
        incompat.pmbell,
        incompat.jm,
        incompat.cli,
    )
    return [
        (corr, "pm_behavior", "behavior", None),
        (corr, "bell_behavior_phi_plus", "behavior", None),
        (corr, "pm_correlators", "behavior", None),
        (corr, "to_correlators", "behavior", None),
        (poly.PMPolytope, "lmo", "pm_lmo", _pm_candidates),
        (poly, "pm_lmo", "pm_lmo", _pm_lmo_candidates),
        (poly.BellPolytope, "lmo", "bell_lmo", _bell_method_candidates),
        (poly, "bell_lmo", "bell_lmo", _bell_candidates),
        (poly.PMPolytope, "vertex", "vertex", None),
        (poly.BellPolytope, "vertex", "vertex", None),
        (poly, "fw_membership", "fw", _membership),
        (pmbell, "seesaw_ensemble_search", "seesaw", None),
        (pmbell, "certify_incompatibility", "certify", None),
        (pmbell, "map_pm_witness_to_bell", "transfer", None),
        (jm, "jm_feasibility", "feasibility", _jm),
        (jm, "busch_pair_criterion", "screen", None),
        (jm, "noisy_pauli_triple_jm", "screen", None),
        (cli, "main", "cli", None),
    ]


def batch_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch that ran from start to end."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in UNITS}
    candidates = 0
    seesaw_fw = seesaw_outside = 0
    jm_runs = jm_decided = 0
    for s in spans:
        calls, time_metric = GROUPS[s.name]
        out[time_metric] += selfs[s.id]
        parent = by_id.get(s.parent)
        entry = parent is None or parent.name != s.name
        if entry:
            out[calls] += 1
            if s.name in ORACLE_GROUPS:
                candidates += s.attrs.get("candidates", 0)
        if s.name == "fw" and s.attrs:
            out["polytope.fw_iterations"] += s.attrs["iterations"]
            out["polytope.active_vertices"] += s.attrs["active"]
            if parent is not None and parent.name == "seesaw":
                seesaw_fw += 1
                seesaw_outside += s.attrs["status"] == "outside"
        if s.name == "feasibility" and s.attrs:
            out["jm.dykstra_iterations"] += s.attrs["iterations"]
            jm_runs += 1
            jm_decided += s.attrs["status"] == "jm"
    oracle_s = out["polytope.pm_lmo_s"] + out["polytope.bell_lmo_s"]
    out["polytope.lmo_candidates"] = float(candidates)
    out["polytope.lmo_candidates_per_s"] = candidates / oracle_s if oracle_s > 0 else 0.0
    out["pmbell.seesaw_outside_ratio"] = seesaw_outside / seesaw_fw if seesaw_fw else 0.0
    out["jm.decided_ratio"] = jm_decided / jm_runs if jm_runs else 0.0
    out["trace.spans"] = float(len(spans))
    out["trace.wall_s"] = end - start
    out["trace.unattributed_s"] = unattributed(spans, start, end)
    return out


def attributed_sum(metrics: dict[str, float]) -> float:
    """Group self times plus unattributed time; equals trace.wall_s."""
    return sum(metrics[t] for _, t in GROUPS.values()) + metrics["trace.unattributed_s"]
