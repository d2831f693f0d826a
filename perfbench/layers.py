"""Per-layer metrics from spans.

A span is a dict {id, name, start, end, parent, op, attrs}.  Self time is a
span's duration minus the time its direct children cover.  Rates divide a
work count by the self time of the spans that did the work.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

# the suites the verify-suites workload runs
SUITES = ("lifting", "onedim", "transforms", "approx", "regions")

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("funcmodel.spec_from_json.calls", "count"),
    ("funcmodel.spec_from_json.self_s", "s"),
    ("funcmodel.evaluate_batch.points", "count"),
    ("funcmodel.evaluate_batch.points_per_s", "1/s"),
    ("funcmodel.barycenter.self_s", "s"),
    ("transforms.s_polar_batch.calls", "count"),
    ("transforms.s_polar_batch.points", "count"),
    ("transforms.s_polar_batch.self_s", "s"),
    ("transforms.s_polar_batch.points_per_s", "1/s"),
    ("transforms.log_polar_batch.pairs", "count"),
    ("transforms.log_polar_batch.self_s", "s"),
    ("transforms.log_polar_batch.pairs_per_s", "1/s"),
    ("transforms.legendre.calls", "count"),
    ("transforms.legendre.self_s", "s"),
    ("lifting.support_batch.calls", "count"),
    ("lifting.support_batch.directions", "count"),
    ("lifting.support_batch.self_s", "s"),
    ("lifting.support_batch.directions_per_s", "1/s"),
    ("integration.richardson_box.calls", "count"),
    ("integration.richardson_box.self_s", "s"),
    ("integration.integrate_grid.self_s", "s"),
    ("integration.split_moments.self_s", "s"),
    ("polar_integrals.phi_sphere.calls", "count"),
    ("polar_integrals.phi_sphere.self_s", "s"),
    ("polar_integrals.node_support.calls", "count"),
    ("polar_integrals.node_support.hit_ratio", "ratio"),
    ("polar_integrals.phi_oracle.calls", "count"),
    ("polar_integrals.phi_oracle.self_s", "s"),
    ("polar_integrals.phi_log.calls", "count"),
    ("polar_integrals.phi_log.self_s", "s"),
    ("polar_integrals.SphereQuadrature.build.self_s", "s"),
    ("santalo.santalo_point.calls", "count"),
    ("santalo.santalo_point.self_s", "s"),
    ("santalo.santalo_point.iterations", "count"),
    ("santalo.santalo_point.converged_ratio", "ratio"),
    ("santalo.verify_santalo.self_s", "s"),
    ("regions.region_boundary.calls", "count"),
    ("regions.region_boundary.self_s", "s"),
    ("regions.region_membership.calls", "count"),
    ("regions.region_membership.per_ray", "count"),
    ("regions.region_membership.self_s", "s"),
] + [(f"suites.{name}.busy_s", "s") for name in SUITES] + [
    ("cli.verify.parallel_ratio", "ratio"),
    ("cli.verify.report_diff_lines", "count"),
    ("workload.spec_repeat_share", "ratio"),
    ("trace.overhead_s", "s"),
]


def span_dict(sp) -> dict:
    return {"id": sp.sid, "name": sp.name, "start": sp.start, "end": sp.end,
            "parent": sp.parent, "op": sp.op, "attrs": sp.attrs}


def reindex(spans: List[dict], op: int, base: int) -> List[dict]:
    """Give spans loaded from another process fresh ids from `base` on."""
    ids = {sp["id"]: base + k for k, sp in enumerate(spans)}
    return [dict(sp, id=ids[sp["id"]], parent=ids.get(sp["parent"]), op=op)
            for sp in spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans: List[dict], records: List[dict]) -> Dict[str, float]:
    """Every PER_LAYER metric except the ones run.py fills in from two runs
    (trace.overhead_s, cli.verify.report_diff_lines)."""
    by_id = {sp["id"]: sp for sp in spans}
    child_time: Dict[int, float] = defaultdict(float)
    child_names: Dict[int, set] = defaultdict(set)
    for sp in spans:
        if sp["parent"] in by_id:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
            child_names[sp["parent"]].add(sp["name"])

    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    support_hits = 0
    memberships_under_boundary = 0
    for sp in spans:
        name = sp["name"]
        calls[name] += 1
        self_s[name] += (sp["end"] - sp["start"]) - child_time[sp["id"]]
        for key, val in sp["attrs"].items():
            if isinstance(val, (int, float)):
                counts[f"{name}.{key}"] += val
        if name == "suites.run_suite":
            busy[sp["attrs"]["suite"]] += sp["end"] - sp["start"]
        elif name == "polar_integrals.node_support":
            support_hits += "lifting.support_batch" not in child_names[sp["id"]]
        elif name == "regions.region_membership":
            parent = by_id.get(sp["parent"])
            memberships_under_boundary += (
                parent is not None and parent["name"] == "regions.region_boundary")

    m: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        layer_fn, stat = metric.rsplit(".", 1)
        if stat == "calls":
            m[metric] = calls[layer_fn]
        elif stat == "self_s":
            m[metric] = self_s[layer_fn]
    for fn, work in (("funcmodel.evaluate_batch", "points"),
                     ("transforms.s_polar_batch", "points"),
                     ("transforms.log_polar_batch", "pairs"),
                     ("lifting.support_batch", "directions")):
        m[f"{fn}.{work}"] = counts[f"{fn}.{work}"]
        m[f"{fn}.{work}_per_s"] = _ratio(counts[f"{fn}.{work}"], self_s[fn])
    m["polar_integrals.node_support.hit_ratio"] = _ratio(
        support_hits, calls["polar_integrals.node_support"])
    m["santalo.santalo_point.iterations"] = counts["santalo.santalo_point.iterations"]
    m["santalo.santalo_point.converged_ratio"] = _ratio(
        counts["santalo.santalo_point.converged"], calls["santalo.santalo_point"])
    m["regions.region_membership.per_ray"] = _ratio(
        memberships_under_boundary, counts["regions.region_boundary.rays"])
    for name in SUITES:
        m[f"suites.{name}.busy_s"] = busy[name]
    verify_wall = sum(r["latency"] for r in records if r["kind"] == "verify")
    m["cli.verify.parallel_ratio"] = _ratio(sum(busy.values()), verify_wall)
    return m
