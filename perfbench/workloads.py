"""Workload inputs, ops and their references.

Inputs come only from the seed: `generate(workload, seed, cycles)` returns
plain JSON-able op descriptions (spec documents as JSON text plus the op's
parameters) and never calls polarlab, so the program sees nothing but the
generated inputs.  Ops are issued in cycles; each cycle holds a fixed multiset
of op kinds in a seed-shuffled order, so every run has the same mix and the
latency percentiles fall inside known op kinds' cost bands (see README.md).

`run_op(op, ctx)` executes one op against polarlab and checks its result
against a reference.  It returns an `Outcome`; a miss or an exception is a
failed op.  Failures that match a defect recorded in `KNOWN_DEFECTS` are
labelled with its key; any other failure is labelled "unexpected" and makes
the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

S_GRID = (0.5, 1.0, 2.0, 5.0)
XCHECK_TOL = 1e-3      # phi_sphere vs phi_oracle, relative
KAPPA_TOL = 1e-6       # phi_sphere of unshifted hhat at 0 vs kappa(d, s)
CENTER_TOL = 1e-6      # Santalo point of an even spec vs its centre
CLOSED_FORM_TOL = 1e-3  # log-concave closed forms, relative
SANTALO_SLACK = 1e-6   # product <= bound * (1 + SANTALO_SLACK)
POLAR_TOL = 1e-6       # accuracy of an s-polar value, as in the self-polarity cases
REGION_T = (1.5, 3.0)  # threshold factors; t >= 1 makes the region nonempty
RAYS = 16
MEMBERSHIP_POINTS = 20
CONVERGENCE_SCHEDULE = (4.0, 16.0, 64.0, 256.0)

# Defects present at the commit that introduced this benchmark, each with the
# largest error it may show: about twice the worst seen over many seeds (the
# measured worst is in the comment).  An op that fails with one of these
# signatures, within its limit, still counts as failed (fail_ratio, "failed");
# it only keeps the run's "correct" flag true, like an xfail test.  A failure
# beyond the limit is unexpected.  None: the signature is an exception type.
KNOWN_DEFECTS: Dict[str, Optional[float]] = {
    # a grid_profile with d >= 2 raises ValueError while its spec is built
    # (ROADMAP 4a)
    "grid-profile-d2": None,
    # phi_sphere vs phi_oracle on polytope indicators with d >= 2, relative
    # (worst 2.8e-2 on d = 3 simplices, 1.7e-3 on d = 2 boxes)
    "polytope-sphere-oracle": 5e-2,
    # phi_sphere vs phi_oracle on log_approx of exp_neg_norm (cusp at 0),
    # relative; it peaks at s = 5, z at 35% of the support radius and a few
    # scales (worst 7.9e-3 on a fine scan of those; 6.1e-3 in 1920 ops)
    "exp-neg-norm-cusp": 1.5e-2,
    # the d = 3 sphere rule is not centrally symmetric, so the Santalo point of
    # the even d = 3 box is off its centre (1.0e-4 in the largest coordinate)
    "d3-off-centre": 2e-4,
    # hyperplane_point draws its line through the unnormalized half-space
    # moments, so on a spec not centred at 0 the lambda-Santalo bound fails:
    # product / bound - 1 (worst 1.48 on the shifted ball)
    "hyperplane-off-origin": 2.0,
    # phi_log of exp_neg_norm misses its closed form because the Legendre
    # search box is truncated: relative error of Phi_inf (worst 4.9%) and of
    # the infinity-region radius (worst 6.0%)
    "exp-neg-norm-log-polar": 0.08,
    # on some seeds verify fails a self_polar_finite case (radial minimizer
    # accuracy, ROADMAP 2a): s_polar_batch of hhat misses hhat next to the
    # support boundary, so the error depends on how close the seed's random
    # points fall to it.  The failing case's negative slack: 4.0e-4 at worst
    # on the seeds seen; a fine scan of the distance to the boundary gives at
    # most 1.35e-2 (s = 0.5, 3e-9 inside)
    "verify-minimizer-seed": 3e-2,
    # on some seeds verify fails lift_hhat_unit_ball: the lifted support of
    # hhat misses 1 by more than 1e-8 for directions near the equator.  The
    # negative slack: at most 1.1e-7 on a dense scan of directions
    "verify-lift-support-seed": 2.5e-7,
    # verify's Monte Carlo cases (integer_lift_*, mahler_lift_identity) pass
    # within three standard errors, so each fails by chance on a few seeds in
    # a thousand: the deviation in standard errors (worst 5.3, on
    # mahler_lift_identity, over about 3000 seeds; the next worst 3.8)
    "verify-monte-carlo-tail": 10.0,
}

# Op kinds per cycle.  The counts set which op kind's cost band holds the
# median and the 90th percentile; README.md lists the resulting bands.
CYCLES: Dict[str, Dict[str, int]] = {
    "oracle-xcheck": {
        "ind1-ball": 3, "ind1-box": 2, "ind2-ball": 4, "ind2-box": 1,
        "rad1-hhat": 12, "rad1-logapprox-gaussian": 6, "rad1-logapprox-exp": 6,
        "rad1-kappa": 4, "ind3-ball": 4, "ind3-simplex": 1, "rad2-hhat": 1,
    },
    "santalo-regions": {  # "op:pool entry"; "any" draws the op
        **{f"{op}:{name}": 1 for op in ("region", "hyperplane", "membership")
           for name in ("hhat-d1", "box-d1", "fs-gaussian-d1", "grid-d1")},
        "membership:ball-d2": 1, "membership:shifted-ball-d2": 1,
        "membership:ball-d3": 1, "membership:box-d3": 1,
        "region:ball-d2": 18, "hyperplane:ball-d2": 2,
        "region:shifted-ball-d2": 1, "hyperplane:shifted-ball-d2": 1,
        "region:hhat-d2": 1, "hyperplane:hhat-d2": 1, "membership:hhat-d2": 1,
        "hyperplane:fs-gaussian-d2": 1, "membership:fs-gaussian-d2": 1,
        "region:fs-gaussian-d2": 5,
        "any:grid-d2": 1, "region:box-d3": 1,
    },
    "log-concave": {
        "phi-inf:gaussian": 24, "phi-inf:exp": 1, "santalo-inf:gaussian": 10,
        "santalo-inf:exp": 3, "region-inf:gaussian": 7, "region-inf:exp": 1,
        "convergence:gaussian": 4, "region-inf:gaussian:d2": 1,
    },
    "verify-suites": {  # the suites of one invocation, joined by "+"
        "lifting+onedim": 4, "transforms": 1, "approx+regions": 1,
    },
}
WORKLOADS = tuple(CYCLES)
# Ops per timed run at least: ten samples beyond the 90th percentile
# (oracle-xcheck: three cycles, log-concave: two).  santalo-regions runs four
# cycles, about 30 s: a host's speed can drift by 30% and more over a few
# seconds, and its light region ops feel that most.  A verify op is a whole
# CLI invocation, so that workload runs two cycles and reports p90 from few
# samples.
MIN_OPS = {"oracle-xcheck": 100, "santalo-regions": 4 * 50, "log-concave": 100,
           "verify-suites": 12}
# Exit code of `polarlab verify` when a case fails
SUITE_FAILURE_EXIT = 3


@dataclass
class Outcome:
    ok: bool
    result: str            # canonical text of the op's result (bit-exact floats)
    failure: Optional[str] = None  # KNOWN_DEFECTS key, or "unexpected: ..."
    extra: Optional[dict] = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _canon(obj) -> str:
    """JSON text with floats in repr form, so equal text means equal bits."""
    def conv(o):
        if isinstance(o, (float, np.floating)):
            return repr(float(o))
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        if isinstance(o, np.ndarray):
            return [conv(v) for v in o.tolist()]
        if isinstance(o, dict):
            return {k: conv(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [conv(v) for v in o]
        return o
    return json.dumps(conv(obj), sort_keys=True)


# ---------------------------------------------------------------------------
# spec documents (plain dicts; polarlab parses them inside the op)


def _vec(a) -> list:
    return [float(v) for v in a]


def doc_hhat(d, e):
    return {"dimension": d, "class": {"s": float(e)},
            "family": {"kind": "hhat_power", "s_exponent": float(e)}}


def doc_shifted(inner, offset):
    return {"dimension": inner["dimension"], "class": inner["class"],
            "family": {"kind": "shifted", "inner": inner, "offset": _vec(offset)}}


def doc_gaussian(c, sigma):
    return {"dimension": len(c), "class": "log",
            "family": {"kind": "gaussian", "center": _vec(c), "sigma": float(sigma)}}


def doc_exp(d, scale):
    return {"dimension": d, "class": "log",
            "family": {"kind": "exp_neg_norm", "scale": float(scale)}}


def doc_log_approx(inner, s):
    return {"dimension": inner["dimension"], "class": {"s": float(s)},
            "family": {"kind": "log_approx", "inner": inner, "s": float(s)}}


def doc_ball(c, radius, s):
    return {"dimension": len(c), "class": {"s": float(s)},
            "family": {"kind": "ball_indicator", "center": _vec(c),
                       "radius": float(radius)}}


def doc_polytope(vertices, s):
    V = np.asarray(vertices, dtype=float)
    return {"dimension": V.shape[1], "class": {"s": float(s)},
            "family": {"kind": "polytope_indicator",
                       "vertices": [_vec(v) for v in V]}}


def doc_grid(origin, spacing, values, s):
    return {"dimension": len(origin), "class": {"s": float(s)},
            "family": {"kind": "grid_profile", "origin": _vec(origin),
                       "spacing": float(spacing),
                       "values": np.asarray(values, dtype=float).tolist()}}


def _unit(rng, d):
    u = rng.normal(size=d)
    return u / np.linalg.norm(u)


def _in_ball(rng, d, radius):
    """Uniform point of the ball of the given radius."""
    return _unit(rng, d) * radius * rng.uniform() ** (1.0 / d)


def _box(rng, d):
    half = rng.uniform(0.6, 1.4, size=d)
    mid = rng.uniform(-0.3, 0.3, size=d)
    corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    return mid + corners * half, mid, half


def _simplex(rng, d):
    V = np.vstack([np.zeros(d), np.eye(d)]) * rng.uniform(0.8, 1.6)
    V = V + rng.uniform(-0.1, 0.1, size=V.shape)
    return V


# ---------------------------------------------------------------------------
# oracle-xcheck inputs


def _xcheck_op(slot: str, rng, s: float) -> dict:
    kind, _, family = slot.partition("-logapprox-")
    shrink = 0.35
    if family:
        return _xcheck_logapprox(rng, int(kind[3]), s, family)
    d = int(slot[3])
    shape = slot.split("-")[1]
    if shape in ("hhat", "kappa"):
        if shape == "kappa":  # unshifted hhat^s at 0: Phi(0) = kappa(d, s)
            doc, z = doc_hhat(d, s), np.zeros(d)
        else:
            off = rng.uniform(-0.5, 0.5, size=d)
            doc = doc_shifted(doc_hhat(d, float(rng.choice(S_GRID))), off)
            z = off + _in_ball(rng, d, shrink)
    elif shape == "ball":
        c = rng.uniform(-0.5, 0.5, size=d)
        R = rng.uniform(0.6, 1.5)
        doc = doc_ball(c, R, s)
        z = c + _in_ball(rng, d, shrink * R)
    elif shape == "box":
        V, mid, half = _box(rng, d)
        doc = doc_polytope(V, s)
        z = mid + shrink * half * rng.uniform(-1.0, 1.0, size=d)
    else:
        V = _simplex(rng, d)
        doc = doc_polytope(V, s)
        w = (1.0 - shrink) / (d + 1) + shrink * rng.dirichlet(np.ones(d + 1))
        z = w @ V
    return {"kind": slot, "shape": shape, "spec": json.dumps(doc), "s": s,
            "z": _vec(z)}


def _xcheck_logapprox(rng, d, s, family):
    if family == "gaussian":
        c = rng.uniform(-0.4, 0.4, size=d)
        sigma = rng.uniform(0.5, 1.5)
        inner = doc_gaussian(c, sigma)
        radius = sigma * math.sqrt(2.0 * s)  # support of f_s
    else:
        c = np.zeros(d)
        a = rng.uniform(0.7, 2.0)
        inner = doc_exp(d, a)
        radius = s / a
    z = c + _in_ball(rng, d, 0.35 * radius)
    return {"kind": f"rad{d}-logapprox-{family}", "shape": "logapprox",
            "spec": json.dumps(doc_log_approx(inner, s)), "s": s, "z": _vec(z)}


# ---------------------------------------------------------------------------
# santalo-regions inputs: a fixed pool of spec documents reused across ops


def santalo_pool() -> List[dict]:
    """Eleven documents, the same for every seed so that op costs do not
    depend on it; `center` is the symmetry centre of each (all are even
    about it), `extent` a radius inside which the support lies."""
    pool = []

    def add(name, doc, center, extent):
        pool.append({"name": name, "spec": json.dumps(doc),
                     "d": doc["dimension"], "s": doc["class"]["s"],
                     "center": _vec(center), "extent": float(extent)})

    for d in (1, 2):
        add(f"hhat-d{d}", doc_hhat(d, 2.0), np.zeros(d), 1.0)
    add("ball-d2", doc_ball(np.zeros(2), 1.0, 1.0), np.zeros(2), 1.0)
    off = np.array([0.5, -0.3])
    add("shifted-ball-d2", doc_shifted(doc_ball(np.zeros(2), 1.3, 1.0), off), off, 1.3)
    add("ball-d3", doc_ball(np.zeros(3), 1.0, 1.0), np.zeros(3), 1.0)
    add("box-d1", doc_polytope([[-1.0], [1.0]], 1.0), np.zeros(1), 1.0)
    corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * 3), indexing="ij"),
                       axis=-1).reshape(-1, 3)
    half3 = np.array([1.0, 0.8, 1.2])
    add("box-d3", doc_polytope(corners * half3, 1.0), np.zeros(3),
        float(np.linalg.norm(half3)))
    for d in (1, 2):
        add(f"fs-gaussian-d{d}", doc_log_approx(doc_gaussian(np.zeros(d), 1.0), 2.0),
            np.zeros(d), 2.0)
    for d in (1, 2):
        x = np.linspace(-1.0, 1.0, 9)
        r2 = sum(m * m for m in np.meshgrid(*([x] * d), indexing="ij"))
        add(f"grid-d{d}", doc_grid([-1.0] * d, 0.25, np.maximum(0.0, 1.0 - r2), 2.0),
            np.zeros(d), math.sqrt(d))
    return pool


def _santalo_op(slot: str, rng, pool) -> dict:
    kind, name = slot.split(":")
    if kind == "any":
        kind = str(rng.choice(("region", "hyperplane", "membership")))
    idx = [p["name"] for p in pool].index(name)
    p = pool[idx]
    d = p["d"]
    op = {"kind": kind, "pool": idx,
          "t": float(rng.uniform(*REGION_T))}
    if kind == "hyperplane":
        a = _unit(rng, d)
        op["normal"] = _vec(a)
        op["offset"] = float(a @ np.asarray(p["center"])
                             + rng.uniform(-0.3, 0.3) * p["extent"])
    elif kind == "membership":
        op["direction"] = _vec(_unit(rng, d))
    return op


# ---------------------------------------------------------------------------
# log-concave inputs


def _log_spec(rng, d, family):
    if family == "gaussian":
        c = rng.uniform(-0.5, 0.5, size=d)
        sigma = float(rng.uniform(0.6, 1.4))
        return doc_gaussian(c, sigma), {"family": "gaussian", "c": _vec(c),
                                       "sigma": sigma}
    a = float(rng.uniform(0.8, 1.6))
    return doc_exp(d, a), {"family": "exp", "c": [0.0] * d, "scale": a}


def _log_op(slot: str, rng) -> dict:
    kind, family, *dim = slot.split(":")
    d = 2 if dim else 1
    doc, ref = _log_spec(rng, d, family)
    op = {"kind": kind, "spec": json.dumps(doc), "ref": ref,
          "grid": 64 if d == 2 else None}
    c = np.asarray(ref["c"])
    if kind == "phi-inf":
        scale = ref["sigma"] if family == "gaussian" else 1.0 / ref["scale"]
        op["z"] = _vec(c + _in_ball(rng, d, scale))
    elif kind == "region-inf":
        op["t"] = float(rng.uniform(*REGION_T))
    elif kind == "convergence":
        op["x"] = _vec(rng.uniform(-1.0, 1.0, size=1) / ref["sigma"])
    return op


# ---------------------------------------------------------------------------
# generation


def generate(workload: str, seed: int, cycles: int) -> Tuple[dict, List[dict]]:
    """(shared inputs, ops) for `cycles` cycles of the workload."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    shared: dict = {"seed": int(seed)}
    if workload == "santalo-regions":
        shared["pool"] = santalo_pool()
    ops = []
    for cycle in range(cycles):
        # each slot's ops take the values of s in turn, so every cycle of
        # oracle-xcheck draws the same s mix
        slots = [(k, S_GRID[(cycle * n + j) % len(S_GRID)])
                 for k, n in CYCLES[workload].items() for j in range(n)]
        for i in rng.permutation(len(slots)):
            slot, s = slots[i]
            if workload == "oracle-xcheck":
                op = _xcheck_op(slot, rng, s)
            elif workload == "santalo-regions":
                op = _santalo_op(slot, rng, shared["pool"])
            elif workload == "log-concave":
                op = _log_op(slot, rng)
            else:  # each invocation draws its own verify seed
                op = {"kind": "verify", "suites": slot.split("+"),
                      "seed": int(rng.integers(2**31))}
            op["slot"] = slot
            ops.append(op)
    return shared, ops


def inputs_digest(shared: dict, ops: List[dict]) -> str:
    h = hashlib.sha256(json.dumps(shared, sort_keys=True).encode())
    for op in ops:
        h.update(json.dumps(op, sort_keys=True).encode())
    return h.hexdigest()


def cycle_length(workload: str) -> int:
    return sum(CYCLES[workload].values())


def quadratures(workload: str, shared: dict) -> List[Tuple[int, float]]:
    """(d, s) of the process-wide sphere rules a workload's ops use."""
    if workload == "oracle-xcheck":
        return [(d, s) for d in (1, 2, 3) for s in S_GRID]
    if workload == "santalo-regions":
        return sorted({(p["d"], p["s"]) for p in shared["pool"]})
    return []


# ---------------------------------------------------------------------------
# execution and references


def _fail(result, label) -> Outcome:
    return Outcome(False, _canon(result), label)


def _known(key: str, error: float) -> str:
    """Failure label: the defect's key while `error` lies within its limit."""
    limit = KNOWN_DEFECTS[key]
    if error <= limit:
        return key
    return f"unexpected: {key} error {error:.3g} above its limit {limit:g}"


def run_xcheck(op, ctx) -> Outcome:
    from polarlab import funcmodel, polar_integrals as pint

    spec = funcmodel.spec_from_json(op["spec"])
    text = funcmodel.spec_to_json(spec)
    spec = funcmodel.spec_from_json(text)
    if funcmodel.spec_to_json(spec) != text:
        return _fail({"roundtrip": False}, "unexpected: spec JSON round trip")
    s, z = op["s"], np.asarray(op["z"])
    vs = pint.phi_sphere(spec, s, z).value
    vo = pint.phi_oracle(spec, s, z).value
    result = {"sphere": vs, "oracle": vo}
    rel = abs(vs - vo) / abs(vo)
    if op["shape"] == "kappa":
        k = pint.kappa(spec.dimension, s)
        if abs(vs - k) / k > KAPPA_TOL:
            return _fail(result, "unexpected: phi_sphere(hhat, 0) != kappa(d, s)")
    if rel > XCHECK_TOL:
        if op["shape"] in ("box", "simplex") and spec.dimension >= 2:
            return _fail(result, _known("polytope-sphere-oracle", rel))
        if op["kind"].endswith("logapprox-exp"):
            return _fail(result, _known("exp-neg-norm-cusp", rel))
        return _fail(result, "unexpected: phi_sphere vs phi_oracle")
    return Outcome(True, _canon(result))


def run_santalo(op, ctx) -> Outcome:
    from polarlab import funcmodel, regions, santalo

    p = ctx["pool"][op["pool"]]
    try:
        spec = funcmodel.spec_from_json(p["spec"])
    except ValueError as exc:
        if p["name"] == "grid-d2" and type(exc) is ValueError:
            return _fail({"raised": "ValueError"}, "grid-profile-d2")
        raise
    s, d = p["s"], p["d"]
    center = np.asarray(p["center"])
    if op["kind"] == "hyperplane":
        H = santalo.Hyperplane.of(op["normal"], op["offset"])
        rep = santalo.verify_santalo(spec, s, H)
        result = {k: rep[k] for k in ("lambda", "z", "product", "bound", "pass")}
        if not (rep["pass"] and rep["product"] <= rep["bound"] * (1.0 + SANTALO_SLACK)):
            if np.any(center != 0.0):
                return _fail(result, _known("hyperplane-off-origin",
                                            rep["product"] / rep["bound"] - 1.0))
            return _fail(result, "unexpected: lambda-Santalo bound")
        return Outcome(True, _canon(result))
    q = regions.make_query(spec, s, op["t"])
    if op["kind"] == "region":
        b = regions.region_boundary(q, ray_count=RAYS)
        result = {"center": b.center, "radii": b.radii, "empty": b.empty}
        if b.empty or not np.all(np.isfinite(b.radii)) or np.any(b.radii <= 0.0):
            return _fail(result, "unexpected: region empty or degenerate")
        off = float(np.max(np.abs(b.center - center)))
        if off > CENTER_TOL:
            return _fail(result, _known("d3-off-centre", off) if d == 3
                         else "unexpected: Santalo point of an even spec off-centre")
        return Outcome(True, _canon(result))
    # membership: the centre of an even spec is its Santalo point, a member for
    # t >= 1; along a ray from it membership is monotone (convex region)
    u = np.asarray(op["direction"])
    radii = p["extent"] * 1.1 * np.arange(MEMBERSHIP_POINTS) / (MEMBERSHIP_POINTS - 1)
    member = [bool(regions.region_membership(q, center + r * u)) for r in radii]
    result = {"member": member}
    first_out = member.index(False) if False in member else len(member)
    if not member[0] or any(member[first_out:]):
        return _fail(result, "unexpected: membership not monotone from the centre")
    return Outcome(True, _canon(result))


def _phi_inf_exact(ref, z) -> float:
    from scipy import special

    z = np.asarray(z, dtype=float)
    d = len(z)
    if ref["family"] == "gaussian":
        sg = ref["sigma"]
        r2 = float(np.sum((z - np.asarray(ref["c"])) ** 2))
        return (2.0 * math.pi / sg**2) ** (d / 2) * math.exp(r2 / (2.0 * sg**2))
    a = ref["scale"]
    r = float(np.linalg.norm(z))
    if d == 1:
        return 2.0 * a if r == 0 else 2.0 * math.sinh(a * r) / r
    return math.pi * a * a if r == 0 else 2.0 * math.pi * a * special.i1(a * r) / r


def _mass_exact(ref, d) -> float:
    if ref["family"] == "gaussian":
        return (2.0 * math.pi * ref["sigma"] ** 2) ** (d / 2)
    a = ref["scale"]
    return 2.0 / a if d == 1 else 2.0 * math.pi / a**2


def _region_radius_exact(ref, d, t) -> float:
    from scipy import optimize

    if ref["family"] == "gaussian":
        return ref["sigma"] * math.sqrt(2.0 * math.log(t))
    mass = _mass_exact(ref, d)
    thr = t * (2.0 * math.pi) ** d

    def gap(r):
        return mass * _phi_inf_exact(ref, [r] + [0.0] * (d - 1)) - thr

    return optimize.brentq(gap, 1e-9, 50.0, xtol=1e-14)


def run_log(op, ctx) -> Outcome:
    from polarlab import funcmodel, integration, polar_integrals as pint
    from polarlab import regions, santalo, transforms

    spec = funcmodel.spec_from_json(op["spec"])
    ref = op["ref"]
    d = spec.dimension
    cfg = integration.IntegrationConfig(resolution=op["grid"])
    c = np.asarray(ref["c"])
    kind = op["kind"]

    def miss(error, what):  # exp_neg_norm misses within its known defect
        if ref["family"] == "exp":
            return _known("exp-neg-norm-log-polar", error)
        return f"unexpected: {what}"

    if kind == "phi-inf":
        val = pint.phi_log(spec, op["z"], cfg)
        want = _phi_inf_exact(ref, op["z"])
        err = abs(val - want) / want
        if err > CLOSED_FORM_TOL:
            return _fail({"value": val}, miss(err, "Phi_inf closed form"))
        return Outcome(True, _canon({"value": val}))
    if kind == "santalo-inf":
        res = santalo.santalo_point(spec, math.inf, cfg)
        result = {"z_star": res.z_star, "phi_min": res.phi_min,
                  "iterations": res.iterations, "converged": res.converged}
        if not res.converged or np.max(np.abs(res.z_star - c)) > CENTER_TOL:
            return _fail(result, "unexpected: Santalo point of an even spec")
        return Outcome(True, _canon(result))
    if kind == "region-inf":
        q = regions.make_query(spec, math.inf, op["t"], cfg)
        b = regions.region_boundary(q, ray_count=RAYS)
        result = {"center": b.center, "radii": b.radii}
        want = _region_radius_exact(ref, d, op["t"])
        if np.max(np.abs(b.center - c)) > CENTER_TOL:
            return _fail(result, "unexpected: infinity-region centre")
        err = float(np.max(np.abs(b.radii - want))) / want
        if err > CLOSED_FORM_TOL:
            return _fail(result, miss(err, "infinity-region radius"))
        return Outcome(True, _canon(result))
    # convergence: pointwise gaps shrink along the schedule (down to the
    # accuracy of the s-polar values); L_inf f(x) and the Mahler product match
    # the Gaussian closed forms
    x = np.asarray(op["x"])
    rows = transforms.convergence_study(spec, [tuple(x)], CONVERGENCE_SCHEDULE, cfg)
    result = {"rows": [[r.get("L_s_value"), r.get("L_inf_value"), r.get("gap"),
                        r.get("mahler_s"), r.get("mahler_inf"), r.get("warning")]
                       for r in rows]}
    if any("warning" in r for r in rows):
        return _fail(result, "unexpected: convergence point flagged at the boundary")
    sg = ref["sigma"]
    linf = math.exp(-float(c @ x) - 0.5 * sg**2 * float(x @ x))
    mahler = _mass_exact(ref, 1) * _phi_inf_exact(ref, [0.0])
    gaps = [r["gap"] for r in rows]
    ok = (all(abs(r["L_inf_value"] - linf) <= CLOSED_FORM_TOL * linf for r in rows)
          and all(abs(r["mahler_inf"] - mahler) <= CLOSED_FORM_TOL * mahler for r in rows)
          and all(b <= a + POLAR_TOL for a, b in zip(gaps, gaps[1:])))
    if not ok:
        return _fail(result, "unexpected: convergence table")
    return Outcome(True, _canon(result))


def run_verify(op, ctx) -> Outcome:
    """One `polarlab verify` subprocess over the op's suites, with the op's
    seed and --threads = nproc.  Pass: exit code 0 and no failing case."""
    out = os.path.join(ctx["out_dir"], f"verify-{ctx['tag']}-{ctx['op_index']}.jsonl")
    args = ["verify"] + [a for name in op["suites"] for a in ("--suite", name)]
    args += ["--seed", str(op["seed"]), "--threads", str(ctx["nproc"]), "--out", out]
    if ctx["traced"]:
        spans = f"{out}.spans.json"
        cmd = [sys.executable, os.path.join(ctx["bench_dir"], "traced_cli.py"), spans] + args
    else:
        spans = None
        cmd = [sys.executable, "-m", "polarlab.cli"] + args
    proc = subprocess.run(cmd, env=ctx["env"], capture_output=True, text=True)
    cases = []
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            cases = [row for row in map(json.loads, fh) if "name" in row]
    result = {"exit": proc.returncode,
              "cases": [(c["suite"], c["name"], bool(c["pass"])) for c in cases]}
    extra = {"report": out, "spans": spans}
    failing = [c for c in cases if not c["pass"]]
    if proc.returncode == 0 and cases and not failing:
        return Outcome(True, _canon(result), extra=extra)
    if proc.returncode == SUITE_FAILURE_EXIT and failing:
        labels = [_verify_case_label(c) for c in failing]
        label = next((x for x in labels if x not in KNOWN_DEFECTS), labels[0])
    else:
        label = (f"unexpected: verify exit {proc.returncode}: "
                 f"{proc.stderr.strip()[-200:]}")
    return Outcome(False, _canon(result), label, extra)


def _verify_case_label(case: dict) -> str:
    """Failure label of one failing case of a verify report."""
    name, slack = case["name"], float(case["slack"])
    if name.startswith("self_polar_finite_d"):
        return _known("verify-minimizer-seed", -slack)
    if name == "lift_hhat_unit_ball":
        return _known("verify-lift-support-seed", -slack)
    if name.startswith("integer_lift_"):  # slack = 3 se - |estimate - exact|
        se = float(case["sigma"])
        return _known("verify-monte-carlo-tail", 3.0 - slack / se)
    if name == "mahler_lift_identity":  # slack = 3 se - |lhs - rhs|
        dev = abs(float(case["lhs"]) - float(case["rhs"]))
        return _known("verify-monte-carlo-tail", 3.0 * dev / (slack + dev))
    return f"unexpected: verify case {name} failed (slack {slack:.3g})"


RUNNERS: Dict[str, Callable] = {
    "oracle-xcheck": run_xcheck,
    "santalo-regions": run_santalo,
    "log-concave": run_log,
    "verify-suites": run_verify,
}


def run_op(workload: str, op: dict, ctx: dict) -> Outcome:
    """Execute and check one op; exceptions become unexpected failures."""
    try:
        return RUNNERS[workload](op, ctx)
    except Exception as exc:  # an op that raises is a failed op, never a crash
        return _fail({"raised": type(exc).__name__, "message": str(exc)[:200]},
                     f"unexpected: {type(exc).__name__}: {str(exc)[:120]}")
