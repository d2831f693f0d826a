"""Santalo s-regions and the infinity-region: convex sublevel sets of the
product int f * Phi(z), their radial boundaries, property checks, Hausdorff
convergence, and the lifted-body variant on K-hat_s(f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import funcmodel, integration, polar_integrals as pint, santalo, transforms
from .errors import DomainError, InputError, NumericError

__all__ = [
    "RegionQuery",
    "RegionBoundary",
    "make_query",
    "region_membership",
    "region_boundary",
    "region_properties",
    "region_convergence",
    "sp_region_membership",
    "sp_region_value",
    "hausdorff_distance",
]

INF = math.inf
TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RegionQuery:
    """Santalo region {z in co supp f : int f * Phi(z) <= threshold} with
    threshold t * kappa(d,s)^2 for finite s and t * (2 pi)^d for s = inf."""

    spec: funcmodel.FunctionSpec
    s: float
    t: float
    base_integral: float
    threshold: float
    cfg: integration.IntegrationConfig


def make_query(spec: funcmodel.FunctionSpec, s, t: float,
               cfg: Optional[integration.IntegrationConfig] = None) -> RegionQuery:
    if t < 0:
        raise InputError("t must be nonnegative")
    cfg = cfg or integration.IntegrationConfig()
    d = spec.dimension
    base, _ = pint.integrate_grid(spec, cfg)
    if s == INF:
        if not spec.is_log_concave:
            raise InputError("s = inf region requires a log-concave spec")
        thr = t * (2.0 * math.pi) ** d
    else:
        thr = t * pint.kappa(d, s) ** 2
    return RegionQuery(spec, s, t, base, thr, cfg)


def _product_at(q: RegionQuery, x: np.ndarray) -> float:
    return q.base_integral * pint.phi(q.spec, q.s, x, q.cfg).value


def _membership(q: RegionQuery, x: np.ndarray) -> Tuple[bool, Optional[float]]:
    """(member, product): whether int f * Phi(x) <= threshold, and that
    product; None where x lies outside co supp f and Phi was not evaluated,
    inf where Phi diverges.  Both of those are nonmembers."""
    if not funcmodel.conv_support_contains(q.spec, x, tol=1e-12):
        return False, None
    try:
        prod = _product_at(q, x)
    except (DomainError, NumericError):
        # divergence at or beyond the support boundary
        return False, INF
    return prod <= q.threshold * (1.0 + TIE_TOL), prod


def region_membership(q: RegionQuery, x) -> bool:
    """True iff int f * Phi(x) <= threshold; points outside co supp f or at
    which Phi diverges are nonmembers."""
    return _membership(q, np.asarray(x, dtype=float))[0]


@dataclass(frozen=True)
class RegionBoundary:
    center: np.ndarray
    rays: np.ndarray   # (n, d) unit directions
    radii: np.ndarray  # (n,)
    tolerance: float
    empty: bool = False
    evaluations: int = 0  # products int f * Phi(z) taken, the centre's included

    def points(self) -> np.ndarray:
        return self.center[None, :] + self.radii[:, None] * self.rays


def _ray_directions(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    return pint._fibonacci_sphere(n)


def _santalo_centre(q: RegionQuery) -> np.ndarray:
    """The Santalo point the region is described from; NumericError if the
    minimizer did not converge, as the region would then be built around a
    point that is not its minimizer."""
    res = santalo.santalo_point(q.spec, q.s, q.cfg, compute_moment=False)
    if not res.converged:
        raise NumericError("Santalo point minimizer did not converge")
    return res.z_star


class _Ray:
    """Evaluated probes of the ray center + r u, kept as a bracket: lo the
    farthest member and hi the nearest nonmember, each with g, the
    concave transform of its product (None where Phi diverged or was not
    evaluated).  `below` is the member lo replaced and `beyond` the next
    nonmember past hi with a g value, as (r, g)."""

    def __init__(self, q: RegionQuery, center, u, g, g_center: float):
        self.q, self.center, self.u, self.g = q, center, u, g
        self.lo, self.g_lo = 0.0, g_center
        self.hi, self.g_hi = INF, None
        self.below = self.beyond = None
        self.evaluations = 0

    def probe(self, r: float) -> bool:
        member, prod = _membership(self.q, self.center + r * self.u)
        self.evaluations += prod is not None
        g = self.g(prod) if prod is not None and prod < INF else None
        if member:
            if r > self.lo:
                self.below = (self.lo, self.g_lo)
                self.lo, self.g_lo = r, g
        elif r < self.hi:
            if self.g_hi is not None:
                self.beyond = (self.hi, self.g_hi)
            self.hi, self.g_hi = r, g
        elif r > self.hi and g is not None and (self.beyond is None or r < self.beyond[0]):
            self.beyond = (r, g)
        return member

    def solve(self, level: float, tol: float) -> float:
        """Close the bracket to tol; returns lo.  Where g is concave its
        level crossing lies right of the chord through lo and hi, and left
        of the secants through lo and `below` and through hi and
        `beyond`."""
        while self.hi > self.lo + tol:
            lo, hi = self.lo, self.hi
            left, right = lo, hi
            if self.g_hi is not None and self.g_lo > self.g_hi:
                left = lo + (hi - lo) * (self.g_lo - level) / (self.g_lo - self.g_hi)
            for a, b in ((self.below, (lo, self.g_lo)), ((hi, self.g_hi), self.beyond)):
                if a is not None and b is not None and a[1] is not None and b[1] < a[1]:
                    right = min(right, b[0] + (level - b[1]) * (b[0] - a[0]) / (b[1] - a[1]))
            probes = {left, right}
            if right - left > 0.5 * (hi - lo):
                probes.add(0.5 * (left + right))
            for r in sorted(probes):
                if lo < r < hi:
                    self.probe(r)
            if self.hi - self.lo > 0.5 * (hi - lo):  # rounding broke the bounds
                self.probe(0.5 * (self.lo + self.hi))
        return self.lo


def region_boundary(q: RegionQuery, ray_count: int = 64,
                    tol: float = 1e-7) -> RegionBoundary:
    """Radial description of the region from its Santalo point c: along
    uniformly spread rays u, the radius r with c + r u an evaluated member
    and an evaluated nonmember within tol beyond it (or the support cap,
    when that is a member).

    Each ray is a bracketed root solve in g(r) = P(r)^{-1/(d+s)}, or
    g(r) = -log P(r) at s = inf, with P(r) = int f * Phi(c + r u); the
    boundary is where g crosses its value at the threshold.  g is concave
    for the computed Phi, not only for the true one: the sphere rule is
    sum_i w_i l_i(z)^{-(d+s)} with every w_i > 0 and every l_i affine, so
    Phi^{-1/(d+s)} is a weighted power mean of affine functions with
    exponent -(d+s) < 1, which is concave; the ball and polytope closed
    forms are exact, where the paper's concavity holds; and Phi_inf is a
    positive sum of exponentials of linear functions, which is log-convex.
    Concavity makes the chord and secant steps of `_Ray.solve` close the
    bracket in a few evaluations, with a midpoint added whenever they would
    not halve it; every probe is classified by its evaluated membership,
    so the contract does not rest on it.  Every ray but the first starts by
    probing the previous radius r and r + tol, which close the bracket at
    once where the region is a ball about c.
    """
    d = q.spec.dimension
    center = _santalo_centre(q)
    p_min = _product_at(q, center)
    rays = _ray_directions(d, ray_count)
    if p_min > q.threshold * (1.0 + TIE_TOL):
        return RegionBoundary(center, rays, np.zeros(len(rays)), tol, empty=True,
                              evaluations=1)
    if p_min >= q.threshold * (1.0 - 1e-6):
        return RegionBoundary(center, rays, np.zeros(len(rays)), tol, evaluations=1)
    if q.s == INF:
        def g(p):
            return -math.log(p)
    else:
        def g(p, e=-1.0 / (d + q.s)):
            return p ** e
    level = g(q.threshold * (1.0 + TIE_TOL))
    g_center = g(p_min)
    evaluations = 1
    radii = np.empty(len(rays))
    for i, u in enumerate(rays):
        ray = _Ray(q, center, u, g, g_center)
        if i > 0:
            ray.probe(radii[i - 1])
            ray.probe(radii[i - 1] + tol)
        if q.s == INF:
            hi = 1.0
            while ray.hi == INF and (hi <= ray.lo or ray.probe(hi)):
                hi *= 2.0
                if hi > 1e6:
                    raise InputError("region appears unbounded")
            radii[i] = ray.solve(level, tol)
        else:
            top = funcmodel.support_ray_extent(q.spec, center, u) * (1.0 - 1e-9)
            member_top = ray.hi >= top and ray.probe(top)
            radii[i] = top if member_top else ray.solve(level, tol)
        evaluations += ray.evaluations
    return RegionBoundary(center, rays, radii, tol, evaluations=evaluations)


def region_properties(q: RegionQuery, samples: int = 200, seed: int = 0) -> dict:
    """Nonemptiness vs t, midpoint convexity of sampled member pairs, and
    strict-convexity margins of boundary midpoints."""
    rng = np.random.default_rng(seed)
    d = q.spec.dimension
    center = _santalo_centre(q)
    p_min = _product_at(q, center)
    nonempty = p_min <= q.threshold * (1.0 + TIE_TOL)
    report = {
        "t": q.t,
        "nonempty": nonempty,
        "min_product": p_min,
        "threshold": q.threshold,
        "convexity_checked": 0,
        "convexity_failures": 0,
        "strict_margin": None,
    }
    if not nonempty or q.threshold >= p_min * (1.0 - 1e-6) and q.threshold <= p_min * (1.0 + 1e-6):
        return report
    nb = region_boundary(q, ray_count=max(16, min(64, samples)))
    if nb.radii.max() == 0.0:
        return report
    # random member pairs via radial sampling inside the boundary
    n = samples
    dirs = rng.normal(size=(2 * n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # radius along each sampled direction by interpolation against the rays
    def radius_along(u):
        scores = nb.rays @ u
        j = int(np.argmax(scores))
        return nb.radii[j] * max(scores[j], 0.0)

    fails = 0
    checked = 0
    for i in range(n):
        r1 = radius_along(dirs[2 * i]) * rng.uniform() ** (1.0 / d)
        r2 = radius_along(dirs[2 * i + 1]) * rng.uniform() ** (1.0 / d)
        a = center + 0.95 * r1 * dirs[2 * i]
        b = center + 0.95 * r2 * dirs[2 * i + 1]
        if not (region_membership(q, a) and region_membership(q, b)):
            continue
        checked += 1
        if not region_membership(q, 0.5 * (a + b)):
            fails += 1
    report["convexity_checked"] = checked
    report["convexity_failures"] = fails
    # strict convexity: boundary midpoints land strictly inside
    pts = nb.points()
    margins = []
    for i in range(min(len(pts), 32)):
        j = (i + len(pts) // 3) % len(pts)
        mid = 0.5 * (pts[i] + pts[j])
        if np.allclose(pts[i], pts[j]):
            continue
        try:
            margins.append(q.threshold - _product_at(q, mid))
        except DomainError:
            margins.append(-math.inf)
    if margins:
        report["strict_margin"] = float(min(margins))
    return report


def hausdorff_distance(P: np.ndarray, Q: np.ndarray) -> float:
    d1 = np.max(np.min(np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2), axis=1))
    d2 = np.max(np.min(np.linalg.norm(Q[:, None, :] - P[None, :, :], axis=2), axis=1))
    return float(max(d1, d2))


def region_convergence(spec: funcmodel.FunctionSpec, t: float,
                       s_schedule: Sequence[float],
                       cfg: Optional[integration.IntegrationConfig] = None,
                       ray_count: int = 128) -> list:
    """Hausdorff distances between the s-regions of f_s and the
    infinity-region of f along an s-schedule."""
    if not spec.is_log_concave:
        raise InputError("region_convergence expects a log-concave spec")
    if not t > 1:
        raise InputError("convergence study needs t > 1 (nonempty interiors)")
    cfg = cfg or integration.IntegrationConfig()
    q_inf = make_query(spec, INF, t, cfg)
    b_inf = region_boundary(q_inf, ray_count)
    P_inf = b_inf.points()
    rows = []
    for s in s_schedule:
        fs = transforms.s_approx(spec, s)
        q_s = make_query(fs, s, t, cfg)
        b_s = region_boundary(q_s, ray_count)
        if b_s.empty:
            rows.append({"s": s, "warning": "empty region"})
            continue
        rows.append({"s": s, "hausdorff": hausdorff_distance(b_s.points(), P_inf)})
    return rows


def sp_region_value(spec: funcmodel.FunctionSpec, s: float, w,
                    cfg: Optional[integration.IntegrationConfig] = None) -> float:
    """int f times the spherical functional of the lifted body shifted by the
    full (d+1)-vector w (`polar_integrals._sphere_functional`).  On the slice
    w = (z, 0) that functional is Phi(z)."""
    cfg = cfg or integration.IntegrationConfig()
    d = spec.dimension
    w = np.asarray(w, dtype=float)
    if w.shape != (d + 1,):
        raise InputError("w must be a (d+1)-vector")
    val = pint._sphere_functional(spec, s, w)[0]
    base, _ = pint.integrate_grid(spec, cfg)
    return base * val


def sp_region_membership(spec: funcmodel.FunctionSpec, s: float, t: float,
                         w, cfg: Optional[integration.IntegrationConfig] = None) -> bool:
    """Membership of w in the lifted Santalo region on K-hat_s(f); the
    horizontal slice w = (z, 0) agrees with the finite-s region at z."""
    try:
        val = sp_region_value(spec, s, w, cfg)
    except DomainError:
        return False
    thr = t * pint.kappa(spec.dimension, s) ** 2
    return val <= thr * (1.0 + TIE_TOL)
