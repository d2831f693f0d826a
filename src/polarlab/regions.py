"""Santalo s-regions and the infinity-region: convex sublevel sets of the
product int f * Phi(z), their radial boundaries, property checks, Hausdorff
convergence, and the lifted-body variant on K-hat_s(f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    if q.s == INF:
        return q.base_integral * pint.phi_log(q.spec, x, q.cfg)
    return q.base_integral * pint.phi_sphere(q.spec, q.s, x).value


def region_membership(q: RegionQuery, x) -> bool:
    """True iff int f * Phi(x) <= threshold; points outside co supp f or at
    which Phi diverges are nonmembers."""
    x = np.asarray(x, dtype=float)
    if not funcmodel.conv_support_contains(q.spec, x, tol=1e-12):
        return False
    try:
        prod = _product_at(q, x)
    except (DomainError, NumericError):
        # divergence at or beyond the support boundary: nonmember
        return False
    return prod <= q.threshold * (1.0 + TIE_TOL)


@dataclass(frozen=True)
class RegionBoundary:
    center: np.ndarray
    rays: np.ndarray   # (n, d) unit directions
    radii: np.ndarray  # (n,)
    tolerance: float
    empty: bool = False

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


def region_boundary(q: RegionQuery, ray_count: int = 64,
                    tol: float = 1e-7) -> RegionBoundary:
    """Radial description of the region from its Santalo point: bisection
    along uniformly spread rays to the membership boundary."""
    d = q.spec.dimension
    center = _santalo_centre(q)
    p_min = _product_at(q, center)
    rays = _ray_directions(d, ray_count)
    if p_min > q.threshold * (1.0 + TIE_TOL):
        return RegionBoundary(center, rays, np.zeros(len(rays)), tol, empty=True)
    if p_min >= q.threshold * (1.0 - 1e-6):
        return RegionBoundary(center, rays, np.zeros(len(rays)), tol)
    radii = np.empty(len(rays))
    for i, u in enumerate(rays):
        if q.s == INF:
            hi = 1.0
            while region_membership(q, center + hi * u):
                hi *= 2.0
                if hi > 1e6:
                    raise InputError("region appears unbounded")
        else:
            cap = funcmodel.support_ray_extent(q.spec, center, u)
            hi = cap * (1.0 - 1e-9)
            if region_membership(q, center + hi * u):
                radii[i] = hi
                continue
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if region_membership(q, center + mid * u):
                lo = mid
            else:
                hi = mid
        radii[i] = lo
    return RegionBoundary(center, rays, radii, tol)


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
