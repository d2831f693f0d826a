"""Santalo points, hyperplane-constrained centers, verification of the
generalized Santalo inequalities, and the one-dimensional s-level-transform
machinery behind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as sp_integrate
from scipy import optimize

from . import funcmodel, integration, polar_integrals as pint
from .errors import DomainError, InputError, NumericError

__all__ = [
    "Hyperplane",
    "SantaloResult",
    "santalo_point",
    "hyperplane_point",
    "verify_santalo",
    "s_level_transform",
    "level_measure",
    "level_transform_integral",
    "onedim_duality_check",
]

INF = math.inf


@dataclass(frozen=True)
class Hyperplane:
    """H = {x : <normal, x> = offset} with a unit normal."""

    normal: tuple
    offset: float

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(a) - 1.0) > 1e-9:
            raise InputError("hyperplane normal must be a unit vector")

    @classmethod
    def of(cls, normal, offset: float) -> "Hyperplane":
        a = np.asarray(normal, dtype=float)
        n = np.linalg.norm(a)
        if n == 0:
            raise InputError("hyperplane normal must be nonzero")
        return cls(tuple(a / n), offset / n)

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.normal, dtype=float)


@dataclass(frozen=True)
class SantaloResult:
    z_star: np.ndarray
    phi_min: float
    polar_barycenter_norm: float
    iterations: int
    converged: bool


_MAX_ITER = 500     # minimizer iterations
_GTOL_REL = 1e-9    # stop when |grad Phi| <= _GTOL_REL * Phi
_SANTALO_TOL = 1e-6  # relative slack of the lambda-Santalo bound


def _minimize_convex(value_grad, z0):
    """Gradient descent with Armijo backtracking, Barzilai-Borwein step
    initialization, and an interior guard: a trial step where value_grad
    raises DomainError is halved."""
    z = np.array(z0, dtype=float)
    v, g = value_grad(z)
    step = 1.0
    it = 0
    for it in range(1, _MAX_ITER + 1):
        gn = float(np.linalg.norm(g))
        if gn <= _GTOL_REL * max(abs(v), 1e-300):
            return z, v, g, it, True
        t = step
        accepted = False
        for _ in range(80):
            zt = z - t * g
            try:
                vt, gt = value_grad(zt)
            except DomainError:
                t *= 0.5
                continue
            target = v - 1e-4 * t * gn * gn
            # a decrease below the resolution of v cannot be seen in vt;
            # there a trial point short of the minimum along -g (Phi is
            # convex) is taken on the sign of its directional derivative
            if vt <= target or (target == v and float(gt @ g) > 0.0):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return z, v, g, it, False
        dz = zt - z
        dg = gt - g
        z, v, g = zt, vt, gt
        denom = float(dz @ dg)
        step = float(dz @ dz) / denom if denom > 0 else t * 2.0
        step = min(max(step, 1e-12), 1e6)
    return z, v, g, _MAX_ITER, False


def santalo_point(spec: funcmodel.FunctionSpec, s,
                  cfg: Optional[integration.IntegrationConfig] = None,
                  compute_moment: bool = True) -> SantaloResult:
    """Minimizer of z -> int L_s(shift(f, z)) (s may be math.inf), started at
    the barycentre of f; kept on the spec per s, config and compute_moment."""
    cfg = cfg or integration.IntegrationConfig()
    return spec.memo(("santalo_point", float(s), cfg, compute_moment),
                     lambda: _santalo_point(spec, s, cfg, compute_moment))


def _santalo_point(spec, s, cfg, compute_moment) -> SantaloResult:
    d = spec.dimension
    z0 = funcmodel.barycenter(spec, cfg).vector

    def vg(z):
        res = pint.phi(spec, s, z, cfg, grad=True)
        return res.value, res.gradient

    z, v, g, it, ok = _minimize_convex(vg, z0)
    if compute_moment and s != INF:
        mass, mom = pint.polar_moment(spec, s, z, cfg)
        diag = float(np.linalg.norm(mom)) / mass
    else:
        diag = float(np.linalg.norm(g)) / (v if s == INF else (d + s + 1.0) * v)
    return SantaloResult(z, v, diag, it, ok)


def _split_center(spec: funcmodel.FunctionSpec, H: Hyperplane,
                  cfg: integration.IntegrationConfig) -> Tuple[float, np.ndarray]:
    """(lambda, z): the mass share of f on the positive side of H, and the
    point where the line through the half-space barycentres b_+ / m_+ and
    b_- / m_- of f meets H."""
    d = spec.dimension
    sm = integration.split_moments(spec, H.a, H.offset, cfg)
    total = sm["m_plus"] + sm["m_minus"]
    if total <= 0:
        raise InputError("spec has nonpositive mass")
    lam = sm["m_plus"] / total
    if lam < 1e-6 or lam > 1 - 1e-6:
        raise InputError("degenerate hyperplane split (lambda near 0 or 1)")
    if d == 1:
        return lam, np.array([H.offset])
    p_plus = sm["b_plus"] / sm["m_plus"]
    p_minus = sm["b_minus"] / sm["m_minus"]
    direction = p_plus - p_minus
    denom = float(H.a @ direction)
    if abs(denom) < 1e-14:
        raise NumericError("barycentre line is parallel to the hyperplane")
    t = (H.offset - float(H.a @ p_minus)) / denom
    return lam, p_minus + t * direction


def hyperplane_point(spec: funcmodel.FunctionSpec, s: float, H: Hyperplane,
                     cfg: Optional[integration.IntegrationConfig] = None) -> np.ndarray:
    """The center on H constructed from the line through the barycentres of
    f on the two half-spaces of H."""
    return _split_center(spec, H, cfg or integration.IntegrationConfig())[1]


def verify_santalo(spec: funcmodel.FunctionSpec, s: float, H: Hyperplane,
                   cfg: Optional[integration.IntegrationConfig] = None) -> dict:
    """lambda-split Santalo inequality at the constructed center:
    int f * Phi(z) <= kappa(d,s)^2 / (4 lambda (1 - lambda))."""
    if s == INF:
        raise InputError("the hyperplane construction requires finite s")
    cfg = cfg or integration.IntegrationConfig()
    d = spec.dimension
    lam, z = _split_center(spec, H, cfg)
    phi = pint.phi_sphere(spec, s, z).value
    mass, _ = pint.integrate_grid(spec, cfg)
    product = mass * phi
    bound = pint.kappa(d, s) ** 2 / (4.0 * lam * (1.0 - lam))
    return {
        "d": d,
        "s": s,
        "lambda": lam,
        "z": tuple(z),
        "product": product,
        "bound": bound,
        "slack": bound - product,
        "pass": product <= bound * (1.0 + _SANTALO_TOL),
    }


# ---------------------------------------------------------------------------
# one-dimensional s-level transform


def _tau_window(phi: Callable, lo: float = -40.0, hi: float = 40.0,
                n: int = 4096) -> Tuple[np.ndarray, np.ndarray]:
    """Grid of tau values and F(tau) = phi(e^tau) e^tau over a window that
    covers the positivity set of F."""
    tau = np.linspace(lo, hi, n)
    with np.errstate(over="ignore"):
        t = np.exp(tau)
    F = phi(t) * t
    if not np.all(np.isfinite(F)):
        raise NumericError("phi(e^tau) e^tau overflows on the window")
    pos = np.nonzero(F > 0)[0]
    if len(pos) == 0:
        return tau, F
    a = max(0, pos[0] - 2)
    b = min(n - 1, pos[-1] + 2)
    tau = np.linspace(tau[a], tau[b], 1 << 14)
    F = phi(np.exp(tau)) * np.exp(tau)
    return tau, F


def level_measure(tau: np.ndarray, F: np.ndarray, phi: Callable,
                  level: float) -> float:
    """vol_1 {tau : F(tau) >= level} with root-refined crossing points."""
    mask = F >= level
    if not mask.any():
        return 0.0
    dtau = tau[1] - tau[0]
    padded = np.concatenate([[False], mask, [False]])
    rises = np.nonzero(padded[1:] & ~padded[:-1])[0]
    falls = np.nonzero(~padded[1:] & padded[:-1])[0]
    total = 0.0

    def g(x):
        return phi(math.exp(x)) * math.exp(x) - level

    for i, j in zip(rises, falls):
        left = tau[i]
        if i > 0:
            try:
                left = optimize.brentq(g, tau[i - 1], tau[i], xtol=1e-13)
            except ValueError:
                left = tau[i] - 0.5 * dtau
        right = tau[j - 1]
        if j < len(tau):
            try:
                right = optimize.brentq(g, tau[j - 1], tau[j], xtol=1e-13)
            except ValueError:
                right = tau[j - 1] + 0.5 * dtau
        total += right - left
    return total


def s_level_transform(phi: Callable, s: float, alpha: float,
                      window=None) -> float:
    """Psi_phi(alpha) = s e^{s alpha} vol_1{tau : (phi(e^tau) e^tau)^{1/s} >= e^alpha}."""
    if not s > 0:
        raise InputError("s must be positive")
    tau, F = window if window is not None else _tau_window(phi)
    level = math.exp(s * alpha)
    return s * level * level_measure(tau, F, phi, level)


def level_transform_integral(phi: Callable, s: float) -> float:
    """int_R Psi_phi by quadrature over the decaying alpha range."""
    tau, F = _tau_window(phi)
    fmax = float(F.max())
    if fmax <= 0:
        return 0.0
    a_hi = math.log(fmax) / s
    a_lo = a_hi - 45.0 / s

    def integrand(alpha):
        return s_level_transform(phi, s, alpha, window=(tau, F))

    val, _ = sp_integrate.quad(integrand, a_lo, a_hi, limit=400)
    return val


def onedim_duality_check(phi1: Callable, phi2: Callable, s: float,
                         grid_n: int = 256, pairs: int = 0, seed: int = 0,
                         tol: float = 1e-6) -> dict:
    """Duality precondition, the one-dimensional Santalo bound
    int phi1 * int phi2 <= (kappa(1,s)/2)^2, and midpoint inequalities of the
    level transforms against the self-dual reference profile."""
    tau1, F1 = _tau_window(phi1)
    tau2, F2 = _tau_window(phi2)

    def _support_end(tau, F, phi):
        if not (F > 0).any():
            return 0.0
        k = int(np.nonzero(F > 0)[0][-1])
        lo = math.exp(tau[k])
        if k + 1 >= len(tau):
            return lo
        hi = math.exp(tau[k + 1])
        for _ in range(60):  # bisect the exact support endpoint
            mid = 0.5 * (lo + hi)
            if float(phi(np.atleast_1d(mid))[0]) > 0:
                lo = mid
            else:
                hi = mid
        return lo

    sup1 = _support_end(tau1, F1, phi1)
    sup2 = _support_end(tau2, F2, phi2)

    valid = True
    worst = 0.0
    if sup1 > 0 and sup2 > 0:
        t1 = np.linspace(0.0, sup1, grid_n)
        t2 = np.linspace(0.0, sup2, grid_n)
        lhs = phi1(t1)[:, None] * phi2(t2)[None, :]
        rhs = np.maximum(0.0, 1.0 - t1[:, None] * t2[None, :]) ** s
        gap = lhs - rhs
        worst = float(gap.max())
        valid = worst <= 1e-9

    int1 = sp_integrate.quad(lambda t: float(phi1(np.atleast_1d(t))[0]),
                             0.0, max(sup1, 1e-12), limit=800,
                             epsabs=1e-12, epsrel=1e-12)[0]
    int2 = sp_integrate.quad(lambda t: float(phi2(np.atleast_1d(t))[0]),
                             0.0, max(sup2, 1e-12), limit=800,
                             epsabs=1e-12, epsrel=1e-12)[0]
    bound = (pint.kappa(1, s) / 2.0) ** 2
    product = int1 * int2

    report = {
        "valid_pair": valid,
        "max_duality_violation": worst,
        "int_phi1": int1,
        "int_phi2": int2,
        "product": product,
        "bound": bound,
        "pass": (not valid) or product <= bound * (1.0 + tol),
        "midpoint_checked": 0,
        "midpoint_failures": 0,
    }
    if not valid or pairs <= 0:
        return report

    # Claim: H((a1+a2)/2) >= sqrt(P1(a1) P2(a2)), with P_i the level-set
    # measures and H the measure of the self-dual profile h^s
    def h_ref(t):
        return np.sqrt(np.maximum(0.0, 1.0 - np.asarray(t) ** 2)) ** s

    tauh, Fh = _tau_window(h_ref)
    rng = np.random.default_rng(seed)
    amax1 = math.log(max(F1.max(), 1e-300)) / s
    amax2 = math.log(max(F2.max(), 1e-300)) / s
    a1 = rng.uniform(amax1 - 6.0, amax1, size=pairs)
    a2 = rng.uniform(amax2 - 6.0, amax2, size=pairs)
    dtau = max(tau1[1] - tau1[0], tau2[1] - tau2[0], tauh[1] - tauh[0])

    def coarse(tau, F, levels):
        # vectorized grid count of {F >= level}; error at most one cell per
        # crossing of the level
        srt = np.sort(F)
        counts = len(F) - np.searchsorted(srt, levels, side="left")
        return counts * (tau[1] - tau[0])

    l1 = np.exp(s * a1)
    l2 = np.exp(s * a2)
    lm = np.exp(s * 0.5 * (a1 + a2))
    p1 = coarse(tau1, F1, l1)
    p2 = coarse(tau2, F2, l2)
    hm = coarse(tauh, Fh, lm)
    suspects = np.nonzero(hm + 4.0 * dtau < np.sqrt(p1 * p2) - 1e-9)[0]
    fails = 0
    for i in suspects:  # re-check borderline pairs with refined crossings
        q1 = level_measure(tau1, F1, phi1, float(l1[i]))
        q2 = level_measure(tau2, F2, phi2, float(l2[i]))
        qh = level_measure(tauh, Fh, h_ref, float(lm[i]))
        if qh < math.sqrt(q1 * q2) - 1e-9:
            fails += 1
    report["midpoint_checked"] = pairs
    report["midpoint_failures"] = fails
    report["pass"] = report["pass"] and fails == 0
    return report
