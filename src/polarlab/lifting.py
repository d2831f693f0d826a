"""Liftings of 1/s-concave functions to convex bodies.

K-hat, the s-lifting in R^{d+1}, is exposed as a support-function oracle
(LiftedBody).  The s-volume of a d-symmetric body recovers the integral of
the lifted function, and the integer-s lift K_s(f) in R^{d+s} ties function
integrals to honest volumes testable by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import funcmodel, integration, transforms
from .errors import InputError, NumericError

__all__ = [
    "LiftedBody",
    "ChordLengthField",
    "lifted_support",
    "chords_of_lifting",
    "chords_of_ball",
    "chords_of_box",
    "s_volume",
    "polar_lifting_check",
    "integer_lift_volume",
    "unit_ball_volume",
    "mahler_lift_check",
]


# samples of the radial profile behind the lifted support of a radial spec
_RADIAL_SAMPLES = 4097


def unit_ball_volume(s: int) -> float:
    """vol_s of the unit ball in R^s for small integer s."""
    if s not in (1, 2, 3):
        raise InputError("integer lift supports s in {1, 2, 3}")
    return {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[s]


@dataclass(frozen=True, eq=False)
class LiftedBody:
    """Support-function oracle for K-hat_s(shift(f, z)) in R^{d+1}:
    h(u) = sup over x in supp f of <x - z, u'> + f(x)^{1/s} |u_{d+1}|."""

    base: funcmodel.FunctionSpec
    s: float
    center_shift: Optional[tuple] = None

    def __post_init__(self):
        if not self.s > 0:
            raise InputError("s must be positive")

    def _shift(self) -> np.ndarray:
        if self.center_shift is None:
            return np.zeros(self.base.dimension)
        return np.asarray(self.center_shift, dtype=float)

    def support_batch(self, U: np.ndarray) -> np.ndarray:
        """h at the rows of U (positively homogeneous; no normalization)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        d = self.base.dimension
        if U.shape[1] != d + 1:
            raise InputError("directions must live in R^{d+1}")
        Uh = U[:, :d]
        v = np.abs(U[:, d])
        z = self._shift()
        spec = self.base

        if funcmodel.is_indicator(spec):
            h = funcmodel.supp_support_function(spec, Uh)
            return h - Uh @ z + v

        geo = funcmodel.kernel_geometry(spec, self.s)
        if isinstance(geo, funcmodel.RadialInfo):
            return self._support_radial(geo, Uh, v, z)
        return self._support_vertices(geo, Uh, v, z)

    def _support_radial(self, ri, Uh, v, z):
        """<centre - z, u'> + max over rho in [0, R] of a rho + v p(rho),
        with a = |u'| and p = f_rad^{1/s}.

        The objective is concave in rho only when f is 1/s-concave: for
        hhat^e with e > s it is concave, then convex, and its maximum can be
        an interior one that nearly ties rho = R.  p does not depend on the
        direction, so it is sampled once and pruned to its upper hull; each
        direction's best hull vertex is found by searchsorted on the hull
        slopes.  Golden section refines between the neighbouring samples of
        that vertex and of each hull neighbour across a bridge (a stretch
        where p is convex); both endpoints compete.
        """
        a = np.linalg.norm(Uh, axis=1)
        R = ri.radius
        inv_s = 1.0 / self.s
        rho = np.linspace(0.0, R, _RADIAL_SAMPLES)
        p = ri.f_rad(rho) ** inv_s
        hull = transforms._lower_hull(rho, -p)
        slopes = -np.diff(p[hull]) / np.diff(rho[hull])  # increasing
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.searchsorted(slopes, a / v)  # v = 0: the last vertex, R

        def score(j):
            return a * rho[j] + v * p[j]

        last = len(hull) - 1
        k = k.clip(0, last)
        best = np.maximum.reduce([score(hull[(k + o).clip(0, last)]) for o in (-1, 0, 1)]
                                 + [score(0), score(-1)])
        # a separate local maximum that can nearly tie vertex k sits across
        # a bridge of the hull (a segment that skips samples) from it, as
        # the interior one does from rho = R; all brackets go through one
        # search
        rows, at = [np.arange(len(k))], [hull[k]]
        for o in (-1, 1):
            m = (k + o).clip(0, last)
            far = np.nonzero(np.abs(hull[m] - hull[k]) > 1)[0]
            rows.append(far)
            at.append(hull[m[far]])
        rows, j = np.concatenate(rows), np.concatenate(at)
        ar, vr = a[rows, None], v[rows, None]
        top = -transforms._golden_min(lambda r: -(ar * r + vr * ri.f_rad(r) ** inv_s),
                                      rho[j.clip(1, len(rho) - 2) - 1], 2.0 * rho[1])
        np.maximum.at(best, rows, top)
        return Uh @ (ri.center - z) + best

    def _support_vertices(self, P, Uh, v, z):
        """max over the support points of a grid-based spec
        (`funcmodel.kernel_geometry`) of <x - z, u'> + v f(x)^{1/s}."""
        X = P.points
        p = P.values ** (1.0 / self.s)
        out = np.empty(len(Uh))
        chunk = max(1, (1 << 22) // max(len(X), 1))
        for i in range(0, len(Uh), chunk):
            scores = (Uh[i:i + chunk] @ (X - z).T) + v[i:i + chunk, None] * p[None, :]
            out[i:i + chunk] = scores.max(axis=1)
        return out


def lifted_support(body: LiftedBody, u) -> float:
    """h_{K-hat}(u) for a single unit direction u in R^{d+1}."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise InputError("direction must be a unit vector")
    val = float(body.support_batch(u[None, :])[0])
    if not math.isfinite(val):
        raise NumericError("unbounded lifted support (non-integrable spec?)")
    return val


# ---------------------------------------------------------------------------
# chord fields and the s-volume


@dataclass(frozen=True, eq=False)
class ChordLengthField:
    """Vertical half-chord length of a d-symmetric body C in R^{d+1} as a
    function of the horizontal coordinate x in R^d."""

    half_chord: Callable[[np.ndarray], np.ndarray]
    box_lo: np.ndarray
    box_hi: np.ndarray
    radial: Optional[Tuple[np.ndarray, float, Callable]] = None  # (center, R, f(rho))


def chords_of_lifting(spec: funcmodel.FunctionSpec, s: float) -> ChordLengthField:
    """Chord field of K-hat_s(f): half-chord f(x)^{1/s}."""
    inv_s = 1.0 / s

    def half(X):
        return funcmodel.evaluate_batch(spec, X) ** inv_s

    lo, hi = funcmodel.support_box(spec)
    ri = spec.radial
    radial = None
    if ri is not None:
        radial = (ri.center, spec.support.radius,
                  lambda rho, _f=ri.f_rad: _f(rho) ** inv_s)
    return ChordLengthField(half, np.asarray(lo), np.asarray(hi), radial)


def chords_of_ball(d: int, radius: float = 1.0) -> ChordLengthField:
    """Chord field of the ball of the given radius in R^{d+1}."""

    def half(X):
        r2 = np.sum(X * X, axis=1)
        return np.sqrt(np.maximum(0.0, radius**2 - r2))

    lo = -radius * np.ones(d)
    return ChordLengthField(half, lo, -lo,
                            (np.zeros(d), radius,
                             lambda rho: np.sqrt(np.maximum(0.0, radius**2 - np.asarray(rho) ** 2))))


def chords_of_box(lo, hi, half_height: float = 1.0) -> ChordLengthField:
    """Chord field of box x [-half_height, half_height]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def half(X):
        inside = np.all((X >= lo) & (X <= hi), axis=1)
        return np.where(inside, half_height, 0.0)

    return ChordLengthField(half, lo, hi)


def s_volume(chords: ChordLengthField, s: float,
             cfg: Optional[integration.IntegrationConfig] = None) -> Tuple[float, float]:
    """mu_s(C) = integral of (half-chord)^s, with error estimate.

    For C = K-hat_s(f) this equals the integral of f.
    """
    if not s > 0:
        raise InputError("s must be positive")
    cfg = cfg or integration.IntegrationConfig()
    d = len(chords.box_lo)
    if chords.radial is not None:
        _, R, frad = chords.radial
        return integration.radial_integral(lambda rho: frad(rho) ** s, R, d)
    n = cfg.axis_cells(d)
    return integration.richardson_box(
        lambda X: chords.half_chord(X) ** s, chords.box_lo, chords.box_hi, n)


# ---------------------------------------------------------------------------
# duality and volume checks


def polar_lifting_check(spec: funcmodel.FunctionSpec, s: float,
                        samples: int, seed: int, tol: float = 1e-8) -> dict:
    """Sampled agreement between (K-hat_s f)-polar membership and the
    s-lifting of L_s f: (y, tau) lies in the polar iff |tau|^s <= L_s f(y)."""
    d = spec.dimension
    origin = np.zeros(d)
    if not funcmodel.conv_support_contains(spec, origin, tol=-1e-9):
        raise InputError("origin must be interior to supp f")
    rm, rp = funcmodel.axis_extents(spec, origin)
    body = LiftedBody(spec, s)
    tau_max = (1.0 / funcmodel.sup_value(spec)) ** (1.0 / s)
    rng = np.random.default_rng(seed)
    lo = np.append(-1.2 / rm, -1.2 * tau_max)
    hi = np.append(1.2 / rp, 1.2 * tau_max)
    W = rng.uniform(lo, hi, size=(samples, d + 1))
    Y = W[:, :d]
    tau = W[:, d]
    ls_vals = transforms.s_polar_batch(spec, s, Y)
    in_lift = np.abs(tau) ** s <= ls_vals
    h = body.support_batch(W)  # homogeneous: h(w) <= 1 iff w in polar
    in_polar = h <= 1.0
    scale = max(1.0, tau_max**s)
    knife = (np.abs(h - 1.0) < tol) | (np.abs(np.abs(tau) ** s - ls_vals) < tol * scale)
    live = ~knife
    dis = int(np.sum(in_lift[live] != in_polar[live]))
    viol = 0.0
    bad = live & (in_lift != in_polar)
    if bad.any():
        viol = float(np.max(np.abs(h[bad] - 1.0)))
    return {
        "op": "polar_lifting_check",
        "samples": samples,
        "skipped": int(np.sum(knife)),
        "disagreements": dis,
        "max_violation": viol,
        "seed": seed,
    }


def integer_lift_volume(spec: funcmodel.FunctionSpec, s: int,
                        mc: Optional[integration.MonteCarloConfig] = None) -> Tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of vol_{d+s} K_s(f),
    where K_s(f) = {(x, w): |w| <= (f(x)/vol_s B^s)^{1/s}}; equals int f."""
    mc = mc or integration.MonteCarloConfig()
    vs = unit_ball_volume(s)
    d = spec.dimension
    lo, hi = funcmodel.support_box(spec)
    rw = (funcmodel.sup_value(spec) / vs) ** (1.0 / s)
    lo_full = np.append(lo, -rw * np.ones(s))
    hi_full = np.append(hi, rw * np.ones(s))
    box_vol = float(np.prod(hi_full - lo_full))
    rng = np.random.default_rng(mc.seed)
    n = mc.samples
    acc = 0
    for a in range(0, n, 1 << 20):
        k = min(1 << 20, n - a)
        P = rng.uniform(lo_full, hi_full, size=(k, d + s))
        f = funcmodel.evaluate_batch(spec, P[:, :d])
        wnorm = np.linalg.norm(P[:, d:], axis=1)
        acc += int(np.sum(wnorm**s * vs <= f))
    p = acc / n
    est = box_vol * p
    se = box_vol * math.sqrt(max(p * (1 - p), 1e-12) / n)
    return est, se


def mahler_lift_check(spec: funcmodel.FunctionSpec, s: int, z,
                      mc: Optional[integration.MonteCarloConfig] = None,
                      cfg: Optional[integration.IntegrationConfig] = None) -> dict:
    """Monte Carlo check of
    int f * int L_s(shift(f,z)) = vol K_s(f) * vol (K_s(f)-z)^polar / (vol_s B^s)^2."""
    mc = mc or integration.MonteCarloConfig()
    cfg = cfg or integration.IntegrationConfig()
    z = np.asarray(z, dtype=float)
    d = spec.dimension
    vs = unit_ball_volume(s)
    vol_ks, se_ks = integer_lift_volume(spec, s, mc)

    # polar of K_s(f) - z by rejection; membership via the support oracle of
    # K-hat with the vertical coordinate rescaled by vs^{-1/s}
    body = LiftedBody(spec, s, center_shift=tuple(z))
    rm, rp = funcmodel.axis_extents(spec, z)
    fz = funcmodel.evaluate(spec, z)
    if fz <= 0:
        raise InputError("z must be interior to supp f")
    bmax = 1.05 * (vs / fz) ** (1.0 / s)
    lo = np.append(-1.05 / rm, -bmax * np.ones(s))
    hi = np.append(1.05 / rp, bmax * np.ones(s))
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(mc.seed + 1)
    acc = 0
    n = mc.samples
    scale = vs ** (-1.0 / s)
    for a in range(0, n, 1 << 19):
        k = min(1 << 19, n - a)
        W = rng.uniform(lo, hi, size=(k, d + s))
        U = np.empty((k, d + 1))
        U[:, :d] = W[:, :d]
        U[:, d] = scale * np.linalg.norm(W[:, d:], axis=1)
        acc += int(np.sum(body.support_batch(U) <= 1.0))
    p = acc / n
    vol_polar = box_vol * p
    se_polar = box_vol * math.sqrt(max(p * (1 - p), 1e-12) / n)

    from . import polar_integrals as pint

    mass, _ = pint.integrate_grid(spec, cfg)
    phi = pint.phi_oracle(spec, s, z, cfg).value
    lhs = mass * phi
    rhs = vol_ks * vol_polar / vs**2
    sigma = (se_ks * vol_polar + se_polar * vol_ks) / vs**2
    return {
        "op": "mahler_lift_check",
        "lhs": lhs,
        "rhs": rhs,
        "sigma": sigma,
        "within_3_sigma": abs(lhs - rhs) <= 3.0 * sigma + 1e-3 * abs(lhs),
        "seed": mc.seed,
    }
