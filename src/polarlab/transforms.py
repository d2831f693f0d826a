"""Duality transforms: the s-polar transform, the Legendre transform, the
log-polar transform, the s-concave approximation of a log-concave function,
and convergence studies between the two dualities.

Shift convention used throughout: shift(f, z)(x) = f(x + z), which moves the
point z of the original function to the origin.  With this convention
L_s(shift(f, z))(y) = inf over supp f of ((1 + <z,y>) - <x,y>)_+^s / f(x).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize

from . import funcmodel
from .errors import InputError, NumericError

__all__ = [
    "s_polar",
    "s_polar_batch",
    "LegendreEvaluator",
    "LegendreValue",
    "legendre",
    "legendre_evaluator",
    "log_polar",
    "log_polar_batch",
    "log_polar_grid",
    "s_approx",
    "convergence_study",
]


# ---------------------------------------------------------------------------
# s-polar transform


# golden-section step: each iteration keeps this fraction of the bracket
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 60  # R/8 * _GOLDEN**60 is about 4e-14 R


def _golden_min(fn, lo, width):
    """Per row, the least value fn takes at the points of a golden-section
    search over [lo, lo + width] (lo an array, one bracket per row; width a
    number, the same for every row).

    fn maps an (n, 1) array of rho to (n, 1) values.  The search is exact
    when fn is unimodal on each bracket; ties keep the left part, so +inf
    past the end of a support never draws the search away from it.  Each
    step keeps a bracket _GOLDEN times as wide, one of whose two inner
    points is an inner point of the last one, so only the other is new.
    """
    w = width
    fc = fn((lo + (1.0 - _GOLDEN) * w)[:, None])[:, 0]
    fd = fn((lo + _GOLDEN * w)[:, None])[:, 0]
    best = np.minimum(fc, fd)
    for _ in range(_GOLDEN_STEPS):
        left = fc <= fd  # the minimum lies in the left part [lo, lo + _GOLDEN w]
        lo = np.where(left, lo, lo + (1.0 - _GOLDEN) * w)
        w *= _GOLDEN
        x = lo + np.where(left, (1.0 - _GOLDEN) * w, _GOLDEN * w)
        fx = fn(x[:, None])[:, 0]
        best = np.minimum(best, fx)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return best


def s_polar_batch(spec: funcmodel.FunctionSpec, s: float, Y: np.ndarray,
                  center=None) -> np.ndarray:
    """L_s(shift(spec, center)) evaluated at the rows of Y."""
    if not s > 0:
        raise InputError("s must be positive")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    d = spec.dimension
    if Y.shape[1] != d:
        raise InputError("points must have shape (n, d)")
    z = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    c0 = 1.0 + Y @ z

    if funcmodel.is_indicator(spec):
        h = funcmodel.supp_support_function(spec, Y)
        return np.maximum(0.0, c0 - h) ** s

    geo = funcmodel.kernel_geometry(spec, s)
    if isinstance(geo, funcmodel.RadialInfo):
        return _s_polar_radial(geo, s, Y, c0)
    return _s_polar_vertices(geo, s, Y, c0)


def _s_polar_radial(ri: funcmodel.RadialInfo, s, Y, c0):
    """min over rho in [0, R) of (A - rho q)^s / f_rad(rho) per row, R the
    support radius.

    Where f_rad has a closed form (1 - (rho/r)^k)^m (hhat^e: k = 2,
    m = e/2, r = 1; log_approx of a Gaussian: k = 2, m = s',
    r = sigma sqrt(2 s'); of exp_neg_norm: k = 1, m = s', r = s'/a; R is r
    up to rounding), the log of the ratio,
    s log(A - rho q) - m log(1 - (rho/r)^k), tends to +inf as rho -> r and
    has at most one stationary point on [0, r), its minimum:
    - k = 2: the one root in (0, r) of (s - 2m) q rho^2 + 2m A rho - s q r^2,
      which is negative at 0 and positive at r when A > q r;
    - k = 1: rho = (s q r - m A) / (q (s - m)), the zero of an affine
      function; it lies past r when s < m and is non-finite when s = m, and
      then the ratio increases.
    Clipped to [0, R], it competes with rho = 0.  Any other profile
    (log_approx of a log-concave hhat^e) takes a golden-section search of
    the log of the ratio over [0, R], which also competes with rho = 0.
    """
    q = np.linalg.norm(Y, axis=1)
    A = c0 - Y @ ri.center
    R = ri.radius
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if ri.profile is None:
            # rows where the numerator hits 0 inside the support need no search
            live = A > q * R
            Al, ql = A[live, None], q[live, None]
            v = np.zeros(len(Y))
            v[live] = np.exp(_golden_min(
                lambda rho: s * np.log(Al - rho * ql) - np.log(ri.f_rad(rho)),
                np.zeros(len(Al)), R))
        else:
            k, m, r = ri.profile
            if k == 2:
                b = 2.0 * m * A
                disc = np.maximum(0.0, b * b + 4.0 * (s - 2.0 * m) * s * (q * r) ** 2)
                rho = 2.0 * s * q * r * r / (b + np.sqrt(disc))
            else:
                rho = (s * q * r - m * A) / (q * (s - m))
            rho = np.clip(rho, 0.0, R)
            v = np.exp(s * np.log(A - rho * q) - m * np.log1p(-(rho / r) ** k))
        # f_rad(0) = 1; fmin drops a nan (rho past r) for the value at rho = 0
        v = np.fmin(v, A ** s)
    # otherwise the numerator hits 0 inside the support
    return np.where(A > q * R, v, 0.0)


def _s_polar_vertices(P: "funcmodel._Polytope", s, Y, c0):
    """The s-polar of a grid-based spec from its support points
    (`funcmodel.kernel_geometry`): 0 where the numerator goes negative
    somewhere on supp f, else the least ratio over the points where f > 0."""
    pos = P.values > 0
    Xp = P.points[pos]
    p = P.values[pos] ** (1.0 / s)
    out = np.empty(len(Y))
    chunk = max(1, (1 << 22) // len(Xp))
    for a in range(0, len(Y), chunk):
        Yc = Y[a:a + chunk]
        cc = c0[a:a + chunk]
        zero = cc < P.support_function(Yc)
        num_pos = np.maximum(0.0, cc[:, None] - Yc @ Xp.T)
        r = (num_pos / p[None, :]).min(axis=1) ** s
        r[zero] = 0.0
        out[a:a + chunk] = r
    return out


def s_polar(spec: funcmodel.FunctionSpec, s: float, y, center=None) -> float:
    """L_s f at a single point (or L_s(shift(f, center)) when center given)."""
    y = np.asarray(y, dtype=float)
    return float(s_polar_batch(spec, s, y[None, :], center)[0])


# ---------------------------------------------------------------------------
# Legendre transform and log-polar transform


@dataclass(frozen=True)
class LegendreValue:
    value: float
    infinite: bool


@dataclass(frozen=True, eq=False)
class LegendreEvaluator:
    """Convex conjugate of psi by grid sup plus local refinement.

    The search box should cover the (truncated) effective domain of psi;
    suprema still climbing at the box boundary are tagged infinite.  psi is
    sampled on the tensor grid of `axes` (`psi_grid`, +inf off its effective
    domain); `nodes` and `psi_nodes` list its finite entries.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    grid_n: int = 129
    axes: tuple = field(init=False, repr=False)
    psi_grid: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    psi_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = len(self.lower)
        n = self.grid_n
        axes = tuple(np.linspace(self.lower[i], self.upper[i], n) for i in range(d))
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        v = self.psi(X)
        keep = np.isfinite(v)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "psi_grid", np.where(keep, v, np.inf).reshape((n,) * d))
        object.__setattr__(self, "nodes", X[keep])
        object.__setattr__(self, "psi_nodes", v[keep])
        if not keep.any():
            raise InputError("psi has empty effective domain on the search box")


def legendre(ev: LegendreEvaluator, y, refine: bool = True) -> LegendreValue:
    """sup over the search region of <x,y> - psi(x)."""
    y = np.asarray(y, dtype=float)
    scores = ev.nodes @ y - ev.psi_nodes
    j = int(np.argmax(scores))
    x0 = ev.nodes[j]
    best = float(scores[j])
    if refine:
        def neg(x):
            v = ev.psi(x[None, :])[0]
            if not np.isfinite(v):
                return np.inf
            return -(float(np.dot(x, y)) - v)

        res = optimize.minimize(
            neg, x0, method="L-BFGS-B",
            bounds=list(zip(ev.lower, ev.upper)),
            options={"ftol": 1e-14, "gtol": 1e-12},
        )
        if np.isfinite(res.fun):
            best = max(best, -float(res.fun))
            x0 = res.x
    # infinite tag: maximizer pinned to the box with outward ascent, where psi
    # is finite just outside the box (else the box holds the whole domain)
    width = np.asarray(ev.upper) - np.asarray(ev.lower)
    on_edge = (x0 - ev.lower < 1e-6 * width) | (ev.upper - x0 < 1e-6 * width)
    if on_edge.any():
        step = 1e-5 * width
        inward = x0 - np.where(ev.upper - x0 < 1e-6 * width, step, 0.0) \
                    + np.where(x0 - ev.lower < 1e-6 * width, step, 0.0)
        v_in = ev.psi(inward[None, :])[0]
        inner = float(np.dot(inward, y)) - v_in if np.isfinite(v_in) else -np.inf
        if (best > inner + 1e-12 * max(1.0, abs(best))
                and np.isfinite(ev.psi((2.0 * x0 - inward)[None, :])[0])):
            return LegendreValue(best, True)
    return LegendreValue(best, False)


def legendre_evaluator(spec: funcmodel.FunctionSpec) -> LegendreEvaluator:
    """Evaluator for psi = -log f of a log-concave spec, searched over the
    support box of f (truncated where f drops to EPS_TAIL)."""
    if not spec.is_log_concave:
        raise InputError("legendre_evaluator expects a log-concave spec")
    lo, hi = funcmodel.support_box(spec)

    def psi(X):
        f = funcmodel.evaluate_batch(spec, X)
        with np.errstate(divide="ignore"):
            return -np.log(f)

    n = {1: 4097, 2: 257, 3: 65}[spec.dimension]
    return LegendreEvaluator(psi, np.asarray(lo), np.asarray(hi), n)


def _cached_evaluator(spec) -> LegendreEvaluator:
    # psi reads the spec through a weak proxy: a strong reference would make
    # the spec and its evaluator a reference cycle, which only the cyclic
    # collector frees, and log-concave work builds a new spec for every op
    return spec.memo(("legendre",), lambda: legendre_evaluator(weakref.proxy(spec)))


def log_polar(spec: funcmodel.FunctionSpec, y, center=None,
              refine: bool = True) -> float:
    """L_inf f(y) = exp(-(-log f)*(y)); 0 where the conjugate is infinite.

    With a center z the result is L_inf(shift(f, z))(y) = e^{<z,y>} L_inf f(y).
    """
    if not spec.is_log_concave:
        raise InputError("log_polar expects a log-concave spec")
    y = np.asarray(y, dtype=float)
    lv = legendre(_cached_evaluator(spec), y, refine=refine)
    if lv.infinite:
        return 0.0
    val = math.exp(-lv.value)
    if center is not None:
        val *= math.exp(float(np.dot(np.asarray(center, dtype=float), y)))
    return val


def log_polar_batch(spec: funcmodel.FunctionSpec, Y: np.ndarray,
                    center=None) -> np.ndarray:
    """Grid-conjugate evaluation of L_inf(shift(f, center)) over rows of Y.

    The dense max over the cached psi nodes, without per-point refinement:
    the reference for scattered points (log_polar_grid gives the same sup on
    tensor grids, log_polar high pointwise accuracy).
    """
    if not spec.is_log_concave:
        raise InputError("log_polar expects a log-concave spec")
    ev = _cached_evaluator(spec)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.empty(len(Y))
    chunk = max(1, (1 << 24) // max(len(ev.nodes), 1))
    for a in range(0, len(Y), chunk):
        scores = Y[a:a + chunk] @ ev.nodes.T - ev.psi_nodes[None, :]
        out[a:a + chunk] = scores.max(axis=1)
    res = np.exp(-out)
    if center is not None:
        res = res * np.exp(Y @ np.asarray(center, dtype=float))
    return res


def _lower_hull(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the lower convex hull of the points
    (x_j, p_j); x is increasing and p finite.

    p need not be convex (a convex function sampled in floating point is so
    only up to rounding): every point strictly above the chord of its kept
    neighbours goes, all at once, until none is left.
    """
    idx = np.arange(len(x))
    while len(idx) > 2:
        xk = x[idx]
        pk = p[idx]
        above = ((pk[1:-1] - pk[:-2]) * (xk[2:] - xk[:-2])
                 > (pk[2:] - pk[:-2]) * (xk[1:-1] - xk[:-2]))
        if not above.any():
            break
        idx = idx[np.concatenate(([True], ~above, [True]))]
    return idx


def _conjugate_1d(x: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_j (y_i x_j - p_j) over the finite p_j, exactly; -inf where none is.

    x is increasing.  The max is attained on the lower convex hull of the
    points (x_j, p_j), at the vertex where the hull's slopes pass y; p is
    convex only up to rounding, hence the look at both neighbours of that
    vertex.
    """
    fin = np.isfinite(p)
    if not fin.any():
        return np.full(len(y), -np.inf)
    x = x[fin]
    p = p[fin]
    hull = _lower_hull(x, p)
    x = x[hull]
    p = p[hull]
    k = np.searchsorted(np.diff(p) / np.diff(x), y)
    best = np.full(len(y), -np.inf)
    for j in (k - 1, k, k + 1):
        j = j.clip(0, len(x) - 1)
        best = np.maximum(best, y * x[j] - p[j])
    return best


def log_polar_grid(spec: funcmodel.FunctionSpec,
                   y_axes: Sequence[np.ndarray]) -> np.ndarray:
    """L_inf f on the tensor grid y_axes[0] x ... x y_axes[d-1], raveled in
    ij order.

    The same discrete sup as log_polar_batch over the same psi nodes, taken
    one axis at a time: sup_x <x,y> - psi(x) nests as a 1-D conjugate along
    each axis, applied line by line.
    """
    if not spec.is_log_concave:
        raise InputError("log_polar expects a log-concave spec")
    if len(y_axes) != spec.dimension:
        raise InputError("log_polar_grid needs one axis per dimension")
    ev = _cached_evaluator(spec)
    a = ev.psi_grid
    for k, (x, y) in enumerate(zip(ev.axes, y_axes)):
        y = np.asarray(y, dtype=float)
        # after axis k-1, a holds sup over x_0..x_{k-1} of <x,y> - psi: the
        # next pass conjugates its negative
        lines = np.moveaxis(a if k == 0 else -a, k, -1)
        out = np.empty(lines.shape[:-1] + (len(y),))
        for idx in np.ndindex(lines.shape[:-1]):
            out[idx] = _conjugate_1d(x, lines[idx], y)
        a = np.moveaxis(out, -1, k)
    return np.exp(-a).ravel()


# ---------------------------------------------------------------------------
# s-concave approximation and convergence study


def s_approx(spec: funcmodel.FunctionSpec, s: float) -> funcmodel.FunctionSpec:
    """f_s(x) = (1 + log f(x)/s)_+^s, the s-concave approximation of f."""
    if not spec.is_log_concave:
        raise InputError("s_approx expects a log-concave spec")
    return funcmodel.FunctionSpec(
        spec.dimension, funcmodel.SConcave(s), funcmodel.LogApprox(spec, s)
    )


def convergence_study(spec: funcmodel.FunctionSpec,
                      points: Sequence, s_schedule: Sequence[float],
                      cfg=None, boundary_tol: float = 0.02):
    """Pointwise gaps |L_s f_s(x/s) - L_inf f(x)| and Mahler products along an
    s-schedule.  Returns a list of row dicts; points too close to the support
    boundary of L_inf f are excluded with a warning row.
    """
    from . import polar_integrals as pint

    cfg = cfg or pint.IntegrationConfig()
    d = spec.dimension
    z0 = np.zeros(d)
    mass_f, _ = pint.integrate_grid(spec, cfg)
    phi_inf = pint.phi_log(spec, z0, cfg)
    mahler_inf = mass_f * phi_inf
    rows = []
    pts = [np.asarray(p, dtype=float) for p in points]
    linf_vals = [log_polar(spec, x) for x in pts]
    for s in s_schedule:
        fs = s_approx(spec, s)
        mass_fs, _ = pint.integrate_grid(fs, cfg)
        int_ls = pint.phi_oracle(fs, s, z0, cfg).value
        mahler_s = s**d * mass_fs * int_ls
        for x, linf in zip(pts, linf_vals):
            near0 = log_polar(spec, x * (1 - boundary_tol))
            near1 = log_polar(spec, x * (1 + boundary_tol))
            if linf == 0.0 and near0 > 0.0 or linf > 0.0 and near1 == 0.0:
                rows.append({"s": s, "x": tuple(x), "warning": "boundary"})
                continue
            ls_val = s_polar(fs, s, x / s)
            rows.append({
                "s": s, "x": tuple(x),
                "L_s_value": ls_val, "L_inf_value": linf,
                "gap": abs(ls_val - linf),
                "mahler_s": mahler_s, "mahler_inf": mahler_inf,
            })
    return rows
