"""Integrals of polars: the kappa constant, `phi` for Phi(z) = int L_s(shift(f, z))
and its gradient at every s in (0, inf] (the spherical functional of the lifted
body at finite s, in closed form for polytope and ball indicators, and the
log-concave analogue Phi_inf at s = inf), and the brute-force grid oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional, Tuple

import numpy as np
from scipy import special

from . import funcmodel, lifting, transforms
from .errors import DomainError, InputError, NumericError
from .integration import (  # noqa: F401  (re-exported oracle interface)
    SPHERE_SURFACE,
    IntegrationConfig,
    MonteCarloConfig,
    _midpoint_chunks,
    integrate_grid,
    midpoint_box,
    richardson_box,
)

__all__ = [
    "kappa",
    "SphereQuadrature",
    "PolarIntegral",
    "IntegrationConfig",
    "MonteCarloConfig",
    "integrate_grid",
    "phi",
    "phi_sphere",
    "phi_oracle",
    "polar_moment",
    "phi_log",
    "default_quadrature",
]

_ORACLE_RES = {1: 2048, 2: 256, 3: 64}
_LOG_GRID_RES = {1: 4096, 2: 256, 3: 48}


def kappa(d: int, s: float) -> float:
    """kappa(d, s) = pi^{d/2} Gamma(s/2 + 1) / Gamma(s/2 + d/2 + 1),
    the integral of (1 - |x|^2)_+^{s/2} over R^d."""
    if d < 1 or not s > 0:
        raise InputError("kappa requires d >= 1 and s > 0")
    return math.exp(
        0.5 * d * math.log(math.pi)
        + math.lgamma(0.5 * s + 1.0)
        - math.lgamma(0.5 * s + 0.5 * d + 1.0)
    )


# ---------------------------------------------------------------------------
# sphere quadrature with the |u_{d+1}|^{s-1} weight absorbed


def _fibonacci_sphere(n: int) -> np.ndarray:
    """n reasonably uniform points on S^2 (Fibonacci spiral)."""
    k = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    ct = 1.0 - 2.0 * k / n
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)


_DEFAULT_NODES = {1: (512, 2), 2: (64, 128), 3: (64, 1024)}


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Product rule on S^d absorbing the vertical weight |u_{d+1}|^{s-1}.

    Vertical: Gauss-Jacobi in the substitution u_{d+1} = sin((pi/4)(1+x)),
    with weight (1-x)^{d-1}(1+x)^{s-1} so that both the |t|^{s-1} factor and
    the cos^{d-1} surface factor are handled spectrally.  Horizontal: exact
    two-point rule (d=1), midpoint trapezoid on the circle (d=2), Fibonacci
    set on S^2 (d=3).  Weights sum to the closed-form moment
    omega_{d-1} * B(s/2, d/2) of the unnormalized surface measure.
    """

    d: int
    s: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    n_vertical: int
    n_horizontal: int

    @classmethod
    def build(cls, d: int, s: float,
              n_vertical: Optional[int] = None,
              n_horizontal: Optional[int] = None) -> "SphereQuadrature":
        if d not in (1, 2, 3):
            raise InputError("quadrature supports d in {1, 2, 3}")
        if not 0 < s < math.inf:
            raise InputError("the sphere rule requires finite positive s")
        nv0, nh0 = _DEFAULT_NODES[d]
        nv = n_vertical or nv0
        nh = n_horizontal or nh0

        x, wj = special.roots_jacobi(nv, d - 1.0, s - 1.0)
        phi = 0.25 * math.pi * (1.0 + x)
        t = np.sin(phi)  # vertical coordinate in (0, 1)
        c = np.cos(phi)
        # smooth parts of sin(phi)/(1+x) and cos(phi)/(1-x)
        S = t / (1.0 + x)
        C = c / (1.0 - x)
        w_vert = wj * (0.25 * math.pi) * S ** (s - 1.0) * C ** (d - 1.0)

        if d == 1:
            omegas = np.array([[1.0], [-1.0]])
            w_h = np.array([1.0, 1.0])
        elif d == 2:
            th = 2.0 * math.pi * (np.arange(nh) + 0.5) / nh
            omegas = np.stack([np.cos(th), np.sin(th)], axis=1)
            w_h = np.full(nh, 2.0 * math.pi / nh)
        else:
            omegas = _fibonacci_sphere(nh)
            w_h = np.full(nh, 4.0 * math.pi / nh)

        n_omega = len(omegas)
        nodes = np.empty((2 * nv * n_omega, d + 1))
        weights = np.empty(2 * nv * n_omega)
        k = 0
        for sign in (1.0, -1.0):
            horiz = omegas[None, :, :] * c[:, None, None]  # (nv, n_omega, d)
            blk = np.concatenate(
                [horiz, np.broadcast_to((sign * t)[:, None, None], (nv, n_omega, 1))],
                axis=2,
            ).reshape(-1, d + 1)
            nodes[k:k + nv * n_omega] = blk
            weights[k:k + nv * n_omega] = (w_vert[:, None] * w_h[None, :]).ravel()
            k += nv * n_omega
        return cls(d, s, nodes, weights, nv, n_omega)

    def moment(self) -> float:
        """Closed-form int_{S^d} |u_{d+1}|^{s-1} dsigma for the sanity check."""
        return SPHERE_SURFACE[self.d] * special.beta(0.5 * self.s, 0.5 * self.d)

    @cached_property
    def doubled(self) -> "SphereQuadrature":
        return SphereQuadrature.build(self.d, self.s,
                                      2 * self.n_vertical, 2 * self.n_horizontal)


@cache
def default_quadrature(d: int, s: float) -> SphereQuadrature:
    """The default rule for (d, s), built once: s = 1 and s = 1.0 share it."""
    return SphereQuadrature.build(d, float(s))


@dataclass(frozen=True)
class PolarIntegral:
    """Phi(z) with optional gradient diagnostics."""

    value: float
    method: str
    gradient: Optional[np.ndarray] = None
    err_est: Optional[float] = None
    nodes: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "gradient": None if self.gradient is None else list(self.gradient),
            "method": self.method,
            "nodes": self.nodes,
            "err_est": self.err_est,
        }


def node_support(spec: funcmodel.FunctionSpec, s: float,
                 quad: SphereQuadrature) -> np.ndarray:
    """Support values of K-hat_s(f) at the nodes of quad, kept on the spec."""
    return spec.memo(("node_support", float(s), quad),
                     lambda: lifting.LiftedBody(spec, s).support_batch(quad.nodes))


def _ball_phi(ball, s: float, z, grad: bool) -> Tuple[float, Optional[np.ndarray]]:
    """Phi(z) and, when grad, its gradient for the indicator of B(c, R):
    with w = z - c, (B - z)° is an ellipsoid of volume kappa_d R
    (R^2 - |w|^2)^{-(d+1)/2} (kappa_d the volume of the unit ball), and the
    gradient of Phi is (d + 1) Phi w / (R^2 - |w|^2)."""
    w = np.asarray(z, dtype=float) - ball.center
    d = len(w)
    R = ball.radius
    r = math.sqrt(float(w.dot(w)))  # np.linalg.norm, cheaper
    if r >= R:
        raise DomainError("center is not interior to the support")
    gap = (R - r) * (R + r)
    log_pref = math.lgamma(d + 1.0) + math.lgamma(s + 1.0) - math.lgamma(d + s + 1.0)
    value = math.exp(log_pref) * SPHERE_SURFACE[d] / d * R * gap ** (-0.5 * (d + 1))
    return value, (d + 1) * value / gap * w if grad else None


def _polytope_phi(poly, s: float, z, grad: bool) -> Tuple[float, Optional[np.ndarray]]:
    """Phi(z) and, when grad, its gradient for a polytope indicator, in
    closed form, from its `polar_cells` (A, b, T, |det A_S|): vol((P - z)°)
    = sum over S in T of |det A_S| / (d! prod c_S), c = b - A z.
    """
    A, b, tri, det = poly
    c = b - A @ np.asarray(z, dtype=float)
    if c.min() <= 0.0:
        raise DomainError("center is not interior to the support")
    d = A.shape[1]
    pref = math.exp(math.lgamma(s + 1.0) - math.lgamma(d + s + 1.0))
    term = pref * det / np.prod(c[tri], axis=1)
    value = float(term.sum())
    if not grad:
        return value, None
    # d/dz of 1/c_i is a_i / c_i^2
    per_facet = np.bincount(tri.ravel(), np.repeat(term, d), len(A))
    return value, A.T @ (per_facet / c)


def _sphere_functional(spec: funcmodel.FunctionSpec, s: float, w,
                       quad: Optional[SphereQuadrature] = None, grad: bool = False):
    """s/(2(d+s)) * int_{S^d} |u_{d+1}|^{s-1} h_{K-hat - w}(u)^{-(d+s)} dsigma,
    the spherical functional of the lifted body K-hat = K-hat_s(f) shifted
    by w, and its gradient in w when grad.

    w is a point z of R^d, read as the slice (z, 0) where the functional is
    Phi(z), or a shift in R^{d+1}; one whose last coordinate is 0 is the
    same slice.  On the slice, polytope and ball indicators take their
    closed form (method "exact"); any other (spec, w) takes the sphere rule
    quad (default_quadrature(d, s) by default) over `node_support` (method
    "sphere").  For the indicator of a convex body K,
    int_0^inf t^{s-1} (h + t)^{-(d+s)} dt = B(s, d) h^{-d} turns the
    functional into Phi(z) = d! Gamma(s+1)/Gamma(d+s+1) vol((K - z)°).

    Returns (value, gradient or None, method, nodes); DomainError if w is
    not interior to K-hat, InputError if s is not finite.
    """
    if s == math.inf:  # the closed forms do not build the sphere rule
        raise InputError("the sphere rule requires finite positive s")
    d = spec.dimension
    w = np.asarray(w, dtype=float)
    if len(w) == d + 1 and w[d] == 0.0:
        w = w[:d]
    if len(w) == d and funcmodel.is_indicator(spec):
        P = funcmodel.polytope_support(spec)
        value, gradient = (_ball_phi(spec.support, s, w, grad) if P is None
                           else _polytope_phi(P.polar_cells, s, w, grad))
        return value, gradient, "exact", None
    quad = quad or default_quadrature(d, s)
    U = quad.nodes[:, :len(w)]
    h = node_support(spec, s, quad) - U @ w
    if h.min() <= 0.0:
        raise DomainError("center is not interior to the lifted body")
    gradient = None
    with np.errstate(over="ignore"):
        value = s / (2.0 * (d + s)) * float(np.sum(quad.weights * h ** (-(d + s))))
        if grad:
            gradient = 0.5 * s * (U.T @ (quad.weights * h ** (-(d + s + 1))))
    return value, gradient, "sphere", len(quad.nodes)


def phi_sphere(spec: funcmodel.FunctionSpec, s: float, z,
               error_estimate: bool = False) -> PolarIntegral:
    """Phi(z) = s/(2(d+s)) * int_{S^d} |u_{d+1}|^{s-1} / h_{K-hat - z}(u)^{d+s} dsigma
    (`_sphere_functional`).

    With error_estimate, the sphere rule is taken again on the doubled rule:
    its value is returned, with the difference as the error estimate (0 for
    a closed form).
    """
    value, _, method, nodes = _sphere_functional(spec, s, z)
    err = None
    if error_estimate:
        err = 0.0
        if method == "sphere":
            doubled = default_quadrature(spec.dimension, s).doubled
            v2 = _sphere_functional(spec, s, z, doubled)[0]
            err, value = abs(v2 - value), v2
    if not math.isfinite(value):
        raise NumericError("spherical formula diverged")
    return PolarIntegral(value, method, err_est=err, nodes=nodes)


def phi(spec: funcmodel.FunctionSpec, s: float, z,
        cfg: Optional[IntegrationConfig] = None, grad: bool = False,
        error_estimate: bool = False) -> PolarIntegral:
    """Phi(z) = int L_s(shift(f, z)) for s in (0, inf], and its gradient when
    grad: `phi_sphere` at finite s (`_sphere_functional`'s gradient with grad,
    and err_est then None), `phi_log` at s = inf (method "log-grid", err_est None;
    InputError for a spec that is not log-concave)."""
    # without grad, values go through the module names phi_log and
    # phi_sphere, so that a wrapper on them (perfbench's span tracer) sees them
    if s == math.inf:
        if grad:
            value, gradient, nodes = _log_functional(spec, z, cfg, grad=True)
        else:
            value, gradient = phi_log(spec, z, cfg), None
            nodes = len(_log_polar_nodes(spec, cfg)[0])
        return PolarIntegral(value, "log-grid", gradient=gradient, nodes=nodes)
    if not grad:
        return phi_sphere(spec, s, z, error_estimate)
    value, gradient, method, nodes = _sphere_functional(spec, s, z, grad=True)
    return PolarIntegral(value, method, gradient=gradient, nodes=nodes)


def _polar_box(spec, z):
    rm, rp = funcmodel.axis_extents(spec, np.asarray(z, dtype=float))
    return -1.0 / rm, 1.0 / rp


def phi_oracle(spec: funcmodel.FunctionSpec, s: float, z,
               cfg: Optional[IntegrationConfig] = None) -> PolarIntegral:
    """Brute-force Phi(z): midpoint integration of L_s(shift(f, z)) over the
    exact bounding box of its support, with Richardson extrapolation.

    Polytope indicators integrate L_s exactly along the last axis instead
    (`_polytope_oracle`)."""
    if s == math.inf:
        raise InputError("the grid oracle requires finite s")
    cfg = cfg or IntegrationConfig()
    d = spec.dimension
    z = np.asarray(z, dtype=float)
    lo, hi = _polar_box(spec, z)
    n = cfg.axis_cells(d, _ORACLE_RES)
    P = funcmodel.polytope_support(spec)
    if P is not None:
        return _polytope_oracle(P.points - z, s, lo[:-1], hi[:-1], n)
    value, err = richardson_box(lambda Y: transforms.s_polar_batch(spec, s, Y, z), lo, hi, n)
    return PolarIntegral(value, "oracle", err_est=err, nodes=(2 * n) ** d)


_LINE_BLOCK = 1 << 22  # entries of the (rows, pieces, lines) array of _line_integrals


def _line_integrals(alpha: np.ndarray, beta: np.ndarray, s: float) -> np.ndarray:
    """int over t in R of (min_j alpha_ij - beta_j t)_+^s, exactly, per row i.

    Lines of equal slope merge into their least.  The min of the lines is
    one line between consecutive breakpoints (the zero of each line and the
    crossing of each pair), where it is also of one sign.  On a piece
    [t0, t1] where it is positive with end values u0, u1, the integral is
    (t1 - t0) hi^s (1 - x^(s+1)) / ((s+1)(1 - x)), hi = max(u0, u1),
    x = min(u0, u1) / hi, taken stably near x = 1.
    """
    beta, group = np.unique(beta, return_inverse=True)
    alpha = np.stack([alpha[:, group == g].min(axis=1) for g in range(len(beta))], axis=1)
    n, m = alpha.shape
    iu, ju = np.triu_indices(m, 1)
    step = max(1, _LINE_BLOCK // (m * m * (m + 1) // 2))
    out = np.empty(n)
    for a in range(0, n, step):
        al = alpha[a:a + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.concatenate([al / beta, (al[:, iu] - al[:, ju]) / (beta[iu] - beta[ju])],
                               axis=1)
        t[~np.isfinite(t)] = 0.0  # a line of slope 0 has no zero: a harmless split
        t.sort(axis=1)
        t0, t1 = t[:, :-1], t[:, 1:]
        mid = 0.5 * (t0 + t1)
        j = (al[:, None, :] - mid[:, :, None] * beta).argmin(axis=2)
        ak, bk = np.take_along_axis(al, j, axis=1), beta[j]
        u0 = np.maximum(0.0, ak - bk * t0)
        u1 = np.maximum(0.0, ak - bk * t1)
        top = np.maximum(u0, u1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.minimum(u0, u1) / top
            mean = top**s * np.where(
                x < 1.0, -np.expm1((s + 1.0) * np.log(x)) / ((s + 1.0) * (1.0 - x)), 1.0)
        out[a:a + len(al)] = np.where(ak - bk * mid > 0.0, (t1 - t0) * mean, 0.0).sum(axis=1)
    return out


def _polytope_oracle(D: np.ndarray, s: float, lo, hi, n: int) -> PolarIntegral:
    """Phi(z) for the indicator of conv(points), from D = points - z.

    L_s(shift(f, z))(y) = (min_j 1 - <D_j, y>)_+^s is integrated exactly
    along y_d (`_line_integrals`) and by the midpoint rule over the box
    [lo, hi] of the other axes, at 2n and 4n cells a side: the finer value,
    with their difference as the error estimate.  It reads nothing of the
    lifted body or of the closed form.
    """
    d = D.shape[1]
    beta = D[:, -1]
    if d == 1:
        value = float(_line_integrals(np.ones((1, len(D))), beta, s)[0])
        return PolarIntegral(value, "oracle", err_est=0.0, nodes=1)
    values = []
    for cells in (2 * n, 4 * n):
        total = 0.0
        for Yp, cell in _midpoint_chunks(lo, hi, cells):
            total += float(np.sum(_line_integrals(1.0 - Yp @ D[:, :-1].T, beta, s))) * cell
        values.append(total)
    if not math.isfinite(values[1]):
        raise NumericError("grid integral did not converge")
    return PolarIntegral(values[1], "oracle", err_est=abs(values[1] - values[0]),
                         nodes=(4 * n) ** (d - 1))


def polar_moment(spec: funcmodel.FunctionSpec, s: float, z,
                 cfg: Optional[IntegrationConfig] = None):
    """(mass, first moment) of L_s(shift(f, z)) by the grid oracle."""
    cfg = cfg or IntegrationConfig()
    d = spec.dimension
    z = np.asarray(z, dtype=float)
    lo, hi = _polar_box(spec, z)
    n = cfg.axis_cells(d, _ORACLE_RES)
    mass = 0.0
    mom = np.zeros(d)
    for Y, cell in _midpoint_chunks(lo, hi, 2 * n):
        v = transforms.s_polar_batch(spec, s, Y, z)
        mass += float(np.sum(v)) * cell
        mom += (v @ Y) * cell
    return mass, mom


# ---------------------------------------------------------------------------
# log-concave analogue


def _log_polar_nodes(spec: funcmodel.FunctionSpec,
                     cfg: Optional[IntegrationConfig] = None):
    """(nodes Y, cell-weighted values of L_inf f at Y), kept on the spec per
    grid resolution."""
    n = (cfg or IntegrationConfig()).axis_cells(spec.dimension, _LOG_GRID_RES)
    return spec.memo(("log_polar_nodes", n), lambda: _build_log_polar_nodes(spec, n))


def _build_log_polar_nodes(spec: funcmodel.FunctionSpec, n: int):
    d = spec.dimension
    peak = 1.0 / funcmodel.sup_value(spec)
    radius = 1.0
    for _ in range(40):
        corners = radius * np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d),
                                                indexing="ij"), axis=-1).reshape(-1, d)
        probes = np.concatenate([corners, radius * np.eye(d), -radius * np.eye(d)])
        vals = transforms.log_polar_batch(spec, probes)
        if vals.max() < funcmodel.EPS_TAIL * peak:
            break
        radius *= 2.0
    else:
        raise NumericError("polar of the spec does not decay (non-integrable?)")
    h = 2.0 * radius / n
    axes = [(-radius + h * (np.arange(n) + 0.5)) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Y = np.stack([m.ravel() for m in mesh], axis=1)
    g = transforms.log_polar_grid(spec, axes)
    keep = g > funcmodel.EPS_TAIL * peak * 1e-3
    return Y[keep], g[keep] * h**d


def _log_functional(spec: funcmodel.FunctionSpec, z,
                    cfg: Optional[IntegrationConfig] = None, grad: bool = False):
    """(Phi_inf(z), its gradient or None, nodes): Phi_inf(z) = int L_inf(shift(f, z))
    = int e^{<z,y>} L_inf f(y) dy on the log-polar nodes, and its gradient
    int y e^{<z,y>} L_inf f(y) dy, the first moment of L_inf(shift(f, z))."""
    Y, gw = _log_polar_nodes(spec, cfg)
    e = gw * np.exp(Y @ np.asarray(z, dtype=float))
    val = float(np.sum(e))
    if not math.isfinite(val):
        raise NumericError("Phi_inf diverged at this center")
    return val, Y.T @ e if grad else None, len(Y)


def phi_log(spec: funcmodel.FunctionSpec, z,
            cfg: Optional[IntegrationConfig] = None) -> float:
    """Phi_inf(z) = int L_inf(shift(f, z)) = int e^{<z,y>} L_inf f(y) dy."""
    return _log_functional(spec, z, cfg)[0]
