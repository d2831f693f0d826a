"""Grid and radial integration oracles.

These are the independent brute-force integrators used to cross-check the
spherical formulas: tensor midpoint rules with Richardson extrapolation, a
high-accuracy radial fast path for rotationally symmetric specs, and
half-space split moments for hyperplane constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import integrate as sp_integrate

from . import funcmodel
from .errors import InputError, NumericError

# surface area of the unit sphere S^{d-1} in R^d, d = 1, 2, 3
SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}

_DEFAULT_RES = {1: 4096, 2: 512, 3: 96}

_CHUNK = 1 << 19


@dataclass(frozen=True)
class IntegrationConfig:
    """Grid oracle settings: cells per axis (defaulted by dimension when
    None)."""

    resolution: Optional[int] = None

    def __post_init__(self):
        if self.resolution is not None and self.resolution < 16:
            raise InputError("resolution must be >= 16")

    def axis_cells(self, d: int, default=_DEFAULT_RES) -> int:
        """The resolution, or default[d] when it is None."""
        return self.resolution if self.resolution is not None else default[d]


@dataclass(frozen=True)
class MonteCarloConfig:
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 10_000:
            raise InputError("samples must be >= 10^4")


def _grid_axes(lo, hi, n: int):
    """(axes, h, cell): the n cell midpoints along each axis of the box, the
    cell widths and the cell volume."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = (hi - lo) / n
    axes = [lo[i] + h[i] * (np.arange(n) + 0.5) for i in range(len(lo))]
    return axes, h, float(np.prod(h))


def _row_slices(n: int, d: int):
    """The slices of the first axis that _midpoint_chunks covers, one a chunk."""
    rows_per_chunk = n if d == 1 else max(1, _CHUNK // n ** (d - 1))
    for start in range(0, n, rows_per_chunk):
        yield slice(start, start + rows_per_chunk)


def _midpoint_chunks(lo, hi, n: int):
    """Yield (points_chunk, cell_volume) covering the box with n^d midpoints."""
    axes, _, cell = _grid_axes(lo, hi, n)
    if len(axes) == 1:
        yield axes[0][:, None], cell
        return
    for rows in _row_slices(n, len(axes)):
        mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        yield X, cell


def _midpoint_values(spec: funcmodel.FunctionSpec, cfg: IntegrationConfig) -> np.ndarray:
    """f at the midpoints of the n^d cells of the support box, n =
    cfg.axis_cells(d), as an (n,)*d array; kept on the spec per config.  Only
    the values are kept: the points follow from the box."""
    def build():
        d = spec.dimension
        n = cfg.axis_cells(d)
        lo, hi = funcmodel.support_box(spec)
        V = np.empty(n ** d)
        end = 0
        for X, _ in _midpoint_chunks(lo, hi, n):
            V[end:end + len(X)] = funcmodel.evaluate_batch(spec, X)
            end += len(X)
        return V.reshape((n,) * d)

    return spec.memo(("midpoint_values", cfg), build)


def midpoint_box(fn: Callable[[np.ndarray], np.ndarray], lo, hi, n: int) -> float:
    total = 0.0
    for X, cell in _midpoint_chunks(lo, hi, n):
        total += float(np.sum(fn(X))) * cell
    return total


def _richardson(coarse: float, fine: float) -> Tuple[float, float]:
    """Richardson combination of midpoint sums at n and 2n cells per axis;
    returns (value, error estimate)."""
    value = fine + (fine - coarse) / 3.0
    err = abs(fine - coarse) / 3.0 + 1e-15 * abs(fine)
    if not math.isfinite(value):
        raise NumericError("grid integral did not converge")
    return value, err


def richardson_box(fn, lo, hi, n: int) -> Tuple[float, float]:
    """Midpoint rule at n and 2n cells per axis with Richardson combination;
    returns (value, error estimate)."""
    return _richardson(midpoint_box(fn, lo, hi, n), midpoint_box(fn, lo, hi, 2 * n))


def radial_integral(g: Callable[[np.ndarray], np.ndarray], R: float,
                    d: int) -> Tuple[float, float]:
    """omega_{d-1} * int_0^R g(rho) rho^{d-1} drho for a vectorized radial
    profile g, by adaptive quadrature."""
    val, err = sp_integrate.quad(lambda rho: g(np.atleast_1d(rho))[0] * rho ** (d - 1),
                                 0.0, R, limit=200)
    omega = SPHERE_SURFACE[d]
    return omega * val, omega * err


def integrate_grid(spec: funcmodel.FunctionSpec,
                   cfg: Optional[IntegrationConfig] = None) -> Tuple[float, float]:
    """Integral of f with an error estimate, kept on the spec per config."""
    value, err, _, _ = _integrals(spec, cfg or IntegrationConfig())
    return value, err


def moment_grid(spec: funcmodel.FunctionSpec,
                cfg: Optional[IntegrationConfig] = None):
    """(mass, first moment vector, error estimate) of f, kept on the spec per
    config.  On the midpoint grid the mass is the fine sum, not the
    Richardson value of integrate_grid."""
    _, err, mass, mom = _integrals(spec, cfg or IntegrationConfig())
    return mass, mom, err


def _integrals(spec: funcmodel.FunctionSpec, cfg: IntegrationConfig):
    """(integral, error estimate, mass, first moment) of f, kept on the spec
    per config.

    Radial specs take a one-dimensional radial quadrature, polytope
    indicators the exact hull moments; there the integral is the mass.  A
    shifted spec reads its unshifted inner spec's and moves the moment.  Any
    other spec takes one pass over the 2n-cell midpoint grid for the mass
    and the moment, and the integral is its Richardson combination with the
    stored n-cell grid (_midpoint_values).
    """
    def build():
        d = spec.dimension
        ri = spec.radial
        if ri is not None:
            if ri.indicator:
                vol = SPHERE_SURFACE[d] * ri.radius**d / d
                value, err = vol, 1e-15 * vol
            else:
                # R: the support radius, truncated where f drops to EPS_TAIL
                value, err = radial_integral(ri.f_rad, spec.support.radius, d)
            return value, err, value, ri.center * value
        inner, offset = funcmodel.unshift(spec)
        if inner is not spec:  # a shift moves no mass
            value, err, mass, mom = _integrals(inner, cfg)
            return value, err, mass, mom + offset * mass
        P = funcmodel.polytope_support(spec)
        if P is not None:
            vol, mom = _polytope_moments(P.points)
            return vol, 1e-15 * vol, vol, mom
        lo, hi = funcmodel.support_box(spec)
        n = cfg.axis_cells(d)
        mass, mom = 0.0, np.zeros(d)
        for X, cell in _midpoint_chunks(lo, hi, 2 * n):
            v = funcmodel.evaluate_batch(spec, X)
            mass += float(np.sum(v)) * cell
            mom += (v @ X) * cell
        # the coarse sum: the split's grid, summed in midpoint_box's chunks
        V = _midpoint_values(spec, cfg)
        cell = _grid_axes(lo, hi, n)[2]
        coarse = sum(float(np.sum(V[rows])) * cell for rows in _row_slices(n, d))
        value, err = _richardson(coarse, mass)
        return value, err, mass, mom

    return spec.memo(("integrals", cfg), build)


def _polytope_moments(V: np.ndarray) -> Tuple[float, np.ndarray]:
    """(volume, first moment) of conv(rows of V), exactly: the sum over the
    cones from the vertex mean to the hull's boundary simplices, each with
    volume |det| / d! and its centroid at the mean of its d + 1 vertices."""
    d = V.shape[1]
    if d == 1:
        lo, hi = float(V[:, 0].min()), float(V[:, 0].max())
        return hi - lo, np.array([0.5 * (hi - lo) * (lo + hi)])
    from scipy.spatial import ConvexHull

    S = V[ConvexHull(V).simplices]  # (facets, d, d)
    apex = V.mean(axis=0)  # interior: the points span R^d
    vols = np.abs(np.linalg.det(S - apex)) / math.factorial(d)
    return float(vols.sum()), vols @ ((S.sum(axis=1) + apex) / (d + 1))


def split_moments(spec: funcmodel.FunctionSpec, normal, offset: float,
                  cfg: Optional[IntegrationConfig] = None):
    """Half-space split of mass and moment across H = {<a,x> = c}.

    Returns dict with masses m_plus/m_minus and unnormalized moments
    b_plus/b_minus over the two closed half-spaces, by the midpoint rule on
    the n^d cells of the support box.  A cell farther from H than half its
    diagonal goes wholly to its side; a cell straddling H is split into 2^d
    sub-cells, each going wholly to the side of its centre.

    f at the cell midpoints does not depend on H: it is evaluated on the
    first call for a spec and config and kept on the spec.  Each call then
    evaluates f only at the 2^d sub-cell centres of the straddling cells,
    O(n^(d-1)) of them.  A shifted spec is split as its unshifted inner spec,
    at the offset moved by the shift, so the grid is kept on the inner spec.
    """
    cfg = cfg or IntegrationConfig()
    d = spec.dimension
    a = np.asarray(normal, dtype=float)
    a = a / np.linalg.norm(a)
    spec, shift = funcmodel.unshift(spec)
    offset = offset - float(a @ shift)
    V = _midpoint_values(spec, cfg)
    lo, hi = funcmodel.support_box(spec)
    axes, h, cell = _grid_axes(lo, hi, V.shape[0])
    half_diag = 0.5 * float(np.linalg.norm(h))
    grids = np.ix_(*axes)
    dist = a[0] * grids[0] - offset
    for i in range(1, d):
        dist = dist + a[i] * grids[i]
    plus, minus = dist > half_diag, dist < -half_diag
    m = np.zeros(2)
    b = np.zeros((2, d))
    for side, mask in enumerate((plus, minus)):
        W = np.where(mask, V, 0.0)
        for i in range(d):
            marginal = W.sum(axis=tuple(j for j in range(d) if j != i))
            b[side, i] = (marginal @ axes[i]) * cell
        m[side] = float(np.sum(marginal)) * cell
    edge = np.nonzero(~(plus | minus))
    if edge[0].size:
        sub_offsets = (np.stack(np.meshgrid(*([np.array([-0.25, 0.25])] * d),
                                            indexing="ij"), axis=-1).reshape(-1, d) * h)
        X = np.stack([axes[i][edge[i]] for i in range(d)], axis=1)
        sub = (X[:, None, :] + sub_offsets[None, :, :]).reshape(-1, d)
        sv = funcmodel.evaluate_batch(spec, sub)
        sv_plus = np.where(sub @ a - offset >= 0, sv, 0.0)
        w = cell / len(sub_offsets)
        for side, sw in enumerate((sv_plus, sv - sv_plus)):
            m[side] += float(np.sum(sw)) * w
            b[side] += (sw @ sub) * w
    if shift.any():
        b += m[:, None] * shift
    return {"m_plus": m[0], "m_minus": m[1], "b_plus": b[0], "b_minus": b[1]}
