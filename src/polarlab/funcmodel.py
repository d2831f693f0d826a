"""Declarative test functions: 1/s-concave and log-concave families.

A FunctionSpec pairs a concavity class (SConcave(s) or LogConcave) with a
family description (analytic or grid-based).  All operations here are pure.
A spec's fields are frozen after construction; what is derived from them
(support, radial form, and through `FunctionSpec.memo` the data that also
depends on s or a configuration) is computed on first use and kept on the
spec.  If two threads use a spec for the first time at once, such data may be
built twice, with the same value.

A parsed spec may be shared: `spec_from_json` returns the same spec for the
same text (for the 16 most recently parsed documents), with all that is kept
on it.  So grid values and every memoized array are read-only.

Grid-based functions interpolate the *concavity profile* (f^(1/s) for the
s-concave class, log f for the log-concave class) on a Kuhn simplicial
subdivision of the grid cells, so the represented function stays inside the
declared class up to interpolation error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property, lru_cache
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "SConcave",
    "LogConcave",
    "BallIndicator",
    "PolytopeIndicator",
    "HhatPower",
    "Gaussian",
    "ExpNegNorm",
    "GridProfile",
    "Shifted",
    "LogApprox",
    "FunctionSpec",
    "ConcavityReport",
    "BarycenterEstimate",
    "evaluate",
    "evaluate_batch",
    "profile_batch",
    "validate_concavity",
    "barycenter",
    "spec_from_json",
    "spec_to_json",
    "support_box",
    "supp_support_function",
    "axis_extents",
    "conv_support_contains",
    "support_samples",
    "sup_value",
    "is_indicator",
    "kernel_geometry",
]

EPS_TAIL = 1e-12  # tail cutoff for truncating unbounded supports
_GRID_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# concavity classes and families


@dataclass(frozen=True)
class SConcave:
    """f^(1/s) is concave on the support of f."""

    s: float


@dataclass(frozen=True)
class LogConcave:
    """log f is concave on the support of f."""


class Family:
    """A family of functions: the `family` of a FunctionSpec.

    A family is a frozen dataclass of its parameters, named in JSON by
    `kind`, with the JSON schema of each field in `schema`, and registered
    in FAMILIES; `spec_from_json` reads each field by its type (float,
    tuple, np.ndarray or a nested FunctionSpec).  It implements
    `validate(spec)` and `evaluate(spec, X)`, and `support(spec)` unless
    `radial(d)` gives f; the defaults: no radial form, no indicator, sup 1.
    """

    kind: ClassVar[str]
    schema: ClassVar[dict]
    indicator = False

    def radial(self, d: int) -> Optional["RadialInfo"]:
        return None

    def sup(self, spec: "FunctionSpec") -> float:
        return 1.0


_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


@dataclass(frozen=True)
class BallIndicator(Family):
    center: tuple
    radius: float
    kind = "ball_indicator"
    schema = {"center": _VECTOR, "radius": _POSITIVE}
    indicator = True

    def validate(self, spec):
        _vec(self.center, spec.dimension, "ball center")
        if not self.radius > 0:
            raise InputError("ball radius must be positive")

    def evaluate(self, spec, X):
        r = np.linalg.norm(X - np.asarray(self.center), axis=1)
        return (r <= self.radius).astype(float)

    def radial(self, d):
        return RadialInfo(np.asarray(self.center), self.radius,
                          lambda r: (np.asarray(r) <= self.radius).astype(float),
                          indicator=True)


@dataclass(frozen=True)
class PolytopeIndicator(Family):
    vertices: tuple  # tuple of coordinate tuples; nonempty interior required
    kind = "polytope_indicator"
    schema = {"vertices": {"type": "array", "items": _VECTOR, "minItems": 2}}
    indicator = True

    def validate(self, spec):
        V = _array(self.vertices, "polytope vertices")
        d = spec.dimension
        if V.ndim != 2 or V.shape[1] != d or V.shape[0] < d + 1:
            raise InputError("polytope needs at least d+1 vertices of dimension d")
        spec.support  # raises on empty interior

    def evaluate(self, spec, X):
        P = spec.support
        inside = np.all(X @ P.A.T <= P.b + 1e-12, axis=1)
        return inside.astype(float)

    def support(self, spec):
        V = np.asarray(self.vertices, dtype=float)
        return _Polytope.hull(V, V.min(axis=0), V.max(axis=0))


@dataclass(frozen=True)
class HhatPower(Family):
    """(1 - |x|^2)_+^(s_exponent/2): the canonical self-s-polar bump."""

    s_exponent: float
    kind = "hhat_power"
    schema = {"s_exponent": _POSITIVE}

    def validate(self, spec):
        if not self.s_exponent > 0:
            raise InputError("hhat_power exponent must be positive")

    def evaluate(self, spec, X):
        r2 = np.sum(X * X, axis=1)
        return np.maximum(0.0, 1.0 - r2) ** (self.s_exponent / 2.0)

    def radial(self, d):
        e = self.s_exponent
        return RadialInfo(np.zeros(d), 1.0,
                          lambda r: np.maximum(0.0, 1.0 - np.asarray(r) ** 2) ** (e / 2.0),
                          profile=(2, e / 2.0, 1.0))


@dataclass(frozen=True)
class Gaussian(Family):
    center: tuple
    sigma: float
    kind = "gaussian"
    schema = {"center": _VECTOR, "sigma": _POSITIVE}

    def validate(self, spec):
        _vec(self.center, spec.dimension, "gaussian center")
        if not self.sigma > 0:
            raise InputError("gaussian sigma must be positive")

    def evaluate(self, spec, X):
        r2 = np.sum((X - np.asarray(self.center)) ** 2, axis=1)
        return np.exp(-r2 / (2.0 * self.sigma**2))

    def radial(self, d):
        sg = self.sigma
        return RadialInfo(np.asarray(self.center), np.inf,
                          lambda r: np.exp(-np.asarray(r) ** 2 / (2.0 * sg**2)),
                          log_profile=(2, sg * math.sqrt(2.0)))


@dataclass(frozen=True)
class ExpNegNorm(Family):
    scale: float
    kind = "exp_neg_norm"
    schema = {"scale": _POSITIVE}

    def validate(self, spec):
        if not self.scale > 0:
            raise InputError("exp_neg_norm scale must be positive")

    def evaluate(self, spec, X):
        return np.exp(-self.scale * np.linalg.norm(X, axis=1))

    def radial(self, d):
        a = self.scale
        return RadialInfo(np.zeros(d), np.inf,
                          lambda r: np.exp(-a * np.asarray(r)),
                          log_profile=(1, 1.0 / a))


@dataclass(frozen=True, eq=False)
class GridProfile(Family):
    origin: tuple
    spacing: float
    values: np.ndarray = field(repr=False)
    kind = "grid_profile"
    schema = {"origin": _VECTOR, "spacing": _POSITIVE, "values": {"type": "array"}}

    def __post_init__(self):
        # a read-only copy: no write to the caller's array, or through a
        # shared spec, can change f; validate reports values that are no array
        try:
            values = np.array(self.values, dtype=float)
        except (ValueError, TypeError, OverflowError):
            return
        object.__setattr__(self, "values", _readonly(values))

    def validate(self, spec):
        d = spec.dimension
        vals = _array(self.values, "grid values")
        if vals.ndim != d:
            raise InputError("grid values must be a d-dimensional array")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise InputError("grid values must be finite and nonnegative")
        if self.spacing <= 0:
            raise InputError("grid spacing must be positive")
        _vec(self.origin, d, "grid origin")
        _validate_grid_support(vals)

    def evaluate(self, spec, X):
        # row blocks bound the interpolation's temporaries (~200 bytes a row, d = 2)
        p = np.concatenate([_grid_interp_profile(spec, X[a:a + _GRID_BLOCK])
                            for a in range(0, len(X), _GRID_BLOCK)] or [np.empty(0)])
        if spec.is_log_concave:
            out = np.exp(p)
            out[~np.isfinite(p)] = 0.0
            return out
        return np.maximum(0.0, p) ** spec.class_s

    def support(self, spec):
        """Hull of the support nodes, inside the box of the positive nodes
        padded by one cell where the grid allows.

        Log-concave: the positive nodes.  s-concave: f^(1/s) is linear on
        each Kuhn simplex, so f > 0 also reaches towards the zero nodes
        p + delta, delta in {0,1}^d or {0,-1}^d, that share a simplex with a
        positive node p.
        """
        org = np.asarray(self.origin)
        vals = np.asarray(self.values, dtype=float)
        near = vals > 0
        pos = np.argwhere(near)
        if not spec.is_log_concave:
            from scipy import ndimage

            delta = np.indices((3,) * spec.dimension) - 1
            star = np.all(delta >= 0, axis=0) | np.all(delta <= 0, axis=0)
            near = ndimage.binary_dilation(near, structure=star)
        return _Polytope.hull(
            org + np.argwhere(near) * self.spacing,
            org + (pos.min(axis=0) - 1).clip(0) * self.spacing,
            org + (pos.max(axis=0) + 1).clip(max=np.asarray(vals.shape) - 1) * self.spacing,
            vals[near])

    def sup(self, spec):
        return float(np.asarray(self.values).max())


@dataclass(frozen=True)
class Shifted(Family):
    """f(x - offset) for the inner spec's f."""

    inner: FunctionSpec
    offset: tuple
    kind = "shifted"
    schema = {"inner": {"type": "object"}, "offset": _VECTOR}

    @property
    def indicator(self):
        return self.inner.family.indicator

    def validate(self, spec):
        if self.inner.dimension != spec.dimension:
            raise InputError("shifted inner spec dimension mismatch")
        if type(self.inner.concavity_class) is not type(spec.concavity_class):
            raise InputError("shifted inner spec concavity class mismatch")
        _vec(self.offset, spec.dimension, "shift offset")

    def evaluate(self, spec, X):
        return evaluate_batch(self.inner, X - np.asarray(self.offset))

    def radial(self, d):
        ri = self.inner.radial
        if ri is None:
            return None
        return replace(ri, center=ri.center + np.asarray(self.offset))

    def support(self, spec):
        return self.inner.support.translated(np.asarray(self.offset))

    def sup(self, spec):
        return sup_value(self.inner)


@dataclass(frozen=True)
class LogApprox(Family):
    """(1 + log f_inner / s)_+^s: the s-concave approximation of a
    log-concave inner function."""

    inner: FunctionSpec
    s: float
    kind = "log_approx"
    schema = {"inner": {"type": "object"}, "s": _POSITIVE}

    @property
    def indicator(self):
        return self.inner.family.indicator

    def validate(self, spec):
        if self.inner.dimension != spec.dimension:
            raise InputError("log_approx inner spec dimension mismatch")
        if not self.inner.is_log_concave:
            raise InputError("log_approx requires a log-concave inner spec")
        if spec.class_s != self.s:
            raise InputError("log_approx spec must be SConcave with matching s")
        if not self.s > 0:
            raise InputError("log_approx s must be positive")

    def evaluate(self, spec, X):
        inner = evaluate_batch(self.inner, X)
        with np.errstate(divide="ignore"):
            lg = np.log(inner)
        return np.maximum(0.0, 1.0 + lg / self.s) ** self.s

    def radial(self, d):
        ri = self.inner.radial
        if ri is None:
            return None
        s = self.s

        def f_rad(r, _inner=ri.f_rad, _s=s):
            with np.errstate(divide="ignore"):
                lg = np.log(_inner(r))
            return np.maximum(0.0, 1.0 + lg / _s) ** _s

        # support radius: where log f_inner drops to -s
        radius = ri.level_radius(math.exp(-s))
        profile = None
        if ri.log_profile is not None:
            # 1 - (rho/r)^k / s = 1 - (rho / (r s^(1/k)))^k
            k, r = ri.log_profile
            profile = (k, s, r * s ** (1.0 / k))
        return RadialInfo(ri.center, radius, f_rad, profile=profile)

    def support(self, spec):
        """conv supp f_s: that of f for an indicator (log 1 = 0: f_s = f);
        else f is a log-concave grid, shifted or not.

        f_s^(1/s) is then the positive part of an affine function on each
        Kuhn simplex, so supp f_s is the hull of the nodes where it is
        positive and of the points where it is 0 on the Kuhn edges, the node
        pairs that differ by a nonzero delta in {0,1}^d.
        """
        if self.indicator:
            return self.inner.support
        s = self.s
        grid, offset = unshift(self.inner)
        fam = grid.family
        with np.errstate(divide="ignore"):
            p = 1.0 + np.log(np.asarray(fam.values, dtype=float)) / s
        if not (p > 0).any():
            raise InputError("log_approx support is empty (log f <= -s everywhere)")
        idx, values = [np.argwhere(p > 0)], [p[p > 0] ** s]
        for delta in np.argwhere(np.ones((2,) * spec.dimension))[1:]:
            a = np.argwhere(np.ones(np.asarray(p.shape) - delta))
            pa, pb = p[tuple(a.T)], p[tuple((a + delta).T)]
            cross = np.isfinite(pa) & np.isfinite(pb) & ((pa > 0) != (pb > 0))
            t = pa[cross] / (pa[cross] - pb[cross])
            idx.append(a[cross] + t[:, None] * delta)
            values.append(np.zeros(len(t)))
        box = grid.support
        return _Polytope.hull(np.asarray(fam.origin) + np.concatenate(idx) * fam.spacing + offset,
                              box.lo + offset, box.hi + offset, np.concatenate(values))

    def sup(self, spec):
        top = max(sup_value(self.inner), 1e-300)
        return float(np.maximum(0.0, 1.0 + math.log(top) / self.s) ** self.s)


FAMILIES = {cls.kind: cls for cls in (BallIndicator, PolytopeIndicator, HhatPower, Gaussian,
                                      ExpNegNorm, GridProfile, Shifted, LogApprox)}


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    dimension: int
    concavity_class: Union[SConcave, LogConcave]
    family: Family

    def __post_init__(self):
        d = self.dimension
        if not isinstance(d, (int, np.integer)) or not 1 <= d <= 3:
            raise InputError("dimension must be 1, 2 or 3")
        cc = self.concavity_class
        if isinstance(cc, SConcave):
            if not (cc.s > 0 and math.isfinite(cc.s)):
                raise InputError("SConcave requires s > 0")
        elif not isinstance(cc, LogConcave):
            raise InputError("concavity_class must be SConcave or LogConcave")
        if not isinstance(self.family, Family):
            raise InputError(f"unknown family {type(self.family).__name__}")
        self.family.validate(self)

    @property
    def is_log_concave(self) -> bool:
        return isinstance(self.concavity_class, LogConcave)

    @property
    def class_s(self) -> Optional[float]:
        cc = self.concavity_class
        return cc.s if isinstance(cc, SConcave) else None

    @cached_property
    def radial(self) -> Optional["RadialInfo"]:
        """Radial description of f, or None; computed once per spec."""
        return self.family.radial(self.dimension)

    @cached_property
    def support(self) -> Union["_Ball", "_Polytope"]:
        """conv supp f, truncated at EPS_TAIL; computed once per spec."""
        ri = self.radial
        if ri is not None:
            return _Ball(ri.center, ri.truncated_radius(EPS_TAIL))
        return self.family.support(self)

    def memo(self, key: tuple, build):
        """build(), computed once per spec and key.  It is kept in the spec's
        __dict__ beside the cached properties, so it lives as long as the
        spec; keys are tuples, so they never meet an attribute name."""
        cache = self.__dict__
        if key not in cache:
            cache[key] = _readonly(build())
        return cache[key]


def _readonly(value):
    """value, with every array in it (also in a tuple or a dataclass field)
    made read-only: what is kept on a spec is shared by all its callers, so an
    in-place write raises instead of changing their results."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for v in value:
            _readonly(v)
    elif is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            _readonly(getattr(value, f.name))
    return value


def unshift(spec: FunctionSpec):
    """(inner, offset) with spec = inner shifted by offset and inner not
    itself shifted."""
    offset = np.zeros(spec.dimension)
    while isinstance(spec.family, Shifted):
        offset = offset + np.asarray(spec.family.offset)
        spec = spec.family.inner
    return spec, offset


def _vec(v, d, what):
    a = _array(v, what)
    if a.shape != (d,):
        raise InputError(f"{what}: expected a vector of length {d}, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):  # cheaper than numpy at length d
        raise InputError(f"{what}: entries must be finite")
    return a


def _array(v, what):
    try:
        return np.asarray(v, dtype=float)
    except (ValueError, TypeError, OverflowError):
        raise InputError(f"{what} must be a rectangular array of numbers") from None


def _validate_grid_support(vals: np.ndarray) -> None:
    pos = vals > 0
    if not pos.any():
        raise InputError("grid support is empty")
    # support must be one face-connected component of positive nodes
    idx = np.argwhere(pos)
    seen = {tuple(idx[0])}
    stack = [tuple(idx[0])]
    while stack:
        p = stack.pop()
        for ax in range(vals.ndim):
            for dlt in (-1, 1):
                q = list(p)
                q[ax] += dlt
                q = tuple(q)
                if all(0 <= q[i] < vals.shape[i] for i in range(vals.ndim)) and pos[q] and q not in seen:
                    seen.add(q)
                    stack.append(q)
    if len(seen) != pos.sum():
        raise InputError("grid support must be connected")
    # nonempty interior: at least one cell with all 2^d corners positive
    core = pos
    for ax in range(vals.ndim):
        lo = [slice(None)] * vals.ndim
        hi = [slice(None)] * vals.ndim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        core = core[tuple(lo)] & core[tuple(hi)]
    if not core.any():
        raise InputError("grid support has empty interior (no fully positive cell)")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(spec: FunctionSpec, x) -> float:
    """f(x) for a single point x in R^d."""
    X = _vec(x, spec.dimension, "point")[None, :]
    return float(evaluate_batch(spec, X)[0])


def evaluate_batch(spec: FunctionSpec, X: np.ndarray) -> np.ndarray:
    """Vectorized f over rows of X, shape (n, d)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dimension:
        raise InputError("points must have shape (n, d)")
    return spec.family.evaluate(spec, X)


def profile_batch(spec: FunctionSpec, X: np.ndarray) -> np.ndarray:
    """Concavity profile: f^(1/s) for SConcave, log f for LogConcave.

    Outside the support the profile is 0 (s-concave) resp. -inf (log).
    """
    f = evaluate_batch(spec, X)
    if spec.is_log_concave:
        with np.errstate(divide="ignore"):
            return np.log(f)
    return f ** (1.0 / spec.class_s)


def _polytope_inequalities(V: np.ndarray):
    """Facet inequalities A x <= b of conv(rows of V); raises InputError if the
    hull is degenerate (empty interior)."""
    if V.shape[1] == 1:
        lo, hi = V[:, 0].min(), V[:, 0].max()
        if hi - lo <= 0:
            raise InputError("polytope has empty interior")
        return np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(V)
    except QhullError as exc:
        raise InputError("polytope has empty interior") from exc
    eq = hull.equations  # rows [a, b] with a.x + b <= 0
    return eq[:, :-1], -eq[:, -1]


def _grid_interp_profile(spec: FunctionSpec, X: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of the node profile on the Kuhn
    subdivision of grid cells; -inf (log) / 0 (s-concave boundary handled by
    caller) outside the grid hull."""
    fam = spec.family
    vals = np.asarray(fam.values, dtype=float)
    if spec.is_log_concave:
        with np.errstate(divide="ignore"):
            nodes = np.log(vals)
        fill = -np.inf
    else:
        nodes = vals ** (1.0 / spec.class_s)
        fill = 0.0
    d = spec.dimension
    t = (X - np.asarray(fam.origin)) / fam.spacing
    cell = np.floor(t).astype(int)
    frac = t - cell
    # clamp points exactly on the upper grid edge into the last cell
    for ax in range(d):
        top = cell[:, ax] == vals.shape[ax] - 1
        sel = top & (frac[:, ax] == 0.0)
        cell[sel, ax] -= 1
        frac[sel, ax] = 1.0
    inside = np.all(cell >= 0, axis=1) & np.all(
        cell < np.asarray(vals.shape) - 1, axis=1
    )
    out = np.full(len(X), fill)
    if not inside.any():
        return out
    c = cell[inside]
    fr = frac[inside]
    order = np.argsort(-fr, axis=1, kind="stable")
    fr_sorted = np.take_along_axis(fr, order, axis=1)
    # Kuhn simplex weights
    w = np.empty((c.shape[0], d + 1))
    w[:, 0] = 1.0 - fr_sorted[:, 0]
    for k in range(1, d):
        w[:, k] = fr_sorted[:, k - 1] - fr_sorted[:, k]
    w[:, d] = fr_sorted[:, d - 1]
    # vertex k = cell + sum of e_{order[0..k-1]}, as a flat index into nodes
    flat = np.ravel_multi_index(tuple(c.T), vals.shape)
    step = np.ravel_multi_index(tuple(np.eye(d, dtype=int)), vals.shape)
    node_vals = np.empty((c.shape[0], d + 1))
    node_vals[:, 0] = nodes.flat[flat]
    for k in range(1, d + 1):
        flat += step[order[:, k - 1]]
        node_vals[:, k] = nodes.flat[flat]
    with np.errstate(invalid="ignore"):
        contrib = w * node_vals
    # a zero-weight vertex never contributes, even at -inf nodes
    contrib[w <= 1e-15] = 0.0
    res = contrib.sum(axis=1)
    res[np.any((node_vals == -np.inf) & (w > 1e-15), axis=1)] = -np.inf
    out[inside] = res
    return out


# ---------------------------------------------------------------------------
# geometry helpers


@dataclass(frozen=True)
class RadialInfo:
    """Radial structure of a spec: f(x) = f_rad(|x - center|)."""

    center: np.ndarray
    radius: float  # support radius; may be inf
    f_rad: object  # vectorized profile of rho
    indicator: bool = False
    # f_rad in closed form, where it has one: (k, m, r) for
    # (1 - (rho/r)^k)_+^m, and (k, r) for exp(-(rho/r)^k)
    profile: Optional[tuple] = None
    log_profile: Optional[tuple] = None

    def truncated_radius(self, eps_tail: float) -> float:
        if np.isfinite(self.radius):
            return self.radius
        return self.level_radius(eps_tail)

    def level_radius(self, level: float) -> float:
        """Where f_rad drops to level, by bisection; the support radius when
        f_rad stays above level up to it."""
        if np.isfinite(self.radius):
            if self.f_rad(np.array([self.radius]))[0] > level:
                return self.radius
            lo, hi = 0.0, self.radius
        else:
            lo, hi = 0.0, 1.0
            while self.f_rad(np.array([hi]))[0] > level:
                hi *= 2.0
                if hi > 1e12:
                    raise NumericError("radial profile does not decay")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.f_rad(np.array([mid]))[0] > level:
                lo = mid
            else:
                hi = mid
        return hi


def is_indicator(spec: FunctionSpec) -> bool:
    return spec.family.indicator


@dataclass(frozen=True)
class _Ball:
    """The ball |x - center| <= radius."""

    center: np.ndarray
    radius: float

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.radius

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.radius

    def support_function(self, Y: np.ndarray) -> np.ndarray:
        return Y @ self.center + self.radius * np.linalg.norm(Y, axis=1)

    def margin(self, x: np.ndarray) -> float:
        """Positive inside, zero on the boundary, negative outside."""
        w = x - self.center
        return self.radius - math.sqrt(float(w.dot(w)))  # np.linalg.norm, cheaper

    def ray_extent(self, z: np.ndarray, u: np.ndarray) -> float:
        c = z - self.center
        b = float(c @ u)
        disc = b * b - (float(c @ c) - self.radius**2)
        if disc < 0:
            raise NumericError("ray start outside the support")
        return -b + math.sqrt(disc)


@dataclass(frozen=True)
class _Polytope:
    """conv(points) = {x : A x <= b}, inside the axis box [lo, hi]; for a
    grid-based spec, values holds f at the points (`kernel_geometry`)."""

    points: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    values: Optional[np.ndarray] = None

    @classmethod
    def hull(cls, points: np.ndarray, lo, hi, values=None) -> "_Polytope":
        return cls(points, *_polytope_inequalities(points), lo, hi, values)

    def translated(self, offset: np.ndarray) -> "_Polytope":
        return _Polytope.hull(self.points + offset, self.lo + offset, self.hi + offset,
                              self.values)

    def support_function(self, Y: np.ndarray) -> np.ndarray:
        return (Y @ self.points.T).max(axis=1)

    def margin(self, x: np.ndarray) -> float:
        """Positive inside, zero on the boundary, negative outside."""
        return float(np.min(self.b - self.A @ x))

    def ray_extent(self, z: np.ndarray, u: np.ndarray) -> float:
        slack = self.b - self.A @ z
        rate = self.A @ u
        pos = rate > 1e-14
        if not pos.any():
            return np.inf
        return float(np.min(slack[pos] / rate[pos]))

    @cached_property
    def polar_cells(self):
        """(A, b, T, |det A_S| for S in T): the distinct facets of P and a
        triangulation T of the boundary of (P - z)°, valid for every
        interior z.

        (P - z)° = conv{a_i / c_i} with c = b - A z.  It is the image of the
        polar about one interior point under a projective map that fixes
        the origin, so the combinatorial type of its boundary (the dual of
        P) and one triangulation of it, each simplex a set of d facet
        indices, serve every interior z.
        """
        E = np.column_stack([self.A, self.b])
        # a facet the hull lists once per triangle of it counts once
        tol = 1e-9 * max(1.0, float(np.abs(self.b).max()))
        same = np.abs(E[:, None, :] - E[None, :, :]).max(axis=2) <= tol
        E = E[~np.triu(same, 1).any(axis=0)]
        A, b = E[:, :-1], E[:, -1]
        if A.shape[1] == 1:
            tri = np.arange(len(A))[:, None]
        else:
            from scipy.spatial import ConvexHull

            z0 = self.points.mean(axis=0)  # interior: the points span R^d
            tri = ConvexHull(A / (b - A @ z0)[:, None]).simplices
        return A, b, tri, np.abs(np.linalg.det(A[tri]))


def polytope_support(spec: FunctionSpec) -> Optional[_Polytope]:
    """The support of spec when spec is the indicator of a polytope, None for
    any other spec."""
    if is_indicator(spec) and isinstance(spec.support, _Polytope):
        return spec.support
    return None


def kernel_geometry(spec: FunctionSpec, s: float) -> Union[RadialInfo, _Polytope]:
    """What the exact s-polar and lifted-support kernels read for a spec that
    is not an indicator, at finite s: spec.radial, or else spec.support,
    whose points carry f (a grid-based spec).

    An unbounded support raises InputError: there the s-polar is 0 off
    y = 0, while the lifted body is cut where f drops to EPS_TAIL.  So does
    a grid-based spec at s above the s' for which f^(1/s') is affine, or its
    positive part, on each piece (the class s of a grid or of log_approx; a
    log-concave grid, whose log f is affine, takes any s): only for s <= s'
    is f^(1/s) convex and (c - <x,y>)^s / f quasi-concave on a piece, so
    that both extrema sit at its vertices.
    """
    ri = spec.radial
    if ri is not None:
        if not np.isfinite(ri.radius):
            raise InputError("finite s requires a bounded support")
        return ri
    piece, _ = unshift(spec)
    if piece.class_s is not None and s > piece.class_s:
        raise InputError(f"a grid-based spec of class s = {piece.class_s} "
                         f"has no exact kernel at s = {s}")
    return spec.support


def support_box(spec: FunctionSpec):
    """Axis-aligned bounding box (lo, hi) of supp f; an unbounded support is
    truncated where f drops to EPS_TAIL."""
    return spec.support.lo, spec.support.hi


def supp_support_function(spec: FunctionSpec, Y: np.ndarray) -> np.ndarray:
    """h_{supp f}(y) over rows of Y; an unbounded support is truncated where f
    drops to EPS_TAIL."""
    return spec.support.support_function(np.atleast_2d(np.asarray(Y, dtype=float)))


def axis_extents(spec: FunctionSpec, z: np.ndarray):
    """Per-axis reach (r_minus, r_plus) of conv supp f - z along -e_i / +e_i;
    an unbounded support is truncated where f drops to EPS_TAIL.

    Requires z in the interior of the (truncated) conv supp f.
    """
    z = np.asarray(z, dtype=float)
    if spec.support.margin(z) <= 0:
        raise NumericError("center outside the support")
    E = np.eye(spec.dimension)
    return (np.array([support_ray_extent(spec, z, -e) for e in E]),
            np.array([support_ray_extent(spec, z, e) for e in E]))


def support_ray_extent(spec: FunctionSpec, z, direction) -> float:
    """max r with z + r * direction in conv supp f; an unbounded support is
    truncated where f drops to EPS_TAIL."""
    u = np.asarray(direction, dtype=float)
    return spec.support.ray_extent(_vec(z, spec.dimension, "point"), u / np.linalg.norm(u))


def conv_support_contains(spec: FunctionSpec, x, tol: float = 0.0) -> bool:
    """x within tol of conv supp f; an unbounded support is truncated where f
    drops to EPS_TAIL."""
    return spec.support.margin(_vec(x, spec.dimension, "point")) >= -tol


def sup_value(spec: FunctionSpec) -> float:
    """sup f.  All built-in families attain their sup at a known point."""
    return spec.family.sup(spec)


def support_samples(spec: FunctionSpec, n: int, seed: int) -> np.ndarray:
    """n points sampled uniformly from {f > 0} by rejection in the bounding
    box of supp f; an unbounded support is truncated where f drops to
    EPS_TAIL."""
    rng = np.random.default_rng(seed)
    lo, hi = support_box(spec)
    out = []
    got = 0
    for _ in range(1000):
        X = rng.uniform(lo, hi, size=(max(4 * n, 256), spec.dimension))
        X = X[evaluate_batch(spec, X) > 0]
        out.append(X)
        got += len(X)
        if got >= n:
            break
    X = np.concatenate(out)
    if len(X) < n:
        raise NumericError("support sampling failed (support too thin?)")
    return X[:n]


# ---------------------------------------------------------------------------
# concavity validation, barycenter


@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    violations: tuple  # (x, y, gap) triples beyond tolerance
    max_violation: float

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_concavity(spec: FunctionSpec, trials: int, seed: int,
                       tol: float = 1e-9) -> ConcavityReport:
    """Random midpoint checks of the concavity profile on supp f."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    X = support_samples(spec, trials, seed)
    Y = support_samples(spec, trials, seed + 1)
    M = 0.5 * (X + Y)
    px, py, pm = (profile_batch(spec, P) for P in (X, Y, M))
    gap = 0.5 * (px + py) - pm  # positive gap = concavity violated
    gap = np.where(np.isfinite(gap), gap, np.where(pm == -np.inf, np.inf, -np.inf))
    bad = gap > tol
    viol = tuple(
        (tuple(X[i]), tuple(Y[i]), float(gap[i])) for i in np.nonzero(bad)[0][:100]
    )
    mx = float(np.max(gap, initial=0.0))
    return ConcavityReport(trials, viol, max(mx, 0.0))


@dataclass(frozen=True)
class BarycenterEstimate:
    vector: np.ndarray
    error: float


def barycenter(spec: FunctionSpec, cfg=None) -> BarycenterEstimate:
    """Mass-normalized first moment, by the grid oracle."""
    from . import integration

    cfg = cfg or integration.IntegrationConfig()
    mass, mom, err = integration.moment_grid(spec, cfg)
    if not mass > 0 or not np.isfinite(mass):
        raise NumericError("spec has nonpositive or non-finite integral")
    return BarycenterEstimate(mom / mass, err / mass)


# ---------------------------------------------------------------------------
# JSON interface

SPEC_SCHEMA = {
    "type": "object",
    "required": ["dimension", "class", "family"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 1, "maximum": 3},
        "class": {
            "oneOf": [
                {"const": "log"},
                {
                    "type": "object",
                    "required": ["s"],
                    "additionalProperties": False,
                    "properties": {"s": {"type": "number", "exclusiveMinimum": 0}},
                },
            ]
        },
        "family": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"type": "string"}},
        },
    },
}

@lru_cache(maxsize=16)
def spec_from_json(text: str) -> FunctionSpec:
    """Parse and validate a FunctionSpec JSON document.

    Raises InputError carrying a list of {path, message} violations.  The 16
    most recently parsed texts are kept: the same text gives the same spec,
    with all that is memoized on it; any other text, also the same document
    with other key order or spacing, is parsed afresh.  A document that
    raises is not kept.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON", [{"path": "", "message": str(exc)}]) from exc
    return _spec_from_doc(doc, path="")


def _schema_errors(schema, doc, path: str) -> None:
    import jsonschema

    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if errors:
        raise InputError("spec schema violation", [
            {"path": path + "/" + "/".join(str(p) for p in e.absolute_path),
             "message": e.message}
            for e in errors
        ])


def _spec_from_doc(doc, path: str) -> FunctionSpec:
    _schema_errors(SPEC_SCHEMA, doc, path)
    fam_doc = doc["family"]
    kind = fam_doc["kind"]
    fpath = f"{path}/family"
    if kind not in FAMILIES:
        raise InputError("spec schema violation",
                         [{"path": f"{fpath}/kind", "message": f"unknown kind {kind!r}"}])
    cls = FAMILIES[kind]
    _schema_errors({"type": "object", "additionalProperties": False,
                    "required": ["kind", *(f.name for f in fields(cls))],
                    "properties": dict(cls.schema, kind={"const": kind})}, fam_doc, fpath)
    fam = cls(**{f.name: _field_from_json(f.type, fam_doc[f.name], f"{fpath}/{f.name}")
                 for f in fields(cls)})
    cc = (LogConcave() if doc["class"] == "log"
          else SConcave(_field_from_json("float", doc["class"]["s"], f"{path}/class/s")))
    return FunctionSpec(doc["dimension"], cc, fam)


def _field_from_json(ftype: str, value, path: str):
    """A family field from its JSON value, by the field's type."""
    if ftype == "FunctionSpec":
        return _spec_from_doc(value, path)
    try:
        if ftype == "float":
            return float(value)
        array = np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError):
        raise InputError("spec schema violation", [
            {"path": path, "message": "expected a number" if ftype == "float"
             else "expected a rectangular array of numbers"}]) from None
    return array if ftype == "np.ndarray" else _nested(tuple, value)


def _nested(container, value):
    """value with each list, tuple or array level (a JSON array) as container."""
    return container(_nested(container, v) if isinstance(v, (list, tuple, np.ndarray)) else v
                     for v in value)


def spec_to_json(spec: FunctionSpec) -> str:
    return json.dumps(_spec_to_doc(spec), sort_keys=True)


def _spec_to_doc(spec: FunctionSpec):
    fam = spec.family
    doc = {"kind": fam.kind}
    for f in fields(fam):
        value = getattr(fam, f.name)
        if f.type == "FunctionSpec":
            value = _spec_to_doc(value)
        elif f.type == "np.ndarray":
            value = np.asarray(value).tolist()
        elif f.type == "tuple":
            value = _nested(list, value)
        doc[f.name] = value
    cls = "log" if spec.is_log_concave else {"s": spec.class_s}
    return {"dimension": spec.dimension, "class": cls, "family": doc}
