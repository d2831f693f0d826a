"""Verification suites aggregating the numerical property checks of the
library: self-polarity, kappa identities, sphere-vs-oracle agreement,
convexity properties of the polar integral, Santalo inequalities, the
one-dimensional level-transform machinery, approximation convergence,
region geometry, and lifting identities.

Each suite returns {"suite", "seed", "cases", "passed", "failed",
"worst_slack"} with one entry per named check.  Positive slack means margin
to the tolerance; negative slack is a failure.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List

import numpy as np

from . import funcmodel as fm
from . import integration, lifting, polar_integrals as pint, regions, santalo, transforms
from .errors import InputError

SUITE_NAMES = ("lifting", "transforms", "alexandrov", "santalo", "onedim",
               "approx", "regions")

S_GRID = (0.5, 1.0, 2.0, 5.0)


def _case(cases: List[dict], name: str, ok: bool, slack: float, **extra):
    cases.append({"name": name, "pass": bool(ok), "slack": float(slack), **extra})


def _report(name: str, seed: int, cases: List[dict]) -> dict:
    failed = sum(1 for c in cases if not c["pass"])
    worst = min((c["slack"] for c in cases), default=0.0)
    return {
        "suite": name,
        "seed": seed,
        "cases": cases,
        "passed": len(cases) - failed,
        "failed": failed,
        "worst_slack": worst,
    }


# ---------------------------------------------------------------------------
# spec builders


def hhat(d: int, s: float) -> fm.FunctionSpec:
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def cube(d: int, s: float, half: float = 1.0) -> fm.FunctionSpec:
    corners = np.stack(np.meshgrid(*([np.array([-half, half])] * d),
                                   indexing="ij"), axis=-1).reshape(-1, d)
    return fm.FunctionSpec(d, fm.SConcave(s),
                           fm.PolytopeIndicator(tuple(map(tuple, corners))))


def ball(d: int, s: float, center=None, radius: float = 1.0) -> fm.FunctionSpec:
    c = (0.0,) * d if center is None else tuple(center)
    return fm.FunctionSpec(d, fm.SConcave(s), fm.BallIndicator(c, radius))


def shifted(spec: fm.FunctionSpec, offset) -> fm.FunctionSpec:
    return fm.FunctionSpec(spec.dimension, spec.concavity_class,
                           fm.Shifted(spec, tuple(offset)))


def gaussian(d: int, center=None, sigma: float = 1.0) -> fm.FunctionSpec:
    c = (0.0,) * d if center is None else tuple(center)
    return fm.FunctionSpec(d, fm.LogConcave(), fm.Gaussian(c, sigma))


def fs_gaussian(d: int, s: float, center=None) -> fm.FunctionSpec:
    return transforms.s_approx(gaussian(d, center), s)


# ---------------------------------------------------------------------------
# transforms suite: self-polarity, involution, Legendre facts


def suite_transforms(seed: int = 0) -> dict:
    cases: List[dict] = []
    rng = np.random.default_rng(seed)

    # self-polarity of hhat^s under L_s
    t0 = time.time()
    for d in (1, 2, 3):
        for s in S_GRID:
            spec = hhat(d, s)
            Y = rng.uniform(-1.15, 1.15, size=(200, d))
            err = float(np.max(np.abs(
                transforms.s_polar_batch(spec, s, Y) - fm.evaluate_batch(spec, Y))))
            _case(cases, f"self_polar_finite_d{d}_s{s}", err <= 1e-6, 1e-6 - err)
    _case(cases, "self_polar_finite_runtime", time.time() - t0 < 10.0,
          10.0 - (time.time() - t0))

    # self-polarity of the standard Gaussian under the log-polar transform
    for d in (1, 2, 3):
        g = gaussian(d)
        Y = rng.uniform(-2.0, 2.0, size=(200, d))
        err = max(abs(transforms.log_polar(g, y) - math.exp(-0.5 * float(y @ y)))
                  for y in Y)
        _case(cases, f"self_polar_log_d{d}", err <= 1e-6, 1e-6 - err)

    # order reversal on nested indicators
    small = ball(1, 1.0, radius=0.5)
    big = ball(1, 1.0, radius=1.0)
    Y = rng.uniform(-1.5, 1.5, size=(100, 1))
    gap = float(np.min(transforms.s_polar_batch(small, 1.0, Y)
                       - transforms.s_polar_batch(big, 1.0, Y)))
    _case(cases, "order_reversal", gap >= -1e-12, gap + 1e-12)

    # involution L_s L_s f = f at interior points (d = 1, numeric double polar)
    for label, spec, s in (("hhat", hhat(1, 2.0), 2.0),
                           ("interval", cube(1, 1.0), 1.0),
                           ("ball_shifted", ball(1, 1.0, center=(0.2,)), 1.0)):
        rm, rp = fm.axis_extents(spec, np.zeros(1))
        ygrid = np.linspace(-1.0 / rm[0], 1.0 / rp[0], 8193)[:, None]
        X = rng.uniform(-0.8 * rm[0], 0.8 * rp[0], size=24)

        def double_polar(x):
            lo, hi = float(ygrid[0, 0]), float(ygrid[-1, 0])
            best = math.inf
            for _ in range(4):
                ys = np.linspace(lo, hi, 1025)[:, None]
                L = np.asarray(transforms.s_polar_batch(spec, s, ys)).reshape(-1)
                ratio = np.where(L > 0,
                                 np.maximum(0.0, 1.0 - x * ys[:, 0]) ** s
                                 / np.where(L > 0, L, 1.0), math.inf)
                j = int(np.argmin(ratio))
                best = min(best, float(ratio[j]))
                lo = float(ys[max(j - 1, 0), 0])
                hi = float(ys[min(j + 1, len(ys) - 1), 0])
            return best

        worst = 0.0
        for x in X:
            fx = fm.evaluate(spec, np.array([x]))
            worst = max(worst, abs(double_polar(float(x)) - fx))
        _case(cases, f"involution_{label}", worst <= 1e-6, 1e-6 - worst)

    # Fenchel-Young on psi = |x|^2 / 2
    ev = transforms.legendre_evaluator(gaussian(2))
    X = rng.uniform(-1.5, 1.5, size=(50, 2))
    Yp = rng.uniform(-1.5, 1.5, size=(50, 2))
    worst_ineq = 0.0
    worst_eq = 0.0
    for x, y in zip(X, Yp):
        lv = transforms.legendre(ev, y)
        psi_x = 0.5 * float(x @ x)
        worst_ineq = max(worst_ineq, float(x @ y) - psi_x - lv.value)
        # equality at the subgradient pairing y = x
        lv2 = transforms.legendre(ev, x)
        worst_eq = max(worst_eq, abs(psi_x + lv2.value - float(x @ x)))
    _case(cases, "fenchel_young_inequality", worst_ineq <= 1e-9, 1e-9 - worst_ineq)
    _case(cases, "fenchel_young_equality", worst_eq <= 1e-8, 1e-8 - worst_eq)

    # legendre of the norm: ball indicator of the conjugate
    e = fm.FunctionSpec(1, fm.LogConcave(), fm.ExpNegNorm(1.0))
    ev = transforms.legendre_evaluator(e)
    inside = transforms.legendre(ev, np.array([0.7]))
    outside = transforms.legendre(ev, np.array([1.4]))
    _case(cases, "legendre_norm_inside",
          (not inside.infinite) and abs(inside.value) <= 1e-8,
          1e-8 - abs(inside.value))
    _case(cases, "legendre_norm_outside", outside.infinite,
          1.0 if outside.infinite else -1.0)

    # s_approx closed forms
    fs = fs_gaussian(1, 2.0)
    v = fm.evaluate(fs, np.array([1.0]))
    _case(cases, "s_approx_gaussian_point", abs(v - 0.5625) <= 1e-12,
          1e-12 - abs(v - 0.5625))
    ind = cube(1, 1.0)
    vals = fm.evaluate_batch(ind, rng.uniform(-1.5, 1.5, size=(50, 1)))
    # indicators are fixed points of the approximation
    fs_ind_vals = np.where(vals > 0, 1.0, 0.0)
    _case(cases, "s_approx_indicator_fixed", np.array_equal(vals, fs_ind_vals), 1.0)

    # scalar limit identity along a doubling schedule
    a, b, lam = 0.7, 1.9, 0.35
    d_plus_s = 1.0 + 4096.0
    expr = (lam * a ** (1.0 / d_plus_s) + (1 - lam) * b ** (1.0 / d_plus_s)) ** d_plus_s
    limit = a**lam * b ** (1 - lam)
    err = abs(expr - limit) / limit
    _case(cases, "power_mean_limit", err <= 1e-3, 1e-3 - err)

    # support containment of the approximated polar (scale 1/s)
    ene = fm.FunctionSpec(1, fm.LogConcave(), fm.ExpNegNorm(1.0))
    for s in (4.0, 16.0):
        fs = transforms.s_approx(ene, s)
        y_out = np.array([[1.3 / s], [-1.7 / s]])
        vals = transforms.s_polar_batch(fs, s, y_out)
        _case(cases, f"approx_support_containment_s{s}",
              float(np.max(vals)) == 0.0, -float(np.max(vals)))
    return _report("transforms", seed, cases)


# ---------------------------------------------------------------------------
# alexandrov suite: kappa identities, oracle agreement, convexity properties


def _interior_center(spec: fm.FunctionSpec, rng, shrink: float = 0.5) -> np.ndarray:
    z0 = fm.barycenter(spec).vector
    rm, rp = fm.axis_extents(spec, z0)
    u = rng.uniform(-1.0, 1.0, size=spec.dimension)
    return z0 + shrink * np.where(u >= 0, u * rp, u * rm)


def suite_alexandrov(seed: int = 0) -> dict:
    cases: List[dict] = []
    rng = np.random.default_rng(seed)

    # kappa against the radial grid oracle and the factorization identity
    for d in (1, 2, 3):
        for s in S_GRID:
            k = pint.kappa(d, s)
            val, _ = pint.integrate_grid(hhat(d, s))
            rel = abs(val - k) / k
            _case(cases, f"kappa_grid_d{d}_s{s}", rel <= 1e-6, 1e-6 - rel)
            if d > 1:
                fact = abs(pint.kappa(1, s) * pint.kappa(d - 1, s + 1) - k) / k
                _case(cases, f"kappa_factorization_d{d}_s{s}", fact <= 1e-12,
                      1e-12 - fact)
    q = pint.default_quadrature(2, 0.5)
    mrel = abs(float(q.weights.sum()) - q.moment()) / q.moment()
    _case(cases, "quadrature_moment", mrel <= 1e-10, 1e-10 - mrel)

    # interval anchor for the spherical formula
    interval = cube(1, 1.0)
    for z in (0.0, 0.5, -0.3):
        got = pint.phi_sphere(interval, 1.0, [z]).value
        want = 2.0 / (2.0 * (1.0 - z * z))
        rel = abs(got - want) / want
        _case(cases, f"interval_anchor_z{z}", rel <= 1e-6, 1e-6 - rel)

    # sphere-vs-oracle agreement at random interior centers
    plans = {
        1: [(s, 3) for s in S_GRID],
        2: [(0.5, 2), (1.0, 2), (2.0, 2), (5.0, 1)],
        3: [(1.0, 1), (2.0, 1), (5.0, 1)],
    }
    families: Dict[str, Callable] = {
        "box": lambda d, s: cube(d, s),
        "ball": lambda d, s: ball(d, s, center=(0.1,) + (0.0,) * (d - 1)),
        "hhat": hhat,
        "fs_gaussian": lambda d, s: fs_gaussian(d, s),
    }
    for fname, make in families.items():
        worst = math.inf
        n_centers = 0
        for d, plan in plans.items():
            for s, reps in plan:
                spec = make(d, s)
                for _ in range(reps):
                    z = _interior_center(spec, rng, shrink=0.35)
                    vs = pint.phi_sphere(spec, s, z).value
                    vo = pint.phi_oracle(spec, s, z).value
                    rel = abs(vs - vo) / vo
                    worst = min(worst, 1e-3 - rel)
                    n_centers += 1
        _case(cases, f"oracle_agreement_{fname}", worst >= 0.0, worst,
              centers=n_centers)

    # Alexandrov-type midpoint properties of Phi
    prop_specs = [("hhat_d1", hhat(1, 2.0), 2.0),
                  ("box_d1", cube(1, 1.0), 1.0),
                  ("ball_d2", ball(2, 1.0), 1.0),
                  ("fs_gauss_d2", fs_gaussian(2, 2.0), 2.0)]
    for label, spec, s in prop_specs:
        d = spec.dimension
        z0 = fm.barycenter(spec).vector
        rm, rp = fm.axis_extents(spec, z0)

        def phi_at(Z):
            return np.array([pint.phi_sphere(spec, s, z).value for z in Z])

        n = 1000
        ua = rng.uniform(-0.45, 0.45, size=(n, d))
        ub = rng.uniform(-0.45, 0.45, size=(n, d))
        A = z0 + np.where(ua >= 0, ua * rp, ua * rm)
        B = z0 + np.where(ub >= 0, ub * rp, ub * rm)
        pa, pb, pm = phi_at(A), phi_at(B), phi_at(0.5 * (A + B))
        scale = 0.5 * (pa + pb)
        conv_slack = float(np.min((scale - pm) / scale))
        _case(cases, f"phi_convex_{label}", conv_slack >= -1e-8, conv_slack + 1e-8)
        e = -1.0 / (d + s)
        qa, qb, qm = pa**e, pb**e, pm**e
        qscale = 0.5 * (qa + qb)
        conc_slack = float(np.min((qm - qscale) / qscale))
        _case(cases, f"phi_power_concave_{label}", conc_slack >= -1e-8,
              conc_slack + 1e-8)

        # finite-difference Hessian eigenvalue signs at sampled points
        hstep = 1e-3
        for k in range(2):
            z = z0 + 0.2 * np.where(rng.uniform(-1, 1, d) >= 0, rp, -rm) * rng.uniform(0, 1, d)
            eye = np.eye(d)
            def fd_hess(fun):
                Hm = np.empty((d, d))
                f0 = fun(z[None, :])[0]
                for i in range(d):
                    for j in range(d):
                        fpp = fun((z + hstep * eye[i] + hstep * eye[j])[None, :])[0]
                        fpm = fun((z + hstep * eye[i] - hstep * eye[j])[None, :])[0]
                        fmp = fun((z - hstep * eye[i] + hstep * eye[j])[None, :])[0]
                        fmm = fun((z - hstep * eye[i] - hstep * eye[j])[None, :])[0]
                        Hm[i, j] = (fpp - fpm - fmp + fmm) / (4 * hstep * hstep)
                return Hm, f0
            Hm, f0 = fd_hess(phi_at)
            lam_min = float(np.linalg.eigvalsh(0.5 * (Hm + Hm.T)).min())
            _case(cases, f"phi_hessian_psd_{label}_{k}", lam_min >= -1e-6 * f0,
                  lam_min + 1e-6 * f0)
            Hm2, g0 = fd_hess(lambda Z: phi_at(Z) ** e)
            lam_max = float(np.linalg.eigvalsh(0.5 * (Hm2 + Hm2.T)).max())
            _case(cases, f"phi_power_hessian_nsd_{label}_{k}",
                  lam_max <= 1e-6 * g0, 1e-6 * g0 - lam_max)

    # log-convexity of Phi_inf for Gaussians
    for d in (1, 2):
        g = gaussian(d, center=(0.1,) * d)
        def phi_inf(Z):
            return np.array([pint.phi_log(g, z) for z in Z])
        n = 1000
        A = rng.uniform(-1.0, 1.0, size=(n, d))
        B = rng.uniform(-1.0, 1.0, size=(n, d))
        la, lb, lm = (np.log(phi_inf(P)) for P in (A, B, 0.5 * (A + B)))
        slack = float(np.min(0.5 * (la + lb) - lm))
        _case(cases, f"log_phi_inf_convex_d{d}", slack >= -1e-8, slack + 1e-8)
    return _report("alexandrov", seed, cases)


# ---------------------------------------------------------------------------
# santalo suite: minimizers and the lambda-Santalo inequality


def suite_santalo(seed: int = 0) -> dict:
    cases: List[dict] = []

    even = [("hhat2_d1", hhat(1, 2.0), 2.0, np.zeros(1)),
            ("hhat2_d2", hhat(2, 2.0), 2.0, np.zeros(2)),
            ("box_d2", cube(2, 1.0), 1.0, np.zeros(2)),
            ("fs_gauss_d1", fs_gaussian(1, 2.0), 2.0, np.zeros(1))]
    for label, spec, s, center in even:
        res = santalo.santalo_point(spec, s)
        derr = float(np.linalg.norm(res.z_star - center))
        _case(cases, f"santalo_center_{label}", res.converged and derr <= 1e-6,
              1e-6 - derr if res.converged else -1.0)
        _case(cases, f"santalo_barycenter_{label}",
              res.polar_barycenter_norm <= 1e-4,
              1e-4 - res.polar_barycenter_norm)

    # off-center interval: minimizer at the midpoint
    box02 = fm.FunctionSpec(1, fm.SConcave(1), fm.PolytopeIndicator(((0.0,), (2.0,))))
    res = santalo.santalo_point(box02, 1.0)
    derr = abs(float(res.z_star[0]) - 1.0)
    _case(cases, "santalo_interval_0_2", derr <= 1e-6, 1e-6 - derr)

    # shift equivariance
    base = ball(2, 1.0)
    v = np.array([0.3, -0.2])
    r1 = santalo.santalo_point(base, 1.0, compute_moment=False)
    r2 = santalo.santalo_point(shifted(base, v), 1.0, compute_moment=False)
    derr = float(np.linalg.norm(r2.z_star - (r1.z_star + v)))
    _case(cases, "santalo_shift_equivariance", derr <= 1e-6, 1e-6 - derr)

    # global minimality against random interior centers
    rng = np.random.default_rng(seed)
    spec = fs_gaussian(1, 2.0)
    res = santalo.santalo_point(spec, 2.0, compute_moment=False)
    worst = math.inf
    for _ in range(200):
        z = _interior_center(spec, rng, shrink=0.6)
        worst = min(worst, pint.phi_sphere(spec, 2.0, z).value - res.phi_min)
    _case(cases, "santalo_global_min", worst >= -1e-10, worst + 1e-10)

    # hyperplane construction closed forms
    H = santalo.Hyperplane.of([1.0], 0.5)
    z = santalo.hyperplane_point(cube(1, 1.0), 1.0, H)
    _case(cases, "hyperplane_d1", abs(z[0] - 0.5) <= 1e-12, 1e-12 - abs(z[0] - 0.5))
    H2 = santalo.Hyperplane.of([1.0, 0.0], 0.0)
    z2 = santalo.hyperplane_point(cube(2, 1.0), 1.0, H2)
    _case(cases, "hyperplane_d2_even", float(np.linalg.norm(z2)) <= 1e-9,
          1e-9 - float(np.linalg.norm(z2)))

    # lambda-Santalo inequality across the suite grid; the first offset of
    # each family is its central hyperplane, where hhat attains equality
    off_ball, off_hhat, off_box = (0.5, -0.3), (0.4, -0.2), (-0.3, 0.2)
    fam_list = [("hhat_d1", lambda s: hhat(1, s), (0.0, 0.35, -0.35)),
                ("box_d1", lambda s: cube(1, s), (0.0, 0.5, -0.5)),
                ("hhat_d2", lambda s: hhat(2, s), (0.0, 0.3, -0.3)),
                ("ball_d2", lambda s: ball(2, s), (0.0, 0.4, -0.4)),
                ("fs_gauss_d1", lambda s: fs_gaussian(1, s), (0.0, 0.6, -0.6)),
                ("shifted_ball_d2", lambda s: shifted(ball(2, s, radius=1.3), off_ball),
                 (0.5, 0.9, 0.1)),
                ("shifted_hhat_d2", lambda s: shifted(hhat(2, s), off_hhat),
                 (0.4, 0.7, 0.1)),
                ("shifted_box_d2", lambda s: shifted(cube(2, s), off_box),
                 (-0.3, 0.2, -0.8))]
    for fname, make, offsets in fam_list:
        worst = math.inf
        eq_slack = None
        for s in S_GRID:
            spec = make(s)
            d = spec.dimension
            normal = np.zeros(d)
            normal[0] = 1.0
            for c in offsets:
                rep = santalo.verify_santalo(spec, s, santalo.Hyperplane.of(normal, c))
                rel = rep["slack"] / rep["bound"]
                worst = min(worst, rel + 1e-6)
                if "hhat" in fname and c == offsets[0]:
                    eq = abs(rep["product"] - rep["bound"]) / rep["bound"]
                    eq_slack = min(eq_slack, 1e-6 - eq) if eq_slack is not None else 1e-6 - eq
        _case(cases, f"lambda_santalo_{fname}", worst >= 0.0, worst)
        if eq_slack is not None:
            _case(cases, f"lambda_santalo_equality_{fname}", eq_slack >= 0.0, eq_slack)
    return _report("santalo", seed, cases)


# ---------------------------------------------------------------------------
# onedim suite: level transforms


def suite_onedim(seed: int = 0) -> dict:
    cases: List[dict] = []

    def ind01(t):
        t = np.asarray(t, dtype=float)
        return ((t >= 0) & (t <= 1)).astype(float)

    def hhat_s(s):
        return lambda t: np.sqrt(np.maximum(0.0, 1.0 - np.asarray(t, dtype=float) ** 2)) ** s

    def lin_s(s):
        return lambda t: np.maximum(0.0, 1.0 - np.asarray(t, dtype=float)) ** s

    profiles = [("indicator", ind01, 1.0, 1.0),
                ("hhat_s2", hhat_s(2.0), 2.0, pint.kappa(1, 2.0) / 2.0),
                ("linear_s1", lin_s(1.0), 1.0, 0.5)]
    for label, phi, s, exact in profiles:
        got = santalo.level_transform_integral(phi, s)
        rel = abs(got - exact) / exact
        _case(cases, f"fubini_{label}", rel <= 1e-6, 1e-6 - rel)

    _case(cases, "psi_of_zero_function",
          santalo.s_level_transform(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                                    1.0, 0.0) == 0.0, 1.0)

    pairs = [("self_dual_s2", hhat_s(2.0), hhat_s(2.0), 2.0, True),
             ("ind_lin_s1", ind01, lin_s(1.0), 1.0, False),
             ("ind_lin_s2", ind01, lin_s(2.0), 2.0, False)]
    for label, p1, p2, s, expect_eq in pairs:
        rep = santalo.onedim_duality_check(p1, p2, s, pairs=10_000, seed=seed)
        _case(cases, f"duality_valid_{label}", rep["valid_pair"],
              1e-9 - rep["max_duality_violation"])
        rel = (rep["bound"] - rep["product"]) / rep["bound"]
        _case(cases, f"duality_bound_{label}", rep["product"] <= rep["bound"] * (1 + 1e-6),
              rel + 1e-6)
        _case(cases, f"midpoint_claim_{label}", rep["midpoint_failures"] == 0,
              -float(rep["midpoint_failures"]))
        if expect_eq:
            eq = abs(rep["product"] - rep["bound"]) / rep["bound"]
            _case(cases, f"duality_equality_{label}", eq <= 1e-6, 1e-6 - eq)

    # two-sided bound on shifted self-dual profiles: int f int L_s f
    # against kappa(1,s)^2 / (4 lambda (1-lambda))
    rng = np.random.default_rng(seed)
    for i in range(6):
        s = float(rng.choice([1.0, 2.0]))
        c = float(rng.uniform(-0.6, 0.6))
        spec = shifted(hhat(1, s), (c,))
        sm = integration.split_moments(spec, [1.0], 0.0)
        lam = sm["m_plus"] / (sm["m_plus"] + sm["m_minus"])
        mass, _ = pint.integrate_grid(spec)
        pol = pint.phi_oracle(spec, s, np.zeros(1)).value
        bound = pint.kappa(1, s) ** 2 / (4.0 * lam * (1.0 - lam))
        rel = (bound - mass * pol) / bound
        _case(cases, f"two_sided_shifted_{i}", mass * pol <= bound * (1 + 1e-6),
              rel + 1e-6, s=s, shift=c, lam=float(lam))
    return _report("onedim", seed, cases)


# ---------------------------------------------------------------------------
# approx suite: convergence of the s-approximation duality


def suite_approx(seed: int = 0) -> dict:
    cases: List[dict] = []
    schedule = [4.0, 16.0, 64.0, 256.0]
    rng = np.random.default_rng(seed)

    for label, spec in (("gaussian", gaussian(1)),
                        ("exp_neg_norm", fm.FunctionSpec(1, fm.LogConcave(),
                                                         fm.ExpNegNorm(1.0)))):
        pts = [(float(x),) for x in rng.uniform(-0.85, 0.85, size=10)]
        rows = transforms.convergence_study(spec, pts, schedule)
        by_point: Dict[tuple, list] = {}
        for r in rows:
            if "warning" in r:
                continue
            by_point.setdefault(r["x"], []).append((r["s"], r["gap"]))
        worst_mono = math.inf
        worst_final = math.inf
        for x, entries in by_point.items():
            entries.sort()
            gaps = [g for _, g in entries]
            for g1, g2 in zip(gaps, gaps[1:]):
                worst_mono = min(worst_mono, g1 - g2 + 1e-9)
            worst_final = min(worst_final, 0.01 - gaps[-1])
        _case(cases, f"gap_monotone_{label}", worst_mono >= 0.0, worst_mono)
        _case(cases, f"gap_small_at_256_{label}", worst_final >= 0.0, worst_final)
        if label == "gaussian":
            mahlers = {r["s"]: r["mahler_s"] for r in rows if "mahler_s" in r}
            target = (2.0 * math.pi) ** 1
            rel = abs(mahlers[256.0] - target) / target
            _case(cases, "mahler_gaussian_256", rel <= 0.02, 0.02 - rel)
            inf_prod = next(r["mahler_inf"] for r in rows if "mahler_inf" in r)
            rel_inf = abs(inf_prod - target) / target
            _case(cases, "mahler_inf_gaussian", rel_inf <= 1e-3, 1e-3 - rel_inf)
    return _report("approx", seed, cases)


# ---------------------------------------------------------------------------
# regions suite


def suite_regions(seed: int = 0) -> dict:
    cases: List[dict] = []

    # interval closed-form boundary radius at (s=1, t=2)
    interval = cube(1, 1.0)
    q = regions.make_query(interval, 1.0, 2.0)
    b = regions.region_boundary(q, ray_count=2, tol=1e-7)
    want = math.sqrt(1.0 - 4.0 / math.pi**2)
    err = float(np.max(np.abs(b.radii - want)))
    _case(cases, "interval_radius_closed_form", err <= 1e-4, 1e-4 - err)
    sym = abs(float(b.radii[0] - b.radii[1]))
    _case(cases, "interval_radius_symmetry", sym <= 1e-6, 1e-6 - sym)

    # nonemptiness against t
    fams = [("interval", interval, 1.0), ("hhat2_d1", hhat(1, 2.0), 2.0),
            ("ball_d2", ball(2, 1.0), 1.0)]
    for label, spec, s in fams:
        q_low = regions.make_query(spec, s, 0.5)
        b_low = regions.region_boundary(q_low, ray_count=2)
        _case(cases, f"region_empty_t05_{label}", b_low.empty,
              1.0 if b_low.empty else -1.0)
        q_one = regions.make_query(spec, s, 1.0)
        b_one = regions.region_boundary(q_one, ray_count=2)
        _case(cases, f"region_nonempty_t1_{label}", not b_one.empty,
              1.0 if not b_one.empty else -1.0)

    # t=1 singleton for the self-polar function
    q_h = regions.make_query(hhat(1, 2.0), 2.0, 1.0)
    b_h = regions.region_boundary(q_h, ray_count=2)
    _case(cases, "region_singleton_hhat_t1",
          (not b_h.empty) and float(np.max(b_h.radii)) == 0.0,
          -float(np.max(b_h.radii)))

    # membership monotonicity in t
    q1 = regions.make_query(interval, 1.0, 1.5)
    q2 = regions.make_query(interval, 1.0, 3.0)
    rngm = np.random.default_rng(seed)
    mono_ok = True
    for _ in range(50):
        x = rngm.uniform(-0.95, 0.95, size=1)
        if regions.region_membership(q1, x) and not regions.region_membership(q2, x):
            mono_ok = False
    _case(cases, "region_monotone_in_t", mono_ok, 1.0 if mono_ok else -1.0)

    # convexity of the d=2 box region
    q_box = regions.make_query(cube(2, 1.0), 1.0, 2.0)
    rep = regions.region_properties(q_box, samples=500, seed=seed)
    _case(cases, "region_convexity_box",
          rep["convexity_checked"] > 0 and rep["convexity_failures"] == 0,
          -float(rep["convexity_failures"]))
    _case(cases, "region_strict_convexity_box",
          rep["strict_margin"] is not None and rep["strict_margin"] > 0,
          rep["strict_margin"] or -1.0)

    # Hausdorff convergence of the approximated regions
    rows = regions.region_convergence(gaussian(1), 2.0, [8.0, 32.0, 128.0],
                                      ray_count=2)
    dists = [r["hausdorff"] for r in rows if "hausdorff" in r]
    ok = all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:])) and len(dists) == 3
    _case(cases, "region_hausdorff_nonincreasing", ok,
          min((d1 - d2 for d1, d2 in zip(dists, dists[1:])), default=-1.0),
          distances=dists)

    # shifted region tracks the shift
    g_sh = gaussian(1, center=(0.4,))
    q_sh = regions.make_query(g_sh, regions.INF, 2.0)
    b_sh = regions.region_boundary(q_sh, ray_count=2)
    q_0 = regions.make_query(gaussian(1), regions.INF, 2.0)
    b_0 = regions.region_boundary(q_0, ray_count=2)
    track = max(abs(float(b_sh.center[0]) - 0.4 - float(b_0.center[0])),
                float(np.max(np.abs(b_sh.radii - b_0.radii))))
    _case(cases, "region_shift_tracking", track <= 1e-4, 1e-4 - track)

    # lifted-body region: horizontal consistency and the vertical direction
    h2 = hhat(1, 2.0)
    qh = regions.make_query(h2, 2.0, 1.4)
    agree = True
    for z in (0.0, 0.15, -0.3):
        m1 = regions.region_membership(qh, np.array([z]))
        m2 = regions.sp_region_membership(h2, 2.0, 1.4, np.array([z, 0.0]))
        agree = agree and (m1 == m2)
    _case(cases, "sp_region_horizontal_slice", agree, 1.0 if agree else -1.0)
    v0 = regions.sp_region_value(h2, 2.0, np.zeros(2))
    eq = abs(v0 - pint.kappa(1, 2.0) ** 2) / pint.kappa(1, 2.0) ** 2
    _case(cases, "sp_region_selfpolar_equality", eq <= 1e-8, 1e-8 - eq)
    _case(cases, "sp_region_vertical_continuity",
          regions.sp_region_membership(h2, 2.0, 1.05, np.array([0.0, 0.01])),
          1.0)
    return _report("regions", seed, cases)


# ---------------------------------------------------------------------------
# lifting suite


def suite_lifting(seed: int = 0) -> dict:
    cases: List[dict] = []

    # closed-form lifted supports
    interval = cube(1, 1.0)
    body = lifting.LiftedBody(interval, 1.0)
    got = lifting.lifted_support(body, np.array([1.0, 1.0]) / math.sqrt(2.0))
    _case(cases, "lift_square_diag", abs(got - math.sqrt(2.0)) <= 1e-9,
          1e-9 - abs(got - math.sqrt(2.0)))
    h2 = hhat(2, 2.0)
    bh = lifting.LiftedBody(h2, 2.0)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(64, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    dev = float(np.max(np.abs(bh.support_batch(U) - 1.0)))
    _case(cases, "lift_hhat_unit_ball", dev <= 1e-8, 1e-8 - dev)
    vert = lifting.lifted_support(bh, np.array([0.0, 0.0, 1.0]))
    _case(cases, "lift_vertical_extent", abs(vert - 1.0) <= 1e-12,
          1e-12 - abs(vert - 1.0))
    # d-symmetry
    Uf = U.copy()
    Uf[:, -1] *= -1.0
    sym = float(np.max(np.abs(bh.support_batch(U) - bh.support_batch(Uf))))
    _case(cases, "lift_d_symmetry", sym <= 1e-12, 1e-12 - sym)

    # shift covariance
    base = ball(2, 1.0, center=(0.2, -0.1))
    z = np.array([0.15, 0.1])
    b0 = lifting.LiftedBody(base, 1.0)
    bz = lifting.LiftedBody(base, 1.0, center_shift=tuple(z))
    h_direct = bz.support_batch(U)
    h_shifted = b0.support_batch(U) - U[:, :2] @ z
    cov = float(np.max(np.abs(h_direct - h_shifted)))
    _case(cases, "lift_shift_covariance", cov <= 1e-9, 1e-9 - cov)

    # sublinearity on sampled direction pairs
    V = rng.normal(size=(64, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    hu = bh.support_batch(U)
    hv = bh.support_batch(V)
    hsum = bh.support_batch(U + V)
    sub = float(np.max(hsum - hu - hv))
    _case(cases, "lift_sublinear", sub <= 1e-9, 1e-9 - sub)

    # s-volume identities
    for d in (1, 2):
        for s in (1.0, 2.0):
            vol, _ = lifting.s_volume(lifting.chords_of_ball(d), s)
            k = pint.kappa(d, s)
            rel = abs(vol - k) / k
            _case(cases, f"s_volume_ball_d{d}_s{s}", rel <= 1e-8, 1e-8 - rel)
    vol, _ = lifting.s_volume(lifting.chords_of_box([-1.0], [1.0]), 1.0)
    _case(cases, "s_volume_square", abs(vol - 2.0) <= 1e-10, 1e-10 - abs(vol - 2.0))

    vol_specs = [("hhat1_d1", hhat(1, 1.0), 1.0), ("hhat2_d2", hhat(2, 2.0), 2.0),
                 ("ball_d2", ball(2, 1.0), 1.0), ("box_d2", cube(2, 1.0), 1.0),
                 ("fs_gauss_d1", fs_gaussian(1, 2.0), 2.0)]
    for label, spec, s in vol_specs:
        vol, _ = lifting.s_volume(lifting.chords_of_lifting(spec, s), s)
        mass, _ = pint.integrate_grid(spec)
        rel = abs(vol - mass) / mass
        _case(cases, f"s_volume_lift_{label}", rel <= 1e-4, 1e-4 - rel)

    # polar duality of the lifting
    for label, spec, s in (("hhat2_d1", hhat(1, 2.0), 2.0),
                           ("hhat1_d2", hhat(2, 1.0), 1.0),
                           ("interval", interval, 1.0)):
        rep = lifting.polar_lifting_check(spec, s, samples=4000, seed=seed)
        _case(cases, f"polar_lifting_{label}", rep["disagreements"] == 0,
              -float(rep["disagreements"]), skipped=rep["skipped"])

    # integer lift volumes by Monte Carlo
    mc = integration.MonteCarloConfig(samples=400_000, seed=seed)
    lift_cases = [("ball_d1_s1", ball(1, 1.0), 1, 2.0),
                  ("hhat1_d1_s1", hhat(1, 1.0), 1, math.pi / 2.0),
                  ("ball_d2_s2", ball(2, 2.0), 2, math.pi)]
    for label, spec, s, exact in lift_cases:
        est, se = lifting.integer_lift_volume(spec, s, mc)
        dev = abs(est - exact)
        _case(cases, f"integer_lift_{label}", dev <= 3.0 * se,
              3.0 * se - dev, estimate=est, sigma=se)

    # product identity through the integer lift
    rep = lifting.mahler_lift_check(cube(1, 1.0), 1, [0.3], mc)
    _case(cases, "mahler_lift_identity", rep["within_3_sigma"],
          3.0 * rep["sigma"] - abs(rep["lhs"] - rep["rhs"]),
          lhs=rep["lhs"], rhs=rep["rhs"])
    return _report("lifting", seed, cases)


_SUITES = {
    "lifting": suite_lifting,
    "transforms": suite_transforms,
    "alexandrov": suite_alexandrov,
    "santalo": suite_santalo,
    "onedim": suite_onedim,
    "approx": suite_approx,
    "regions": suite_regions,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    return _SUITES[name](seed)
