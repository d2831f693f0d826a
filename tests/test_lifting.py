import math

import numpy as np
import pytest
from scipy import optimize

from polarlab import funcmodel as fm
from polarlab import integration, lifting
from polarlab import polar_integrals as pint


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def grid2_spec():
    """(1 - |x|^2)_+ on a 9 x 9 grid over [-1, 1]^2, s = 2."""
    x = np.linspace(-1.0, 1.0, 9)
    r2 = sum(m * m for m in np.meshgrid(x, x, indexing="ij"))
    return fm.FunctionSpec(2, fm.SConcave(2.0),
                           fm.GridProfile((-1.0, -1.0), 0.25, np.maximum(0.0, 1.0 - r2)))


def dense_support_sample(spec, n=401):
    """Points of a fine grid over [-1, 1]^2 with f > 0, and f there."""
    g = np.linspace(-1.0, 1.0, n)
    X = np.stack([m.ravel() for m in np.meshgrid(g, g, indexing="ij")], axis=1)
    f = fm.evaluate_batch(spec, X)
    return X[f > 0], f[f > 0]


def interval_spec():
    return fm.FunctionSpec(1, fm.SConcave(1.0),
                           fm.PolytopeIndicator(((-1.0,), (1.0,))))


class TestLiftedSupport:
    def test_square_lift_is_cube(self):
        body = lifting.LiftedBody(interval_spec(), 1.0)
        assert lifting.lifted_support(body, np.array([1.0, 0.0])) == pytest.approx(1.0)
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert lifting.lifted_support(body, u) == pytest.approx(math.sqrt(2.0))

    def test_hhat_lift_is_unit_ball(self):
        body = lifting.LiftedBody(hhat_spec(1, 2.0), 2.0)
        rng = np.random.default_rng(0)
        U = rng.normal(size=(32, 2))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        np.testing.assert_allclose(body.support_batch(U), 1.0, atol=1e-9)

    def test_vertical_symmetry(self):
        body = lifting.LiftedBody(hhat_spec(2, 1.0), 1.0)
        u = np.array([0.3, -0.2, 0.8])
        u /= np.linalg.norm(u)
        flipped = u.copy()
        flipped[-1] *= -1.0
        assert lifting.lifted_support(body, u) == pytest.approx(
            lifting.lifted_support(body, flipped), abs=1e-12)

    def test_grid_d2_matches_dense_sup(self):
        # sup over supp f of <x, u'> + f(x)^(1/2) |u_3| by brute force; the
        # sample misses the boundary of supp f by less than 0.01
        spec = grid2_spec()
        th = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        U = np.stack([np.cos(th), np.sin(th), np.full(32, 0.2)], axis=1)
        X, f = dense_support_sample(spec)
        dense = (U[:, :2] @ X.T + U[:, 2:] * np.sqrt(f)).max(axis=1)
        gap = lifting.LiftedBody(spec, 2.0).support_batch(U) - dense
        assert gap.min() >= -1e-12
        assert gap.max() <= 0.01

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_hhat_lift_is_unit_ball_to_rounding(self, d, s):
        rng = np.random.default_rng(d)
        U = rng.normal(size=(2000, d + 1))
        # near the equator (u_{d+1} -> 0) and near the poles
        U[:20, d] = np.logspace(-12, -2, 20)
        U[20:40, :d] = 1e-6 * rng.normal(size=(20, d))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        h = lifting.LiftedBody(hhat_spec(d, s), s).support_batch(U)
        np.testing.assert_allclose(h, 1.0, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("e", [5.0, 40.0])
    def test_concave_then_convex_objective(self, e, brute_min):
        # p = (1 - rho^2)^(e/(2s)) is concave, then convex: as y = a/v grows
        # past y_tie, the maximum of a rho + v p(rho) jumps from an interior
        # point to rho = 1, and a finite sample of p misplaces the jump
        s = 0.5

        def p(r):
            return np.maximum(0.0, 1.0 - r * r) ** (e / (2.0 * s))

        def best(a, v, lo, hi):
            return -brute_min(lambda r: -(a * r + v * p(r)), lo, hi)

        y_tie = optimize.brentq(lambda y: best(y, 1.0, 0.0, 0.5) - y, 0.5, 2.0,
                                xtol=1e-15)
        y = np.concatenate([np.tan(np.linspace(0.0, 0.5 * math.pi, 301)),
                            y_tie * (1.0 + np.linspace(-2e-7, 2e-7, 401))])
        U = np.stack([y, np.ones_like(y)], axis=1)
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        spec = fm.FunctionSpec(1, fm.SConcave(e), fm.HhatPower(e))
        h = lifting.LiftedBody(spec, s).support_batch(U)
        for (a, v), got in zip(U, h):
            assert got >= max(best(a, v, 0.0, 0.5), best(a, v, 0.5, 1.0)) - 1e-12

    def test_nonunit_direction_rejected(self):
        from polarlab.errors import InputError
        body = lifting.LiftedBody(interval_spec(), 1.0)
        with pytest.raises(InputError):
            lifting.lifted_support(body, np.array([2.0, 0.0]))


class TestSVolume:
    def test_ball_chords_give_kappa(self):
        val, _ = lifting.s_volume(lifting.chords_of_ball(2), 2.0)
        assert val == pytest.approx(pint.kappa(2, 2.0), rel=1e-8)

    def test_box_chords(self):
        val, _ = lifting.s_volume(lifting.chords_of_box([-1.0, -1.0], [1.0, 1.0]), 1.0)
        assert val == pytest.approx(4.0, rel=1e-9)

    def test_lifting_chords_recover_mass(self):
        spec = hhat_spec(1, 2.0)
        val, _ = lifting.s_volume(lifting.chords_of_lifting(spec, 2.0), 2.0)
        mass, _ = pint.integrate_grid(spec)
        assert val == pytest.approx(mass, rel=1e-6)


class TestChecks:
    def test_polar_lifting_duality(self):
        rep = lifting.polar_lifting_check(hhat_spec(1, 2.0), 2.0,
                                          samples=1000, seed=3)
        assert rep["disagreements"] == 0

    def test_integer_lift_volume_interval(self):
        mc = integration.MonteCarloConfig(samples=200_000, seed=0)
        est, se = lifting.integer_lift_volume(interval_spec(), 1, mc)
        assert abs(est - 2.0) <= 3.0 * se

    def test_mahler_lift_identity(self):
        mc = integration.MonteCarloConfig(samples=200_000, seed=1)
        rep = lifting.mahler_lift_check(interval_spec(), 1, [0.2], mc)
        assert rep["within_3_sigma"]
