import math

import numpy as np
import pytest

from polarlab import funcmodel as fm
from polarlab import integration
from polarlab.errors import InputError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


class TestConfigs:
    def test_resolution_floor(self):
        with pytest.raises(InputError):
            integration.IntegrationConfig(resolution=4)

    def test_monte_carlo_floor(self):
        with pytest.raises(InputError):
            integration.MonteCarloConfig(samples=10)

    def test_axis_cells_defaults(self):
        cfg = integration.IntegrationConfig()
        assert cfg.axis_cells(1) > cfg.axis_cells(3)


class TestMemoKeys:
    """integrate_grid and moment_grid keep their results on the spec, keyed
    by the whole config: no call returns a value computed at another
    resolution."""

    @staticmethod
    def grid():
        x = np.linspace(-1.0, 1.0, 9)
        X, Y = np.meshgrid(x, x, indexing="ij")
        vals = np.maximum(0.0, 1.0 - (X - 0.3) ** 2 - 2.0 * Y**2)
        return fm.FunctionSpec(2, fm.SConcave(1.0), fm.GridProfile((-1.0, -1.0), 0.25, vals))

    def test_resolution_is_part_of_the_key(self):
        parsed = fm.spec_from_json(fm.spec_to_json(self.grid()))
        got = {}
        for n in (32, 64):
            cfg = integration.IntegrationConfig(resolution=n)
            got[n] = (integration.integrate_grid(parsed, cfg)[0],
                      fm.barycenter(parsed, cfg).vector)
            assert got[n][0] == integration.integrate_grid(self.grid(), cfg)[0]
            np.testing.assert_array_equal(got[n][1], fm.barycenter(self.grid(), cfg).vector)
        assert got[32][0] != got[64][0]
        assert not np.array_equal(got[32][1], got[64][1])


class TestBoxRules:
    def test_midpoint_polynomial(self):
        val = integration.midpoint_box(
            lambda X: X[:, 0] ** 2, np.array([0.0]), np.array([1.0]), 200)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_richardson_improves(self):
        f = lambda X: np.exp(-np.sum(X * X, axis=1))
        exact = math.sqrt(math.pi) * math.erf(1.0)
        val, err = integration.richardson_box(
            f, np.array([-1.0]), np.array([1.0]), 64)
        assert val == pytest.approx(exact, abs=1e-8)
        # the reported estimate is conservative relative to the true error
        assert abs(val - exact) < err < 1e-4


class TestGridIntegrals:
    def test_ball_indicator_area(self):
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.2, 0.1), 1.5))
        val, _ = integration.integrate_grid(spec)
        assert val == pytest.approx(math.pi * 1.5**2, rel=1e-10)

    def test_polytope_volume(self):
        tri = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))))
        val, _ = integration.integrate_grid(tri)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_mass(self):
        g = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.0, 0.0), 1.0))
        val, _ = integration.integrate_grid(g)
        assert val == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_moment_of_shifted_ball(self):
        spec = fm.FunctionSpec(1, fm.SConcave(1.0), fm.BallIndicator((0.4,), 1.0))
        mass, mom, _ = integration.moment_grid(spec)
        assert mom[0] / mass == pytest.approx(0.4, abs=1e-9)


class TestSplitMoments:
    def test_interval_split(self):
        spec = fm.FunctionSpec(1, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((-1.0,), (1.0,))))
        sm = integration.split_moments(spec, [1.0], 0.5)
        assert sm["m_plus"] == pytest.approx(0.5, abs=1e-6)
        assert sm["m_minus"] == pytest.approx(1.5, abs=1e-6)

    def test_split_sums_to_mass(self):
        spec = hhat_spec(2, 2.0)
        sm = integration.split_moments(spec, [1.0, 0.0], 0.2)
        mass, _ = integration.integrate_grid(spec)
        assert sm["m_plus"] + sm["m_minus"] == pytest.approx(mass, rel=1e-6)

    def test_barycenter_decomposition(self):
        spec = hhat_spec(1, 1.0)
        sm = integration.split_moments(spec, [1.0], 0.0)
        b = (sm["m_plus"] * np.asarray(sm["b_plus"])
             + sm["m_minus"] * np.asarray(sm["b_minus"]))
        assert b[0] == pytest.approx(0.0, abs=1e-6)


def unit_disc():
    return fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.0, 0.0), 1.0))


def cap(c):
    """(area, <moment, a>) of the cap {x in the unit disc : <a, x> >= c}."""
    return math.acos(c) - c * math.sqrt(1.0 - c * c), 2.0 / 3.0 * (1.0 - c * c) ** 1.5


def count_points(monkeypatch):
    """The number of points of each later evaluate_batch call, as a list."""
    points = []
    evaluate = fm.evaluate_batch

    def counted(spec, X):
        points.append(len(X))
        return evaluate(spec, X)

    monkeypatch.setattr(fm, "evaluate_batch", counted)
    return points


class TestMidpointValues:
    """split_moments reads f at the midpoints from the spec, keyed by the
    whole config; only the cells straddling H are evaluated per call."""

    def test_second_split_evaluates_only_straddling_cells(self, monkeypatch):
        spec = hhat_spec(2, 2.0)
        integration.split_moments(spec, [1.0, 0.0], 0.2)
        a, c = np.array([0.6, 0.8]), 0.1
        lo, hi = fm.support_box(spec)
        n = integration.IntegrationConfig().axis_cells(2)
        X = np.concatenate([X for X, _ in integration._midpoint_chunks(lo, hi, n)])
        half_diag = 0.5 * float(np.linalg.norm((np.asarray(hi) - np.asarray(lo)) / n))
        straddling = int(np.sum(np.abs(X @ a - c) <= half_diag))
        points = count_points(monkeypatch)
        integration.split_moments(spec, a, c)
        assert 0 < sum(points) <= 4 * straddling

    def test_moment_grid_reads_the_stored_coarse_grid(self, monkeypatch):
        spec = TestMemoKeys.grid()
        cfg = integration.IntegrationConfig(resolution=32)
        integration.split_moments(spec, [1.0, 0.0], 0.2, cfg)
        points = count_points(monkeypatch)
        integration.moment_grid(spec, cfg)
        assert sum(points) == 64**2

    def test_config_is_part_of_the_key(self):
        parsed = fm.spec_from_json(fm.spec_to_json(TestMemoKeys.grid()))
        coarse = integration.split_moments(parsed, [0.6, 0.8], 0.1,
                                           integration.IntegrationConfig(resolution=64))
        got = integration.split_moments(parsed, [0.6, 0.8], 0.1)
        want = integration.split_moments(TestMemoKeys.grid(), [0.6, 0.8], 0.1)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
        assert got["m_plus"] != coarse["m_plus"]

    def test_stored_values_are_read_only(self):
        spec = hhat_spec(2, 2.0)
        cfg = integration.IntegrationConfig(resolution=32)
        integration.split_moments(spec, [1.0, 0.0], 0.0, cfg)
        V = integration._midpoint_values(spec, cfg)
        assert V.shape == (32, 32) and not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0] = 1.0

    @pytest.mark.parametrize("c", [0.0, 0.3, -0.55])
    def test_cap_closed_forms(self, c):
        a = np.array([0.6, 0.8])
        sm = integration.split_moments(unit_disc(), a, c)
        area, moment = cap(c)
        assert abs(sm["m_plus"] - area) <= 1e-4
        assert abs(sm["b_plus"] @ a - moment) <= 1e-4

    @pytest.mark.xfail(strict=True, reason=(
        "O(h) straddle rule: for a normal along an axis, the sub-cell centres "
        "of a whole straddling row fall on one side of H (m_plus 1.5e-3 off)"))
    def test_axis_aligned_cap(self):
        sm = integration.split_moments(unit_disc(), [1.0, 0.0], 0.3)
        assert abs(sm["m_plus"] - cap(0.3)[0]) <= 1e-4


def polytope(V):
    V = np.asarray(V, dtype=float)
    return fm.FunctionSpec(V.shape[1], fm.SConcave(1.0),
                           fm.PolytopeIndicator(tuple(map(tuple, V))))


def grid_moments(spec, n):
    """(mass, first moment) of spec by the midpoint rule, n cells a side."""
    lo, hi = fm.support_box(spec)
    mass, mom = 0.0, np.zeros(spec.dimension)
    for X, cell in integration._midpoint_chunks(lo, hi, n):
        v = fm.evaluate_batch(spec, X)
        mass += float(np.sum(v)) * cell
        mom += (v @ X) * cell
    return mass, mom


class TestPolytopeMoments:
    @pytest.mark.parametrize("d, n, tol", [(1, 8192, 1e-12), (2, 1024, 2e-5), (3, 192, 2e-4)])
    def test_against_the_moment_grid(self, d, n, tol):
        V = np.random.default_rng(d).normal(size=(d + 4, d))
        off = np.array([0.4, -0.7, 0.25])[:d]
        plain = polytope(V)
        moved = fm.FunctionSpec(d, fm.SConcave(1.0), fm.Shifted(plain, tuple(off)))
        for spec in (plain, moved):
            mass, mom, err = integration.moment_grid(spec)
            gmass, gmom = grid_moments(spec, n)
            assert mass == pytest.approx(gmass, rel=tol)
            np.testing.assert_allclose(mom / mass, gmom / gmass, rtol=0.0,
                                       atol=tol * np.abs(V).max())
            assert err <= 1e-14 * mass
        m0, mom0, _ = integration.moment_grid(plain)
        m1, mom1, _ = integration.moment_grid(moved)
        assert m1 == m0
        np.testing.assert_allclose(mom1 / m1, mom0 / m0 + off, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_centroid_and_box_centre(self, d):
        rng = np.random.default_rng(10 + d)
        S = rng.uniform(-1.0, 1.0, size=(d + 1, d))
        vol = abs(np.linalg.det(S[1:] - S[0])) / math.factorial(d)
        assert fm.barycenter(polytope(S)).vector == pytest.approx(S.mean(axis=0), abs=1e-14)
        assert integration.moment_grid(polytope(S))[0] == pytest.approx(vol, rel=1e-13)
        assert integration.integrate_grid(polytope(S))[0] == pytest.approx(vol, rel=1e-13)
        corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij"),
                           axis=-1).reshape(-1, d)
        centre = np.array([0.3, -0.2, 0.7])[:d]
        half = np.array([1.0, 0.6, 1.4])[:d]
        box = polytope(centre + corners * half)
        m, mom, _ = integration.moment_grid(box)
        assert m == pytest.approx(np.prod(2.0 * half), rel=1e-14)
        np.testing.assert_allclose(mom / m, centre, rtol=0.0, atol=1e-14)
