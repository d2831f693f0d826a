import dataclasses
import math

import numpy as np
import pytest

from polarlab import funcmodel as fm
from polarlab import polar_integrals as pint
from polarlab import integration, lifting, santalo, suites
from polarlab.errors import InputError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def interval_spec(lo=-1.0, hi=1.0):
    return fm.FunctionSpec(1, fm.SConcave(1.0),
                           fm.PolytopeIndicator(((lo,), (hi,))))


class TestHyperplane:
    def test_normalization(self):
        H = santalo.Hyperplane.of([3.0, 4.0], 10.0)
        assert np.linalg.norm(H.a) == pytest.approx(1.0)
        assert H.offset == pytest.approx(2.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            santalo.Hyperplane.of([0.0, 0.0], 1.0)


class TestSantaloPoint:
    def test_even_function_center(self):
        res = santalo.santalo_point(hhat_spec(1, 2.0), 2.0)
        assert abs(res.z_star[0]) <= 1e-9
        assert res.converged

    def test_interval_midpoint(self):
        res = santalo.santalo_point(interval_spec(0.0, 2.0), 1.0)
        assert res.z_star[0] == pytest.approx(1.0, abs=1e-8)

    def test_polar_barycenter_vanishes(self):
        res = santalo.santalo_point(hhat_spec(2, 1.0), 1.0)
        assert res.polar_barycenter_norm <= 1e-4

    def test_compute_moment_is_part_of_the_key(self):
        # the polar moment and the gradient diagnostic are kept apart
        def triangle():
            return fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
                ((0.0, 0.0), (2.0, 0.0), (0.0, 1.0))))

        spec = fm.spec_from_json(fm.spec_to_json(triangle()))
        norms = {}
        for flag in (True, False):
            res = santalo.santalo_point(spec, 1.0, compute_moment=flag)
            fresh = santalo.santalo_point(triangle(), 1.0, compute_moment=flag)
            assert res.polar_barycenter_norm == fresh.polar_barycenter_norm
            np.testing.assert_array_equal(res.z_star, fresh.z_star)
            norms[flag] = res.polar_barycenter_norm
        assert norms[True] != norms[False]

    def test_log_concave_gaussian(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.7,), 1.0))
        res = santalo.santalo_point(g, math.inf)
        assert res.z_star[0] == pytest.approx(0.7, abs=1e-6)

    def test_log_concave_gaussian_d3(self):
        g = fm.FunctionSpec(3, fm.LogConcave(), fm.Gaussian((0.2, -0.1, 0.3), 0.9))
        res = santalo.santalo_point(g, math.inf)
        assert res.converged
        np.testing.assert_allclose(res.z_star, [0.2, -0.1, 0.3], atol=1e-6)

    def test_shifted_grid_moves_with_the_offset(self):
        x = np.linspace(-1.0, 1.0, 9)
        r2 = sum(m * m for m in np.meshgrid(x, x, indexing="ij"))
        inner = fm.FunctionSpec(2, fm.SConcave(2.0), fm.GridProfile(
            (-1.0, -1.0), 0.25, np.maximum(0.0, 1.0 - r2)))
        off = np.array([0.5, -0.25])
        shifted = fm.FunctionSpec(2, fm.SConcave(2.0), fm.Shifted(inner, tuple(off)))
        res = santalo.santalo_point(shifted, 2.0)
        assert res.converged
        np.testing.assert_allclose(
            res.z_star, santalo.santalo_point(inner, 2.0).z_star + off, atol=1e-9)


class TestHyperplaneConstruction:
    def test_interval_offset(self):
        H = santalo.Hyperplane.of([1.0], 0.25)
        z = santalo.hyperplane_point(interval_spec(), 1.0, H)
        assert z[0] == pytest.approx(0.25)

    def test_offset_outside_support_rejected(self):
        H = santalo.Hyperplane.of([1.0], 1.5)
        with pytest.raises(InputError):
            santalo.hyperplane_point(interval_spec(), 1.0, H)

    def test_verify_interval_quarter(self):
        rep = santalo.verify_santalo(interval_spec(), 1.0,
                                     santalo.Hyperplane.of([1.0], 0.5))
        assert rep["lambda"] == pytest.approx(0.25, abs=1e-6)
        assert rep["product"] == pytest.approx(8.0 / 3.0, rel=1e-6)
        assert rep["pass"]

    def test_equality_for_self_polar_at_half(self):
        rep = santalo.verify_santalo(hhat_spec(1, 2.0), 2.0,
                                     santalo.Hyperplane.of([1.0], 0.0))
        assert rep["lambda"] == pytest.approx(0.5, abs=1e-9)
        assert rep["product"] == pytest.approx(rep["bound"], rel=1e-7)


def shifted(spec, offset):
    return fm.FunctionSpec(spec.dimension, spec.concavity_class,
                           fm.Shifted(spec, tuple(offset)))


def shifted_ball(s=1.0):
    ball = fm.FunctionSpec(2, fm.SConcave(s), fm.BallIndicator((0.0, 0.0), 1.3))
    return shifted(ball, (0.5, -0.3))


class TestOffOrigin:
    def test_centre_on_the_barycentre_line(self):
        spec = shifted_ball()
        H = santalo.Hyperplane.of([0.6, 0.8], 0.2)
        z = santalo.hyperplane_point(spec, 1.0, H)
        sm = integration.split_moments(spec, H.a, H.offset)
        p_plus = sm["b_plus"] / sm["m_plus"]
        p_minus = sm["b_minus"] / sm["m_minus"]
        assert H.a @ z == pytest.approx(H.offset, abs=1e-12)
        u, v = p_plus - p_minus, z - p_minus
        assert abs(u[0] * v[1] - u[1] * v[0]) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_shift_equivariance(self):
        ball = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.0, 0.0), 1.3))
        off = np.array([0.5, -0.3])
        for normal, c in (([1.0, 0.0], 0.4), ([0.6, -0.8], -0.3), ([1.0, 1.0], 0.2)):
            H = santalo.Hyperplane.of(normal, c)
            H_moved = santalo.Hyperplane(H.normal, H.offset + float(H.a @ off))
            z = santalo.hyperplane_point(ball, 1.0, H)
            z_moved = santalo.hyperplane_point(shifted(ball, off), 1.0, H_moved)
            np.testing.assert_allclose(z_moved, z + off, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_bound_holds_off_origin(self, s):
        spec = shifted_ball(s)
        rng = np.random.default_rng(int(4 * s))
        for _ in range(6):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            H = santalo.Hyperplane.of(a, a @ np.array([0.5, -0.3]) + rng.uniform(-0.4, 0.4))
            assert santalo.verify_santalo(spec, s, H)["pass"]

    def test_shifted_hhat_equality_at_its_centre(self):
        off = np.array([0.4, -0.2])
        spec = shifted(hhat_spec(2, 2.0), off)
        rep = santalo.verify_santalo(spec, 2.0, santalo.Hyperplane.of([1.0, 0.0], off[0]))
        assert rep["product"] == pytest.approx(rep["bound"], rel=1e-12)

    def test_split_moments_computed_once(self, monkeypatch):
        spec = shifted_ball()
        H = santalo.Hyperplane.of([0.6, 0.8], 0.2)
        calls = []
        split = integration.split_moments

        def counted(*args, **kwargs):
            calls.append(1)
            return split(*args, **kwargs)

        sm = split(spec, H.a, H.offset)
        lam_want = sm["m_plus"] / (sm["m_plus"] + sm["m_minus"])
        z_want = santalo.hyperplane_point(spec, 1.0, H)
        monkeypatch.setattr(integration, "split_moments", counted)
        rep = santalo.verify_santalo(spec, 1.0, H)
        assert len(calls) == 1
        assert rep["lambda"] == lam_want
        assert rep["z"] == tuple(z_want)


class TestSuiteConverged:
    def test_unconverged_centre_fails(self, monkeypatch):
        real = santalo.santalo_point

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(santalo, "santalo_point", unconverged)
        cases = suites.suite_santalo(0)["cases"]
        centre = [c for c in cases if c["name"].startswith("santalo_center_")]
        assert len(centre) == 4
        assert not any(c["pass"] for c in centre)
        assert all(c["slack"] < 0.0 for c in centre)


class TestIndicatorsBuildNoLiftedSupport:
    # Phi and its gradient are closed form for polytope and ball indicators,
    # so their Santalo point needs no support of the lifted body
    BOX = fm.FunctionSpec(3, fm.SConcave(1.0), fm.PolytopeIndicator(tuple(
        (a, b, c) for a in (-0.7, 1.3) for b in (-0.6, 1.0) for c in (-0.9, 1.1))))
    BALL = fm.FunctionSpec(2, fm.SConcave(1.0), fm.Shifted(
        fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.1, -0.2), 0.9)), (0.3, 0.4)))
    TRIANGLE = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
        ((-0.8, -0.5), (1.2, -0.3), (0.1, 0.9))))

    @pytest.mark.parametrize("spec, want", [
        (BOX, (0.3, 0.2, 0.1)),
        (BALL, (0.4, 0.2)),
        (TRIANGLE, (0.5 / 3.0, 0.1 / 3.0)),  # a simplex's Santalo point is its centroid
    ], ids=["box_d3", "shifted_ball_d2", "triangle_d2"])
    def test_santalo_point(self, monkeypatch, spec, want):
        def boom(*args, **kwargs):
            raise AssertionError("an indicator needs no lifted support")

        monkeypatch.setattr(lifting.LiftedBody, "support_batch", boom)
        res = santalo.santalo_point(spec, 1.0, compute_moment=False)
        assert res.converged
        np.testing.assert_allclose(res.z_star, want, rtol=0.0, atol=1e-7)


class TestMinimizerResolution:
    def test_converges_where_the_decrease_is_below_the_value_resolution(self):
        # near its minimizer Phi of this polytope falls by less than one ulp
        # per step while |grad Phi| / Phi is still above the 1e-9 stop, so a
        # line search on the value alone stalls for all 500 iterations
        V = ((0.0, 0.0, 0.0), (1.2, 0.1, 0.0), (0.2, 1.1, 0.1), (0.1, 0.3, 1.0),
             (0.9, 0.8, 0.7))
        spec = fm.FunctionSpec(3, fm.SConcave(1.0), fm.PolytopeIndicator(V))
        res = santalo.santalo_point(spec, 1.0, compute_moment=False)
        assert res.converged and res.iterations < 100
        g = pint.phi_gradient(spec, 1.0, res.z_star, with_moment=False)
        assert np.linalg.norm(g.gradient) <= 1e-9 * g.value


class TestLevelTransform:
    def test_fubini_indicator(self):
        phi = lambda t: ((np.asarray(t) >= 0) & (np.asarray(t) <= 1)).astype(float)
        assert santalo.level_transform_integral(phi, 1.0) == pytest.approx(
            1.0, rel=1e-7)

    def test_zero_level(self):
        phi = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert santalo.s_level_transform(phi, 1.0, 0.0) == 0.0

    def test_onedim_self_dual_equality(self):
        phi = lambda t: np.sqrt(np.maximum(0.0, 1.0 - np.asarray(t) ** 2)) ** 2
        rep = santalo.onedim_duality_check(phi, phi, 2.0, pairs=500, seed=0)
        assert rep["valid_pair"]
        assert rep["midpoint_failures"] == 0
        assert rep["product"] == pytest.approx(rep["bound"], rel=1e-6)
        assert rep["bound"] == pytest.approx((pint.kappa(1, 2.0) / 2.0) ** 2)

    def test_onedim_strict_pair(self):
        ind = lambda t: ((np.asarray(t) >= 0) & (np.asarray(t) <= 1)).astype(float)
        lin = lambda t: np.maximum(0.0, 1.0 - np.asarray(t, dtype=float))
        rep = santalo.onedim_duality_check(ind, lin, 1.0, pairs=500, seed=1)
        assert rep["valid_pair"]
        assert rep["product"] < rep["bound"]
