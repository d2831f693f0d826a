import dataclasses
import math

import numpy as np
import pytest
from click.testing import CliRunner

from polarlab import cli, santalo, transforms
from polarlab import funcmodel as fm
from polarlab import polar_integrals as pint
from polarlab import regions
from polarlab.errors import InputError, NumericError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def interval_spec():
    return fm.FunctionSpec(1, fm.SConcave(1.0),
                           fm.PolytopeIndicator(((-1.0,), (1.0,))))


class TestMembership:
    def test_center_member_when_nonempty(self):
        q = regions.make_query(interval_spec(), 1.0, 2.0)
        assert regions.region_membership(q, np.zeros(1))

    def test_outside_support_nonmember(self):
        q = regions.make_query(interval_spec(), 1.0, 5.0)
        assert not regions.region_membership(q, np.array([1.2]))

    def test_negative_t_rejected(self):
        with pytest.raises(InputError):
            regions.make_query(interval_spec(), 1.0, -1.0)


class TestBoundary:
    def test_interval_closed_form_radius(self):
        q = regions.make_query(interval_spec(), 1.0, 2.0)
        b = regions.region_boundary(q, ray_count=2)
        want = math.sqrt(1.0 - 4.0 / math.pi**2)
        np.testing.assert_allclose(b.radii, want, atol=1e-5)

    def test_subcritical_t_empty(self):
        q = regions.make_query(interval_spec(), 1.0, 0.5)
        assert regions.region_boundary(q, ray_count=2).empty

    def test_self_polar_singleton_at_one(self):
        q = regions.make_query(hhat_spec(1, 2.0), 2.0, 1.0)
        b = regions.region_boundary(q, ray_count=2)
        assert not b.empty
        assert float(np.max(b.radii)) == 0.0

    def test_radii_grow_with_t(self):
        q1 = regions.make_query(interval_spec(), 1.0, 1.5)
        q2 = regions.make_query(interval_spec(), 1.0, 3.0)
        r1 = regions.region_boundary(q1, ray_count=2).radii
        r2 = regions.region_boundary(q2, ray_count=2).radii
        assert np.all(r2 >= r1)

    def test_gaussian_infinity_region(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        q = regions.make_query(g, regions.INF, 2.0)
        b = regions.region_boundary(q, ray_count=2)
        np.testing.assert_allclose(b.radii, math.sqrt(2.0 * math.log(2.0)),
                                   atol=1e-4)


class TestUnconvergedCentre:
    @pytest.fixture
    def unconverged(self, monkeypatch):
        real = santalo.santalo_point

        def fake(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(santalo, "santalo_point", fake)

    def test_boundary_and_properties_raise(self, unconverged):
        q = regions.make_query(interval_spec(), 1.0, 2.0)
        with pytest.raises(NumericError):
            regions.region_boundary(q, ray_count=2)
        with pytest.raises(NumericError):
            regions.region_properties(q, samples=10)

    def test_cli_exit_code(self, unconverged, tmp_path):
        path = tmp_path / "interval.json"
        path.write_text(fm.spec_to_json(interval_spec()))
        r = CliRunner().invoke(cli.main, ["region", "--spec", str(path), "--s", "1",
                                          "--t", "2"])
        assert r.exit_code == 1


class TestProperties:
    def test_convexity_sampling(self):
        q = regions.make_query(interval_spec(), 1.0, 2.0)
        rep = regions.region_properties(q, samples=100, seed=0)
        assert rep["nonempty"]
        assert rep["convexity_failures"] == 0

    def test_hausdorff_distance_symmetry(self):
        P = np.array([[0.0], [1.0]])
        Q = np.array([[0.5]])
        assert regions.hausdorff_distance(P, Q) == pytest.approx(0.5)
        assert regions.hausdorff_distance(Q, P) == pytest.approx(0.5)

    def test_convergence_requires_log_concave(self):
        with pytest.raises(InputError):
            regions.region_convergence(interval_spec(), 2.0, [8.0])


class TestLiftedRegion:
    def test_horizontal_slice_agreement(self):
        spec = hhat_spec(1, 2.0)
        q = regions.make_query(spec, 2.0, 1.4)
        for z in (0.0, 0.2, -0.35):
            want = regions.region_membership(q, np.array([z]))
            got = regions.sp_region_membership(spec, 2.0, 1.4, np.array([z, 0.0]))
            assert got == want

    def test_self_polar_value_at_origin(self):
        val = regions.sp_region_value(hhat_spec(1, 2.0), 2.0, np.zeros(2))
        assert val == pytest.approx(pint.kappa(1, 2.0) ** 2, rel=1e-8)

    def test_bad_vector_length(self):
        with pytest.raises(InputError):
            regions.sp_region_value(hhat_spec(1, 2.0), 2.0, np.zeros(3))

    def test_polytope_slice_is_exact(self):
        # on w = (z, 0) the lifted functional of a polytope indicator is
        # int f * Phi(z), which phi_sphere takes in closed form
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))))
        base, _ = pint.integrate_grid(spec)
        for z in ([0.0, 0.0], [0.8, -0.7], [-0.3, 0.5]):
            got = regions.sp_region_value(spec, 1.0, np.array(z + [0.0]))
            want = base * pint.phi_sphere(spec, 1.0, np.array(z)).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_ball_slice_is_exact(self):
        # on w = (z, 0) the lifted functional of a ball indicator, shifted or
        # not, is int f * Phi(z), which phi_sphere takes in closed form
        ball = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.2, -0.1), 1.3))
        shifted = fm.FunctionSpec(2, fm.SConcave(1.0), fm.Shifted(ball, (0.5, -0.3)))
        for spec in (ball, shifted):
            base, _ = pint.integrate_grid(spec)
            c = spec.support.center
            for dz in ([0.0, 0.0], [0.8, -0.7], [-0.3, 0.5]):
                z = c + np.array(dz)
                got = regions.sp_region_value(spec, 1.0, np.append(z, 0.0))
                want = base * pint.phi_sphere(spec, 1.0, z).value
                assert got == pytest.approx(want, rel=1e-12)
                q = regions.make_query(spec, 1.0, 1.2)
                assert regions.sp_region_membership(spec, 1.0, 1.2, np.append(z, 0.0)) \
                    == regions.region_membership(q, z)

    @pytest.mark.parametrize("name", ["hhat_d2", "s_approx_gaussian_d2", "grid_9x9"])
    def test_non_indicator_slice_is_phi_sphere(self, name):
        # off the indicators the slice w = (z, 0) takes the sphere rule,
        # and reads the same Phi(z) as phi_sphere
        x = np.linspace(-1.0, 1.0, 9)
        grid = np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2)
        gauss = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.1, -0.2), 0.8))
        spec = {"hhat_d2": hhat_spec(2, 2.0),
                "s_approx_gaussian_d2": transforms.s_approx(gauss, 2.0),
                "grid_9x9": fm.FunctionSpec(2, fm.SConcave(2.0),
                                            fm.GridProfile((-1.0, -1.0), 0.25, grid))}[name]
        base, _ = pint.integrate_grid(spec)
        for z in ([0.0, 0.0], [0.3, -0.2], [-0.25, 0.4]):
            got = regions.sp_region_value(spec, 2.0, np.array(z + [0.0]))
            res = pint.phi_sphere(spec, 2.0, np.array(z))
            assert res.method == "sphere"
            assert got == pytest.approx(base * res.value, rel=1e-12)

    def test_polytope_off_slice_takes_the_sphere_rule(self):
        # off the slice there is no closed form: the functional is the
        # sphere rule over the lifted support shifted by the full w
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))))
        d, s = 2, 1.0
        base, _ = pint.integrate_grid(spec)
        quad = pint.default_quadrature(d, s)
        for z in ([0.0, 0.0], [0.4, -0.3]):
            w = np.array(z + [0.05])
            h = pint.node_support(spec, s, quad) - quad.nodes @ w
            want = s / (2.0 * (d + s)) * float(np.sum(quad.weights * h ** (-(d + s))))
            got = regions.sp_region_value(spec, s, w)
            assert got == pytest.approx(base * want, rel=1e-12)
            assert got != pytest.approx(
                base * pint.phi_sphere(spec, s, np.array(z)).value, rel=1e-6)
