import dataclasses
import math
import signal

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


def box_d3_spec():
    corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * 3), indexing="ij"),
                       axis=-1).reshape(-1, 3)
    verts = corners * np.array([1.0, 0.8, 1.2])
    return fm.FunctionSpec(3, fm.SConcave(1.0), fm.PolytopeIndicator(tuple(map(tuple, verts))))


def grid_d2_spec():
    x = np.linspace(-1.0, 1.0, 9)
    grid = np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2)
    return fm.FunctionSpec(2, fm.SConcave(2.0), fm.GridProfile((-1.0, -1.0), 0.25, grid))


# (spec, s) of the benchmark's d >= 2 region pool, and a Gaussian at s = inf
SOLVE_SPECS = {
    "hhat-d2": lambda: (hhat_spec(2, 2.0), 2.0),
    "fs-gaussian-d2": lambda: (transforms.s_approx(fm.FunctionSpec(
        2, fm.LogConcave(), fm.Gaussian((0.0, 0.0), 1.0)), 2.0), 2.0),
    "box-d3": lambda: (box_d3_spec(), 1.0),
    "grid-d2": lambda: (grid_d2_spec(), 2.0),
    "gaussian-d2-inf": lambda: (fm.FunctionSpec(
        2, fm.LogConcave(), fm.Gaussian((0.1, -0.2), 0.8)), regions.INF),
}


class TestExactBall:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("t", [1.5, 3.0])
    def test_radius_closed_form(self, d, s, t):
        # Phi(z) = d! Gamma(s+1)/Gamma(d+s+1) omega_d R (R^2 - |z - c|^2)^{-(d+1)/2}
        # for the indicator of B(c, R), so the region is a ball about c
        R, c = 1.3, (0.4, -0.2, 0.3)[:d]
        spec = fm.FunctionSpec(d, fm.SConcave(s), fm.BallIndicator(c, R))
        q = regions.make_query(spec, s, t)
        b = regions.region_boundary(q, ray_count=16)
        omega = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        pref = math.factorial(d) * math.gamma(s + 1) / math.gamma(d + s + 1)
        vol = omega * R**d
        # membership admits products up to threshold * (1 + TIE_TOL)
        thr = q.threshold * (1.0 + regions.TIE_TOL)
        want = math.sqrt(R**2 - (vol * pref * omega * R / thr) ** (2.0 / (d + 1)))
        assert b.center == pytest.approx(c, abs=1e-12)
        assert np.all(b.radii <= want + 1e-12)
        assert np.all(b.radii >= want - b.tolerance - 1e-12)


class TestRaySolve:
    @pytest.mark.parametrize("name, per_ray", [
        ("hhat-d2", 8), ("fs-gaussian-d2", 8), ("gaussian-d2-inf", 8),
        ("grid-d2", 16), ("box-d3", 20)])
    def test_contract_and_cost(self, name, per_ray, monkeypatch):
        # a bisection to tol 1e-7 takes 25-26 evaluations a ray on each of these
        spec, s = SOLVE_SPECS[name]()
        real = regions._product_at
        for t in (1.5, 3.0):
            q = regions.make_query(spec, s, t)
            calls = []

            def counted(q_, x):
                calls.append(x)
                return real(q_, x)

            monkeypatch.setattr(regions, "_product_at", counted)
            b = regions.region_boundary(q, ray_count=16)
            monkeypatch.setattr(regions, "_product_at", real)
            assert not b.empty
            assert b.evaluations == len(calls)
            assert len(calls) / len(b.rays) <= per_ray
            for u, r in zip(b.rays, b.radii):
                assert regions.region_membership(q, b.center + r * u)
                cap = (math.inf if s == regions.INF else
                       fm.support_ray_extent(spec, b.center, u) * (1.0 - 1e-9))
                if r != cap:
                    assert not regions.region_membership(q, b.center + (r + b.tolerance) * u)

    @pytest.mark.parametrize("name", ["hhat-d2", "gaussian-d2-inf"])
    def test_level_tie_terminates(self, name, monkeypatch):
        # products a rounding step above the membership threshold transform to
        # g equal to its level, so the chord lands on hi itself; the bracket
        # must still close, by the midpoint
        spec, s = SOLVE_SPECS[name]()
        q = regions.make_query(spec, s, 2.0)
        center = regions.region_boundary(q, ray_count=2).center
        top = q.threshold * (1.0 + regions.TIE_TOL)
        r0 = 0.6

        def product(q_, x):
            r = float(np.linalg.norm(x - center))
            return top * (0.5 + 0.5 * r / r0) if r <= r0 else float(np.nextafter(top, np.inf))

        def stalled(signum, frame):
            raise TimeoutError("the ray solve made no progress")

        monkeypatch.setattr(regions, "_product_at", product)
        previous = signal.signal(signal.SIGALRM, stalled)
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        try:
            b = regions.region_boundary(q, ray_count=16)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert np.all(b.radii <= r0)
        assert np.all(b.radii >= r0 - b.tolerance)
        assert b.evaluations / len(b.rays) <= 25


class TestConcavity:
    """g = Phi^{-1/(d+s)}, and -log Phi_inf, are concave along rays for the
    computed functional, which the ray solve's chord and secant bounds use."""

    @pytest.mark.parametrize("name", ["hhat-d2", "fs-gaussian-d2", "grid-d2",
                                      "gaussian-d2-inf"])
    def test_second_differences(self, name):
        spec, s = SOLVE_SPECS[name]()
        z = santalo.santalo_point(spec, s, compute_moment=False).z_star
        for th in (0.3, 1.9, 4.0):
            u = np.array([math.cos(th), math.sin(th)])
            if s == regions.INF:
                rs = np.linspace(0.0, 3.0, 41)
                g = np.array([-math.log(pint.phi_log(spec, z + r * u)) for r in rs])
            else:
                cap = fm.support_ray_extent(spec, z, u)
                rs = np.linspace(0.0, 0.98 * cap, 41)
                res = [pint.phi_sphere(spec, s, z + r * u) for r in rs]
                assert {p.method for p in res} == {"sphere"}
                g = np.array([p.value for p in res]) ** (-1.0 / (2 + s))
            second = g[:-2] - 2.0 * g[1:-1] + g[2:]
            assert second.max() <= 1e-12 * np.abs(g).max()


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
