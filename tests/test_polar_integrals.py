import math

import numpy as np
import pytest
from scipy import integrate, special

from polarlab import funcmodel as fm
from polarlab import polar_integrals as pint
from polarlab import lifting, santalo, transforms
from polarlab.errors import DomainError, InputError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def interval_spec():
    return fm.FunctionSpec(1, fm.SConcave(1.0),
                           fm.PolytopeIndicator(((-1.0,), (1.0,))))


class TestKappa:
    def test_closed_values(self):
        assert pint.kappa(1, 1.0) == pytest.approx(math.pi / 2.0)
        assert pint.kappa(1, 2.0) == pytest.approx(4.0 / 3.0)

    def test_factorization(self):
        for d in (2, 3):
            for s in (0.5, 1.0, 2.0, 5.0):
                assert pint.kappa(1, s) * pint.kappa(d - 1, s + 1) == pytest.approx(
                    pint.kappa(d, s), rel=1e-14)

    def test_matches_hhat_mass(self):
        val, _ = pint.integrate_grid(hhat_spec(2, 2.0))
        assert val == pytest.approx(pint.kappa(2, 2.0), rel=1e-7)


class TestQuadrature:
    def test_moment_identity(self):
        for d in (1, 2, 3):
            q = pint.default_quadrature(d, 1.5)
            assert float(q.weights.sum()) == pytest.approx(q.moment(), rel=1e-9)

    def test_cache_identity(self):
        assert pint.default_quadrature(2, 1.0) is pint.default_quadrature(2, 1.0)

    def test_doubled_rule_built_once(self):
        # the error estimate reads the lifted support on one doubled rule
        spec = hhat_spec(2, 2.0)
        for _ in range(3):
            pint.phi_sphere(spec, 2.0, np.array([0.1, -0.2]), error_estimate=True)
        memo = [k for k in vars(spec) if isinstance(k, tuple) and k[0] == "node_support"]
        assert len(memo) <= 2

    def test_node_support_keys_on_s(self):
        # one spec and one rule at two s: each value is that s's own support
        spec = hhat_spec(2, 2.0)
        quad = pint.default_quadrature(2, 1.5)
        h1 = pint.node_support(spec, 1.5, quad)
        h2 = pint.node_support(spec, 3.0, quad)
        assert not np.array_equal(h1, h2)
        for s, h in ((1.5, h1), (3.0, h2)):
            np.testing.assert_array_equal(
                h, lifting.LiftedBody(spec, s).support_batch(quad.nodes))

    def test_node_support_per_quadrature(self):
        # quadratures built and dropped in turn may share an id()
        spec = hhat_spec(2, 1.0)
        for k in range(40):
            quad = pint.SphereQuadrature.build(2, 1.0, 2 + k % 3, 4 + k)
            assert len(pint.node_support(spec, 1.0, quad)) == len(quad.nodes)


class TestPhiSphere:
    def test_interval_closed_form(self):
        spec = interval_spec()
        for z in (-0.6, 0.0, 0.4):
            got = pint.phi_sphere(spec, 1.0, np.array([z])).value
            assert got == pytest.approx(1.0 / (1.0 - z * z), rel=1e-8)

    def test_center_outside_support_raises(self):
        with pytest.raises(DomainError):
            pint.phi_sphere(interval_spec(), 1.0, np.array([1.5]))

    def test_matches_oracle_on_ball(self):
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.0, 0.0), 1.0))
        z = np.array([0.2, -0.1])
        vs = pint.phi_sphere(spec, 1.0, z).value
        vo = pint.phi_oracle(spec, 1.0, z).value
        assert vs == pytest.approx(vo, rel=1e-3)

    def test_shift_invariance_of_shifted_family(self):
        base = fm.FunctionSpec(1, fm.SConcave(1.0), fm.BallIndicator((0.0,), 1.0))
        shifted = fm.FunctionSpec(1, fm.SConcave(1.0), fm.Shifted(base, (0.3,)))
        v1 = pint.phi_sphere(base, 1.0, np.array([0.1])).value
        v2 = pint.phi_sphere(shifted, 1.0, np.array([0.4])).value
        assert v1 == pytest.approx(v2, rel=1e-9)


def polytope_spec(V, s):
    return fm.FunctionSpec(V.shape[1], fm.SConcave(s),
                           fm.PolytopeIndicator(tuple(map(tuple, V))))


def box_vertices(d):
    half = np.array([1.0, 0.7, 1.3])[:d]
    corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    return 0.1 + corners * half


def simplex_vertices(d):
    V = np.vstack([np.zeros(d), np.eye(d)]) * 1.3
    return V + np.random.default_rng(d).uniform(-0.1, 0.1, size=V.shape)


def polar_volume_and_moment(V, z):
    """vol((P - z)°) and int over (P - z)° of y dy, P = conv V, from the
    vertex description: (P - z)° = {y : <y, v - z> <= 1 for v in V}."""
    W = V - z
    d = V.shape[1]
    if d == 1:
        lo, hi = -1.0 / -W.min(), 1.0 / W.max()
        return hi - lo, np.array([0.5 * (hi * hi - lo * lo)])
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    hs = HalfspaceIntersection(np.column_stack([W, -np.ones(len(W))]), np.zeros(d))
    Q = hs.intersections
    hull = ConvexHull(Q)
    # cones from the origin over the boundary simplices
    vols = np.abs(np.linalg.det(Q[hull.simplices])) / math.factorial(d)
    cents = Q[hull.simplices].sum(axis=1) / (d + 1)
    return hull.volume, vols @ cents


class TestPolytopeExact:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["box", "simplex"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_against_polar_volume(self, d, shape, s):
        V = box_vertices(d) if shape == "box" else simplex_vertices(d)
        spec = polytope_spec(V, s)
        # int (1 - |y|_K)_+^s dy = d B(d, s + 1) vol K, and the gradient of
        # vol((P - z)°) is (d + 1) times the first moment of (P - z)°
        c = d * special.beta(d, s + 1.0)
        rng = np.random.default_rng(d)
        for w in rng.dirichlet(np.ones(len(V)), size=4):
            z = w @ V
            vol, mom = polar_volume_and_moment(V, z)
            assert pint.phi_sphere(spec, s, z).value == pytest.approx(c * vol, rel=1e-12)
            res = pint.phi(spec, s, z, grad=True)
            assert res.value == pytest.approx(c * vol, rel=1e-12)
            np.testing.assert_allclose(res.gradient, c * (d + 1) * mom, rtol=1e-12,
                                       atol=1e-12 * np.abs(mom).max())

    def test_box_santalo_point_is_its_centre(self):
        res = santalo.santalo_point(polytope_spec(box_vertices(3), 1.0), 1.0,
                                    compute_moment=False)
        assert res.converged
        np.testing.assert_allclose(res.z_star, 0.1, rtol=0.0, atol=1e-9)

    def test_non_interior_centre_raises(self):
        spec = polytope_spec(box_vertices(2), 2.0)
        for z in ([1.1, 0.1], [1.2, 0.9], [-2.0, 0.0]):
            with pytest.raises(DomainError):
                pint.phi_sphere(spec, 2.0, np.array(z))
            with pytest.raises(DomainError):
                pint.phi(spec, 2.0, np.array(z), grad=True)


class TestCusp:
    def test_s5_cusp_closed_form(self):
        # f = (1 - a|x|/s)_+^s lifts to a rhombus, so L_s(shift(f, z))(y) =
        # (1 + z y)^s on [-1/(R + z), 1/(R - z)], R = s/a
        s = 5.0
        for a in (0.7, 1.3, 2.0):
            inner = fm.FunctionSpec(1, fm.LogConcave(), fm.ExpNegNorm(a))
            spec = transforms.s_approx(inner, s)
            R = s / a
            for z in (0.0, 0.35 * R, -0.2 * R):
                if z == 0.0:
                    want = 2.0 / R
                else:
                    want = ((R / (R - z)) ** (s + 1) - (R / (R + z)) ** (s + 1)) / (
                        z * (s + 1.0))
                got = pint.phi_sphere(spec, s, np.array([z])).value
                assert got == pytest.approx(want, rel=1e-3)


def pool_grid_d2():
    """(1 - |x|^2)_+ on a 9 x 9 grid over [-1, 1]^2, s = 2."""
    x = np.linspace(-1.0, 1.0, 9)
    r2 = sum(m * m for m in np.meshgrid(x, x, indexing="ij"))
    return fm.FunctionSpec(2, fm.SConcave(2.0),
                           fm.GridProfile((-1.0, -1.0), 0.25, np.maximum(0.0, 1.0 - r2)))


class TestShiftedGrid:
    def test_phi_sphere_moves_with_the_offset(self):
        inner = pool_grid_d2()
        off = np.array([0.5, -0.25])
        shifted = fm.FunctionSpec(2, fm.SConcave(2.0), fm.Shifted(inner, tuple(off)))
        for z in ([0.5, -0.25], [0.8, 0.1], [0.2, -0.6]):
            z = np.asarray(z)
            assert pint.phi_sphere(shifted, 2.0, z).value == pytest.approx(
                pint.phi_sphere(inner, 2.0, z - off).value, rel=1e-12)


def log_grid_d2():
    """exp of the profile of pool_grid_d2 where it is positive, declared
    log-concave: log f is affine on each Kuhn simplex."""
    x = np.linspace(-1.0, 1.0, 9)
    r2 = sum(m * m for m in np.meshgrid(x, x, indexing="ij"))
    return fm.FunctionSpec(2, fm.LogConcave(),
                           fm.GridProfile((-1.0, -1.0), 0.25, np.maximum(0.0, 1.0 - r2)))


class TestLogConcaveGrid:
    @pytest.mark.parametrize("approx", [False, True])
    def test_sphere_rule_oracle_and_santalo_point(self, approx):
        spec = log_grid_d2()
        if approx:
            spec = transforms.s_approx(spec, 2.0)
        z = np.array([0.1, -0.05])
        assert pint.phi_sphere(spec, 2.0, z).value == pytest.approx(
            pint.phi_oracle(spec, 2.0, z).value, rel=1e-3)
        res = santalo.santalo_point(spec, 2.0, compute_moment=False)
        assert res.converged
        np.testing.assert_allclose(res.z_star, 0.0, atol=1e-8)  # f is even


class TestGradient:
    def test_interval_gradient_closed_form(self):
        spec = interval_spec()
        z = np.array([0.5])
        res = pint.phi(spec, 1.0, z, grad=True)
        # Phi(z) = 1/(1-z^2) so Phi'(z) = 2z/(1-z^2)^2
        want = 2.0 * 0.5 / (1.0 - 0.25) ** 2
        assert res.gradient[0] == pytest.approx(want, rel=1e-8)
        # gradient = (d+s+1) * first moment of the polar of the shift
        _, moment = pint.polar_moment(spec, 1.0, z)
        assert res.gradient[0] == pytest.approx(3.0 * moment[0], rel=1e-4)

    def test_finite_difference_agreement(self):
        spec = hhat_spec(2, 2.0)
        z = np.array([0.2, 0.1])
        g = pint.phi(spec, 2.0, z, grad=True).gradient
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (pint.phi_sphere(spec, 2.0, z + e).value
                  - pint.phi_sphere(spec, 2.0, z - e).value) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4)


class TestPhiLog:
    def test_gaussian_minimum_value(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        assert pint.phi_log(g, np.zeros(1)) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-6)

    def test_gaussian_d3_closed_form(self):
        g = fm.FunctionSpec(3, fm.LogConcave(), fm.Gaussian((0.0, 0.0, 0.0), 1.0))
        assert pint.phi_log(g, np.zeros(3)) == pytest.approx(
            (2.0 * math.pi) ** 1.5, rel=1e-2)

    def test_cache_keys_on_resolution(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        fresh = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        z = np.array([0.4])
        coarse = pint.phi_log(g, z, pint.IntegrationConfig(resolution=16))
        fine = pint.phi_log(g, z, pint.IntegrationConfig(resolution=4096))
        assert fine == pint.phi_log(fresh, z, pint.IntegrationConfig(resolution=4096))
        assert fine != coarse

    def test_gradient_matches_fd(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.3,), 1.0))
        z = np.array([0.5])
        grad = pint.phi(g, math.inf, z, grad=True).gradient
        h = 1e-5
        fd = (pint.phi_log(g, z + h) - pint.phi_log(g, z - h)) / (2 * h)
        assert grad[0] == pytest.approx(fd, rel=1e-5)


class TestPhi:
    @pytest.mark.parametrize("spec,s,z", [
        (interval_spec(), 1.0, np.array([0.3])),
        (hhat_spec(2, 2.0), 2.0, np.array([0.2, -0.1])),
    ])
    def test_finite_s_is_phi_sphere(self, spec, s, z):
        for est in (False, True):
            assert pint.phi(spec, s, z, error_estimate=est) == pint.phi_sphere(
                spec, s, z, error_estimate=est)
        res = pint.phi(spec, s, z, grad=True)
        want = pint.phi_sphere(spec, s, z)
        assert (res.value, res.method, res.nodes) == (want.value, want.method, want.nodes)
        assert res.err_est is None and res.gradient.shape == z.shape

    def test_inf_is_phi_log(self):
        g = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.3, -0.2), 1.0))
        z = np.array([0.5, 0.1])
        cfg = pint.IntegrationConfig(resolution=64)
        for est in (False, True):
            res = pint.phi(g, math.inf, z, cfg, error_estimate=est)
            assert res.value == pint.phi_log(g, z, cfg)
            assert (res.method, res.err_est, res.gradient) == ("log-grid", None, None)
            assert res.nodes == len(pint._log_polar_nodes(g, cfg)[0])
        res = pint.phi(g, math.inf, z, cfg, grad=True)
        assert res.value == pint.phi_log(g, z, cfg)
        assert res.nodes == pint.phi(g, math.inf, z, cfg).nodes

    def test_inf_needs_a_log_concave_spec(self):
        with pytest.raises(InputError):
            pint.phi(hhat_spec(2, 2.0), math.inf, np.zeros(2))

    def test_finite_s_paths_refuse_inf(self):
        # the sphere rule, the grid oracle and the hyperplane construction
        # take finite s only
        spec = hhat_spec(2, 2.0)
        z = np.array([0.1, 0.0])
        with pytest.raises(InputError):
            pint.phi_sphere(spec, math.inf, z)
        with pytest.raises(InputError):  # a closed form, no sphere rule
            pint.phi_sphere(interval_spec(), math.inf, z[:1])
        with pytest.raises(InputError):
            pint.phi_oracle(spec, math.inf, z)
        with pytest.raises(InputError):
            santalo.verify_santalo(spec, math.inf, santalo.Hyperplane.of((1.0, 0.0), 0.0))


class TestKnownDefects:
    """Defects left in place, each pinned until its ROADMAP item mends it."""

    @pytest.mark.xfail(strict=True, reason=(
        "the d = 3 sphere rule's error estimate understates its error "
        "(4.6e-6 off, err_est 1.4e-6)"))
    def test_d3_error_estimate_bounds_the_error(self):
        res = pint.phi_sphere(hhat_spec(3, 2.0), 2.0, np.array([0.2, -0.1, 0.15]),
                              error_estimate=True)
        assert abs(res.value - 2.0999398047813) <= res.err_est

    @pytest.mark.xfail(strict=True, reason=(
        "Phi_inf of an indicator comes from a midpoint rule on exp(-h_P): "
        "the cube [-1, 1]^3 reads 6.43 at its centre"))
    def test_cube_phi_inf_closed_form(self):
        corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * 3), indexing="ij"),
                           axis=-1).reshape(-1, 3)
        cube = fm.FunctionSpec(3, fm.LogConcave(),
                               fm.PolytopeIndicator(tuple(map(tuple, corners))))
        assert pint.phi(cube, math.inf, np.zeros(3)).value == pytest.approx(8.0, rel=1e-10)


class TestPolytopeOracle:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_line_integrals(self, s, line_integral):
        rng = np.random.default_rng(int(4 * s))
        for m in (2, 3, 5, 8):
            # slopes of both signs, some equal, and one of slope 0
            beta = rng.choice([-1.3, -0.4, 0.0, 0.7, 1.1, 2.5], size=m)
            beta[:2] = (-0.8, 0.9)
            alpha = rng.uniform(-0.3, 1.5, size=(30, m))
            got = pint._line_integrals(alpha, beta, s)
            want = [line_integral(a, beta, s) for a in alpha]
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("d, tol", [(1, 1e-13), (2, 2e-5), (3, 5e-4)])
    @pytest.mark.parametrize("shape", ["box", "simplex"])
    def test_against_closed_form(self, d, tol, shape):
        V = box_vertices(d) if shape == "box" else simplex_vertices(d)
        rng = np.random.default_rng(d)
        for s, w in zip((0.5, 5.0), rng.dirichlet(np.ones(len(V)), size=2)):
            spec = polytope_spec(V, s)
            z = w @ V
            got = pint.phi_oracle(spec, s, z)
            want = pint.phi_sphere(spec, s, z).value
            assert got.value == pytest.approx(want, rel=tol)

    def test_reads_neither_lifted_body_nor_closed_form(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the oracle must stay independent")

        monkeypatch.setattr(pint, "_polytope_phi", boom)
        monkeypatch.setattr(pint.lifting.LiftedBody, "support_batch", boom)
        spec = polytope_spec(simplex_vertices(2), 2.0)
        assert pint.phi_oracle(spec, 2.0, simplex_vertices(2).mean(axis=0)).value > 0.0


def ball_spec(d, s, center, radius):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.BallIndicator(tuple(center), radius))


BALL_CENTRE = np.array([0.2, -0.1, 0.15])
BALL_QUERIES = np.array([[0.0, 0.0, 0.0], [0.5, 0.3, -0.2], [-0.6, 0.4, 0.5]])


def ball_polar_volume(c, R, z):
    """vol((B(c, R) - z)°) = (1/d) int over S^{d-1} of h(u)^{-d} du, with
    h(u) = R + <c - z, u> the support function of B - z, by adaptive
    quadrature in polar (d = 2) or spherical (d = 3) coordinates."""
    w = np.asarray(c, dtype=float) - np.asarray(z, dtype=float)
    d = len(w)
    if d == 1:
        return (1.0 / (R + w[0]) + 1.0 / (R - w[0]))
    if d == 2:
        val, _ = integrate.quad(
            lambda t: (R + w[0] * math.cos(t) + w[1] * math.sin(t)) ** -2,
            0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        return val / 2.0

    def h(p, t):
        u = (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t))
        return (R + w @ u) ** -3 * math.sin(t)

    val, _ = integrate.dblquad(h, 0.0, math.pi, 0.0, 2.0 * math.pi,
                               epsabs=0.0, epsrel=1e-12)
    return val / 3.0


class TestBallExact:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_against_polar_volume(self, d, s):
        c, R = BALL_CENTRE[:d], 1.3
        spec = ball_spec(d, s, c, R)
        pref = math.factorial(d) * special.gamma(s + 1.0) / special.gamma(d + s + 1.0)
        for z in BALL_QUERIES[:, :d]:
            res = pint.phi_sphere(spec, s, z)
            assert res.method == "exact"
            assert res.value == pytest.approx(pref * ball_polar_volume(c, R, z), rel=1e-10)

    @pytest.mark.parametrize("d, tol", [(1, 1e-10), (2, 1e-10), (3, 5e-5)])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_sphere_rule_on_the_lifted_support(self, d, tol, s):
        # the sphere rule over the lifted support of a ball still agrees
        spec = ball_spec(d, s, BALL_CENTRE[:d], 1.3)
        quad = pint.default_quadrature(d, s)
        for z in BALL_QUERIES[:, :d]:
            h = pint.node_support(spec, s, quad) - quad.nodes[:, :d] @ z
            rule = s / (2.0 * (d + s)) * float(np.sum(quad.weights * h ** (-(d + s))))
            assert rule == pytest.approx(pint.phi_sphere(spec, s, z).value, rel=tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gradient_matches_central_differences(self, d):
        spec = ball_spec(d, 2.0, BALL_CENTRE[:d], 1.3)
        z = BALL_QUERIES[1, :d]
        res = pint.phi(spec, 2.0, z, grad=True)
        assert res.method == "exact"
        assert res.value == pint.phi_sphere(spec, 2.0, z).value
        h = 1e-6
        for i, e in enumerate(h * np.eye(d)):
            fd = (pint.phi_sphere(spec, 2.0, z + e).value
                  - pint.phi_sphere(spec, 2.0, z - e).value) / (2.0 * h)
            assert res.gradient[i] == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_boundary_and_outside_raise(self, d):
        c, R = BALL_CENTRE[:d], 1.3
        spec = ball_spec(d, 1.0, c, R)
        u = np.ones(d) / math.sqrt(d)
        for z in (c + R * u, c + 1.5 * R * u, c - 3.0 * R * u):
            with pytest.raises(DomainError):
                pint.phi_sphere(spec, 1.0, z)
            with pytest.raises(DomainError):
                pint.phi(spec, 1.0, z, grad=True)

    def test_shifted_and_log_approx_are_exact(self):
        c, off = BALL_CENTRE[:2], np.array([0.4, -0.3])
        ball = ball_spec(2, 2.0, c, 1.3)
        shifted = fm.FunctionSpec(2, fm.SConcave(2.0), fm.Shifted(ball, tuple(off)))
        log_ball = fm.FunctionSpec(2, fm.LogConcave(), fm.BallIndicator(tuple(c), 1.3))
        approx = transforms.s_approx(log_ball, 2.0)
        z = BALL_QUERIES[1, :2]
        want = pint.phi_sphere(ball, 2.0, z)
        for spec, at in ((shifted, z + off), (approx, z)):
            got = pint.phi_sphere(spec, 2.0, at, error_estimate=True)
            assert got.method == "exact" and got.err_est == 0.0
            assert got.value == pytest.approx(want.value, rel=1e-14)
            grad = pint.phi(spec, 2.0, at, grad=True)
            assert grad.method == "exact"

    def test_only_indicators_are_exact(self):
        assert pint.phi_sphere(hhat_spec(2, 2.0), 2.0, np.zeros(2)).method == "sphere"

    def test_oracle_reads_no_closed_form(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the oracle must stay independent")

        monkeypatch.setattr(pint, "_sphere_functional", boom)
        monkeypatch.setattr(pint, "_ball_phi", boom)
        spec = ball_spec(2, 1.0, BALL_CENTRE[:2], 1.3)
        assert pint.phi_oracle(spec, 1.0, BALL_QUERIES[1, :2]).value > 0.0
