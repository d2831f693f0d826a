import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarlab import funcmodel as fm
from polarlab import lifting, transforms
from polarlab import polar_integrals as pint
from polarlab.errors import InputError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


def ball_spec(d, center=None, radius=1.0):
    c = (0.0,) * d if center is None else tuple(center)
    return fm.FunctionSpec(d, fm.SConcave(1.0), fm.BallIndicator(c, radius))


class TestSPolar:
    def test_indicator_closed_form(self):
        spec = ball_spec(1)
        for y in (0.0, 0.5, 0.9, 1.5):
            want = max(0.0, 1.0 - abs(y)) ** 1.0
            assert transforms.s_polar(spec, 1.0, np.array([y])) == pytest.approx(
                want, abs=1e-12)

    def test_hhat_self_polar_scalar(self):
        spec = hhat_spec(2, 2.0)
        y = np.array([0.3, -0.4])
        assert transforms.s_polar(spec, 2.0, y) == pytest.approx(
            fm.evaluate(spec, y), abs=1e-7)

    def test_zero_outside_polar_support(self):
        spec = ball_spec(1, center=(0.5,))
        # support is [-0.5, 1.5]; the polar vanishes for y >= 1/1.5
        assert transforms.s_polar(spec, 1.0, np.array([0.8])) == 0.0

    def test_center_recentring(self):
        spec = ball_spec(1, center=(0.5,))
        val = transforms.s_polar(spec, 1.0, np.array([0.9]), center=np.array([0.5]))
        assert val == pytest.approx(max(0.0, 1.0 - 0.9), abs=1e-12)

    @given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
    @settings(max_examples=25, deadline=None)
    def test_duality_inequality(self, x, y):
        # f(x) L_s f(y) <= (1 - <x,y>)_+^s by construction of the infimum
        spec = hhat_spec(1, 2.0)
        fx = fm.evaluate(spec, np.array([x]))
        ly = transforms.s_polar(spec, 2.0, np.array([y]))
        assert fx * ly <= max(0.0, 1.0 - x * y) ** 2.0 + 1e-9

    def test_batch_grid_profile_d2(self):
        x = np.linspace(-1.0, 1.0, 9)
        vals = np.maximum(0.0, 1.0 - sum(m * m for m in np.meshgrid(x, x, indexing="ij")))
        spec = fm.FunctionSpec(2, fm.SConcave(2.0), fm.GridProfile((-1.0, -1.0), 0.25, vals))
        g = np.linspace(-1.0, 1.0, 401)
        X = np.stack([m.ravel() for m in np.meshgrid(g, g, indexing="ij")], axis=1)
        f = fm.evaluate_batch(spec, X)
        X, f = X[f > 0], f[f > 0]
        Y = np.random.default_rng(0).uniform(-1.2, 1.2, size=(200, 2))
        # the min of the ratio over each Kuhn simplex sits at a sampled node
        num = 1.0 - Y @ X.T
        want = np.where(num.min(axis=1) < 0.0, 0.0,
                        (np.maximum(num, 0.0) ** 2 / f).min(axis=1))
        # the sample may miss where <x, y> reaches 1 right at the boundary
        clear = np.abs((Y @ X.T).max(axis=1) - 1.0) > 0.02
        got = transforms.s_polar_batch(spec, 2.0, Y)
        np.testing.assert_allclose(got[clear], want[clear], rtol=1e-9, atol=1e-12)

    def test_batch_grid_profile(self):
        t = np.linspace(-1.0, 1.0, 65)
        vals = np.maximum(0.0, 1.0 - t * t)
        spec = fm.FunctionSpec(1, fm.SConcave(2.0),
                               fm.GridProfile((-1.0,), 2.0 / 64.0, vals))
        Y = np.linspace(-0.9, 0.9, 21)[:, None]
        got = transforms.s_polar_batch(spec, 2.0, Y)
        want = transforms.s_polar_batch(hhat_spec(1, 2.0), 2.0, Y)
        np.testing.assert_allclose(got, want, atol=5e-3)


S_SET = (0.5, 1.0, 2.0, 5.0)


def radial_case(name, e):
    """(spec, support radius, profile) of a radial family in d = 2, the
    profile written out from its definition."""
    if name == "hhat":
        spec = fm.FunctionSpec(2, fm.SConcave(e), fm.HhatPower(e))
        return spec, 1.0, lambda r: np.maximum(0.0, 1.0 - r * r) ** (e / 2.0)
    if name == "gaussian":
        sg = 0.8
        inner = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.0, 0.0), sg))
        return (transforms.s_approx(inner, e), sg * math.sqrt(2.0 * e),
                lambda r: np.maximum(0.0, 1.0 - r * r / (2.0 * sg * sg * e)) ** e)
    a = 1.3
    inner = fm.FunctionSpec(2, fm.LogConcave(), fm.ExpNegNorm(a))
    return (transforms.s_approx(inner, e), e / a,
            lambda r: np.maximum(0.0, 1.0 - a * r / e) ** e)


class TestRadialKernel:
    @pytest.mark.parametrize("name", ["hhat", "gaussian", "exp"])
    @pytest.mark.parametrize("e", S_SET)
    def test_matches_brute_force(self, name, e, brute_min):
        spec, R, f = radial_case(name, e)
        rng = np.random.default_rng(int(10 * e))
        th = rng.uniform(0.0, 2.0 * math.pi, 12)
        # radii up to 1e-3 short of the edge of supp L_s f: nearer, the ratio
        # itself carries a relative rounding error of about s 1e-16 / (1 - |y| R)
        r = np.concatenate([rng.uniform(0.0, 1.0, 8), 1.0 - np.logspace(-3, -1, 4)]) / R
        Y = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        for s in S_SET:
            got = transforms.s_polar_batch(spec, s, Y)
            for y, g in zip(Y, got):
                q = float(np.linalg.norm(y))

                def ratio(rho, q=q):
                    fr = f(rho)
                    with np.errstate(divide="ignore"):
                        return np.where(fr > 0.0, np.maximum(0.0, 1.0 - rho * q) ** s / fr,
                                        np.inf)

                assert g == pytest.approx(brute_min(ratio, 0.0, R), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", S_SET)
    def test_self_polarity_up_to_the_boundary(self, d, s):
        spec = hhat_spec(d, s)
        rng = np.random.default_rng(d)
        U = rng.normal(size=(64, d))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        r = np.concatenate([np.linspace(0.0, 0.99, 32), 1.0 - np.logspace(-9, -2, 32)])
        Y = U * r[:, None]
        got = transforms.s_polar_batch(spec, s, Y)
        np.testing.assert_allclose(got, fm.evaluate_batch(spec, Y), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("name", ["hhat", "gaussian", "exp"])
    @pytest.mark.parametrize("s", [16.0, 64.0, 256.0])
    @pytest.mark.parametrize("same", [False, True])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_large_s_in_log_space(self, name, s, same, shifted, brute_min):
        # the family's own exponent e is s (s = s' for log_approx) or 2
        spec, R, f = radial_case(name, s if same else 2.0)
        c = np.array([0.3, -0.2]) if shifted else np.zeros(2)
        z = c + np.array([-0.1, 0.05]) if shifted else None
        if shifted:
            spec = fm.FunctionSpec(2, spec.concavity_class, fm.Shifted(spec, tuple(c)))
        rng = np.random.default_rng(int(s))
        th = rng.uniform(0.0, 2.0 * math.pi, 10)
        r = np.concatenate([rng.uniform(0.0, 1.0, 7), 1.0 - np.logspace(-3, -1, 3)])
        Y = np.stack([r * np.cos(th), r * np.sin(th)], axis=1) / (R + 0.15)
        got = transforms.s_polar_batch(spec, s, Y, z)
        A = 1.0 + Y @ ((c if z is None else z) - c)
        for y, a, g in zip(Y, A, got):
            q = float(np.linalg.norm(y))

            def log_ratio(rho, q=q, a=a):
                # in log space: at large s the ratio itself underflows
                with np.errstate(divide="ignore"):
                    return s * np.log(np.maximum(0.0, a - rho * q)) - np.log(f(rho))

            want = brute_min(log_ratio, 0.0, R)
            if want < -700.0:
                assert g < 1e-300
            else:
                assert math.log(g) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_log_approx_without_closed_form(self, brute_min):
        # log_approx of a log-concave hhat has no closed-form profile; the
        # radial kernel takes a golden-section search over the radius
        inner = fm.FunctionSpec(1, fm.LogConcave(), fm.HhatPower(2.0))
        spec = transforms.s_approx(inner, 3.0)
        assert spec.radial.profile is None
        for y in (0.2, -0.5):
            def ratio(rho, y=y):
                fr = np.maximum(0.0, 1.0 + np.log(np.maximum(1e-300, 1.0 - rho * rho)) / 3.0) ** 3
                with np.errstate(divide="ignore"):
                    return np.where(fr > 0.0, (1.0 - rho * abs(y)) ** 3.0 / fr, np.inf)

            got = transforms.s_polar(spec, 3.0, np.array([y]))
            assert got == pytest.approx(brute_min(ratio, 0.0, 1.0), rel=1e-10)


@st.composite
def vertex_cases(draw):
    """(spec, s, centre, offset, rng) for a random grid of either class at
    d = 1 or 2 (at most 7 nodes a side, zero nodes where its concave profile
    falls below a cut), optionally shifted and, for the log class, optionally
    under log_approx; s at most the class s (any s for the log class)."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(3, 7))
    log = draw(st.booleans())
    coords = np.meshgrid(*([np.linspace(-1.0, 1.0, n)] * d), indexing="ij")
    c = [draw(st.floats(-0.5, 0.5)) for _ in range(d)]
    a = [draw(st.floats(0.3, 1.5)) for _ in range(d)]
    b = [draw(st.floats(-0.5, 0.5)) for _ in range(d)]
    prof = 1.0 - sum(ai * (x - ci) ** 2 - bi * x for x, ci, ai, bi in zip(coords, c, a, b))
    if log:
        prof = prof - prof.max()
        cut = draw(st.floats(-3.0, -0.3))
        vals = np.where(prof > cut, np.exp(draw(st.floats(0.2, 4.0)) * prof), 0.0)
        cls = fm.LogConcave()
    else:
        cs = draw(st.sampled_from([0.3, 1.0, 2.0, 5.0]))
        vals = np.maximum(0.0, prof) ** cs
        cls = fm.SConcave(cs)
    offset = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(d)])
    shift = draw(st.sampled_from(["none", "outer", "inner"]) if log
                 else st.sampled_from(["none", "outer"]))
    try:
        spec = fm.FunctionSpec(d, cls, fm.GridProfile((-1.0,) * d, 2.0 / (n - 1), vals))
        if shift == "inner":
            spec = fm.FunctionSpec(d, cls, fm.Shifted(spec, tuple(offset)))
        if log and draw(st.booleans()):
            # mostly below the range of -log f, so that log f = -s' crosses edges
            low = -np.log(vals[vals > 0]).min()
            spec = transforms.s_approx(spec, max(0.3, draw(st.floats(0.1, 1.2)) * low))
        if shift == "outer":
            spec = fm.FunctionSpec(d, spec.concavity_class, fm.Shifted(spec, tuple(offset)))
        spec.support
    except InputError:  # disconnected, no full cell, or an empty log_approx
        assume(False)
    cs = spec.class_s
    s = draw(st.floats(0.2, 8.0)) if cs is None else cs * draw(
        st.just(1.0) | st.floats(0.1, 1.0))
    centre = np.array([draw(st.floats(-0.2, 0.2)) for _ in range(d)])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return spec, s, centre, (offset if shift != "none" else np.zeros(d)), rng


def _dense_sample(d, offset):
    """Points of [-1, 1]^d + offset on a lattice that holds every grid node
    of vertex_cases (2400 cells a side at d = 1, 240 at d = 2)."""
    m = {1: 2401, 2: 241}[d]
    axes = [np.linspace(-1.0, 1.0, m) + o for o in offset]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


class TestVertexKernels:
    """The s-polar and the lifted support of a grid-based spec are taken at
    the vertices of its pieces; a dense sample of supp f never does better."""

    @given(vertex_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_s_polar_not_above_brute_force(self, case):
        spec, s, centre, offset, rng = case
        X = _dense_sample(spec.dimension, offset)
        f = fm.evaluate_batch(spec, X)
        X, f = X[f > 0], f[f > 0]
        Y = rng.uniform(-1.5, 1.5, size=(24, spec.dimension))
        c0 = 1.0 + Y @ centre
        num = c0[:, None] - Y @ X.T
        low = num.min(axis=1)
        want = np.where(low < 0.0, 0.0, (np.maximum(num, 0.0) ** s / f).min(axis=1))
        got = transforms.s_polar_batch(spec, s, Y, centre)
        # a numerator within rounding of 0 on the sample: a knife edge
        clear = np.abs(low) > 1e-9
        assert np.all(got[clear] <= want[clear] * (1.0 + 1e-12))

    @given(vertex_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_lifted_support_not_below_brute_force(self, case):
        spec, s, centre, offset, rng = case
        X = _dense_sample(spec.dimension, offset)
        f = fm.evaluate_batch(spec, X)
        X, f = X[f > 0], f[f > 0]
        U = rng.normal(size=(24, spec.dimension + 1))
        want = (U[:, :-1] @ (X - centre).T + np.abs(U[:, -1:]) * f ** (1.0 / s)).max(axis=1)
        got = lifting.LiftedBody(spec, s, tuple(centre)).support_batch(U)
        assert np.all(got >= want - 1e-12 * np.abs(want).max())

    @given(vertex_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_support_points_carry_f(self, case):
        # every point is in the closure of supp f and carries f there, so
        # neither kernel can do better than f itself: with the two tests
        # above, the kernels are exact
        spec = case[0]
        P = spec.support
        f = fm.evaluate_batch(spec, P.points)
        if spec.class_s is None:
            np.testing.assert_allclose(np.log(P.values), np.log(f), rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(P.values ** (1.0 / spec.class_s),
                                       f ** (1.0 / spec.class_s), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("cls_s, s", [(1.0, 4.0), (0.5, 3.0)])
    def test_above_the_class_s_is_refused(self, cls_s, s):
        # there f^(1/s) on a piece is a concave power of an affine function,
        # and both extrema can fall inside the piece: on this grid the
        # vertex minimum reads up to 5x the s-polar, and the vertex maximum
        # up to 0.2 below the lifted support
        grid = fm.FunctionSpec(1, fm.SConcave(cls_s), fm.GridProfile(
            (0.0,), 0.5, np.array([0.0, 0.2, 1.0, 0.3, 0.0])))
        log_grid = fm.FunctionSpec(1, fm.LogConcave(), fm.GridProfile(
            (0.0,), 0.5, np.array([0.0, 0.2, 1.0, 0.3, 0.0])))
        for spec in (grid, fm.FunctionSpec(1, fm.SConcave(s), fm.Shifted(grid, (0.1,))),
                     transforms.s_approx(log_grid, cls_s)):
            with pytest.raises(InputError):
                transforms.s_polar_batch(spec, s, np.array([[0.3]]))
            with pytest.raises(InputError):
                lifting.LiftedBody(spec, s).support_batch(np.array([[0.3, 1.0]]))


class TestLegendre:
    def test_quadratic_fixed_point(self):
        ev = transforms.legendre_evaluator(
            fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0)))
        for y in (-1.2, 0.0, 0.7):
            lv = transforms.legendre(ev, np.array([y]))
            assert not lv.infinite
            assert lv.value == pytest.approx(0.5 * y * y, abs=1e-9)

    def test_norm_conjugate_indicator(self):
        ev = transforms.legendre_evaluator(
            fm.FunctionSpec(1, fm.LogConcave(), fm.ExpNegNorm(1.0)))
        assert transforms.legendre(ev, np.array([0.5])).value == pytest.approx(
            0.0, abs=1e-9)
        assert transforms.legendre(ev, np.array([1.5])).infinite


class TestLogPolar:
    def test_gaussian_self_polar(self):
        g = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.0, 0.0), 1.0))
        y = np.array([0.4, -0.3])
        assert transforms.log_polar(g, y) == pytest.approx(
            math.exp(-0.5 * float(y @ y)), abs=1e-9)

    def test_shift_multiplies_by_exponential(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        y = np.array([0.6])
        z = np.array([0.3])
        shifted = transforms.log_polar(g, y, center=z)
        assert shifted == pytest.approx(
            math.exp(float(z @ y)) * transforms.log_polar(g, y), rel=1e-9)

    def test_cache_does_not_keep_spec_alive(self):
        # reference counting alone must free a spec and what is kept on it;
        # with the cyclic collector off, a reference cycle would keep it
        def gaussian():
            g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
            transforms.log_polar(g, np.array([0.5]))
            pint.phi_log(g, np.array([0.2]))
            return [weakref.ref(g)]

        def approx():
            inner = fm.FunctionSpec(2, fm.LogConcave(), fm.Gaussian((0.0, 0.0), 1.0))
            a = transforms.s_approx(inner, 2.0)
            pint.phi_sphere(a, 2.0, np.zeros(2), error_estimate=True)
            return [weakref.ref(a), weakref.ref(inner)]

        gc.collect()
        gc.disable()
        try:
            for make in (gaussian, approx):
                assert all(r() is None for r in make())
        finally:
            gc.enable()

    def test_indicator_maximizer_on_box_edge(self):
        # L_inf of the indicator of K is exp(-h_K(y)); for an interval or a
        # square the maximizer is a vertex, on the edge of the search box
        interval = fm.FunctionSpec(1, fm.LogConcave(), fm.PolytopeIndicator(((-0.4,), (0.6,))))
        square = fm.FunctionSpec(2, fm.LogConcave(), fm.PolytopeIndicator(
            ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))))
        for spec, y, h in ((interval, [0.5], 0.3), (interval, [-1.0], 0.4),
                           (square, [0.5, 0.2], 0.7)):
            assert transforms.log_polar(spec, np.array(y)) == pytest.approx(
                math.exp(-h), rel=1e-6)

    def test_batch_matches_scalar(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.2,), 0.8))
        Y = np.linspace(-1.0, 1.0, 9)[:, None]
        got = transforms.log_polar_batch(g, Y)
        want = [transforms.log_polar(g, y, refine=False) for y in Y]
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def _mesh(axes):
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def log_spec(name, d):
    if name == "gaussian":
        return fm.FunctionSpec(d, fm.LogConcave(), fm.Gaussian((0.1,) * d, 0.8))
    if name == "exp":
        return fm.FunctionSpec(d, fm.LogConcave(), fm.ExpNegNorm(1.2))
    # log-concave grid with zero nodes in its corners
    x = np.linspace(-1.0, 1.0, 9)
    r2 = sum(m * m for m in np.meshgrid(*([x] * d), indexing="ij"))
    return fm.FunctionSpec(d, fm.LogConcave(), fm.GridProfile(
        (-1.0,) * d, 0.25, np.maximum(0.0, 1.0 - r2)))


class TestConjugate1d:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 17, 64])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = np.sort(rng.uniform(-2.0, 2.0, n))
            # convex trend plus noise, so neither convex nor concave
            p = 0.3 * x * x + rng.normal(size=n)
            p[rng.random(n) < 0.3] = np.inf
            y = rng.uniform(-40.0, 40.0, 50)  # beyond the slope range too
            fin = np.isfinite(p)
            want = (y[:, None] * x[None, fin] - p[None, fin]).max(
                axis=1, initial=-np.inf)
            np.testing.assert_array_equal(transforms._conjugate_1d(x, p, y), want)

    def test_almost_convex_sample(self):
        # a convex function sampled in floating point is convex only up to
        # rounding; at y on one of its slopes two vertices tie up to an ulp
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(-3.0, 3.0, 400))
        p = np.log(np.cosh(x)) + 1e-15 * rng.normal(size=len(x))
        y = np.concatenate([np.diff(p) / np.diff(x), rng.uniform(-1.2, 1.2, 100)])
        want = (y[:, None] * x[None, :] - p[None, :]).max(axis=1)
        np.testing.assert_array_equal(transforms._conjugate_1d(x, p, y), want)


class TestLogPolarGrid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ["gaussian", "exp", "log-grid"])
    def test_matches_dense(self, name, d):
        spec = log_spec(name, d)
        lo, hi = fm.support_box(spec)
        # unequal axes reaching past the Legendre box on both sides
        counts = {1: (101,), 2: (13, 17), 3: (5, 6, 7)}[d]
        axes = [np.linspace(1.4 * lo[i] - 0.1, 1.2 * hi[i] + 0.2, k)
                for i, k in enumerate(counts)]
        got = transforms.log_polar_grid(spec, axes)
        want = transforms.log_polar_batch(spec, _mesh(axes))
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert (want > 0.0).any()

    def test_axis_count_checked(self):
        with pytest.raises(InputError):
            transforms.log_polar_grid(log_spec("gaussian", 2), [np.zeros(3)])


class TestSApprox:
    def test_gaussian_point_value(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        fs = transforms.s_approx(g, 2.0)
        # (1 - x^2/(2 s))_+^s at x = 1, s = 2
        assert fm.evaluate(fs, np.array([1.0])) == pytest.approx(0.5625)

    def test_pointwise_monotone_convergence(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        x = np.array([1.3])
        vals = [fm.evaluate(transforms.s_approx(g, s), x) for s in (2.0, 8.0, 32.0)]
        target = fm.evaluate(g, x)
        gaps = [abs(v - target) for v in vals]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-2

    def test_convergence_study_columns(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 1.0))
        rows = transforms.convergence_study(g, [(0.5,)], [4.0, 16.0])
        assert len(rows) == 2
        for r in rows:
            for key in ("s", "x", "L_s_value", "L_inf_value", "gap",
                        "mahler_s", "mahler_inf"):
                assert key in r

    @pytest.mark.parametrize("c, sigma, x", [(0.35, 0.7, 1.2), (-0.45, 1.3, -0.6),
                                             (0.1, 0.6, -1.6)])
    def test_convergence_gaps_do_not_grow(self, c, sigma, x):
        # log_approx of an off-centre Gaussian along s = 4 ... 256: L_s f_s(x/s)
        # approaches L_inf f(x) = exp(-c x - sigma^2 x^2 / 2), and the gaps
        # shrink down to the accuracy of an s-polar value
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((c,), sigma))
        rows = transforms.convergence_study(g, [(x,)], [4.0, 16.0, 64.0, 256.0])
        assert all("warning" not in r for r in rows)
        linf = math.exp(-c * x - 0.5 * sigma**2 * x * x)
        for r in rows:
            assert r["L_inf_value"] == pytest.approx(linf, rel=1e-6)
        gaps = [r["gap"] for r in rows]
        assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2 * linf
