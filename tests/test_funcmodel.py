import json
import math

import numpy as np
import pytest

from polarlab import funcmodel as fm
from polarlab import integration, santalo, transforms
from polarlab import polar_integrals as pint
from polarlab.errors import InputError, NumericError


def hhat_spec(d, s):
    return fm.FunctionSpec(d, fm.SConcave(s), fm.HhatPower(s))


# f = 1 - |x|^2 / 4 at the nodes of {-1, 0, 1}^2, s = 1
GRID2 = {"dimension": 2, "class": {"s": 1},
         "family": {"kind": "grid_profile", "origin": [-1.0, -1.0], "spacing": 1.0,
                    "values": [[0.5, 0.75, 0.5], [0.75, 1.0, 0.75], [0.5, 0.75, 0.5]]}}


class TestEvaluate:
    def test_hhat_closed_form(self):
        spec = hhat_spec(2, 2.0)
        x = np.array([0.3, 0.4])
        assert fm.evaluate(spec, x) == pytest.approx(1.0 - 0.25)

    def test_ball_indicator(self):
        spec = fm.FunctionSpec(1, fm.SConcave(1.0), fm.BallIndicator((0.5,), 1.0))
        assert fm.evaluate(spec, np.array([1.4])) == 1.0
        assert fm.evaluate(spec, np.array([1.6])) == 0.0

    def test_polytope_indicator(self):
        tri = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))))
        assert fm.evaluate(tri, np.array([0.5, 0.5])) == 1.0
        assert fm.evaluate(tri, np.array([1.5, 1.5])) == 0.0

    def test_gaussian(self):
        g = fm.FunctionSpec(1, fm.LogConcave(), fm.Gaussian((0.0,), 2.0))
        assert fm.evaluate(g, np.array([2.0])) == pytest.approx(math.exp(-0.5))

    def test_shifted(self):
        base = hhat_spec(1, 2.0)
        sh = fm.FunctionSpec(1, fm.SConcave(2.0), fm.Shifted(base, (0.3,)))
        x = np.array([0.5])
        assert fm.evaluate(sh, x) == pytest.approx(fm.evaluate(base, x - 0.3))

    def test_grid_profile_d2(self):
        spec = fm.spec_from_json(json.dumps(GRID2))
        assert fm.evaluate(spec, np.array([0.0, 1.0])) == pytest.approx(0.75)
        # Kuhn simplex (0,0), (1,0), (1,1) with weights 0.5, 0.25, 0.25
        assert fm.evaluate(spec, np.array([0.5, 0.25])) == pytest.approx(0.8125)

    def test_batch_matches_scalar(self):
        spec = hhat_spec(2, 1.0)
        X = np.random.default_rng(0).uniform(-1.2, 1.2, size=(40, 2))
        vals = fm.evaluate_batch(spec, X)
        for x, v in zip(X, vals):
            assert v == pytest.approx(fm.evaluate(spec, x))


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(InputError):
            fm.FunctionSpec(0, fm.SConcave(1.0), fm.HhatPower(1.0))

    def test_dimension_above_3(self):
        # the per-dimension tables (sphere areas, grid resolutions) stop at 3
        with pytest.raises(InputError):
            fm.FunctionSpec(4, fm.SConcave(2.0), fm.HhatPower(2.0))

    @pytest.mark.parametrize("family", [
        fm.PolytopeIndicator(((0.0, 0.0), (1.0, 0.0), (0.0,))),  # ragged
        fm.BallIndicator((10**400, 0.0), 1.0),  # past the float range
        fm.BallIndicator((math.inf, 0.0), 1.0),
        fm.BallIndicator((0.0, math.nan), 1.0),
    ])
    def test_malformed_numbers(self, family):
        with pytest.raises(InputError):
            fm.FunctionSpec(2, fm.SConcave(1.0), family)

    @pytest.mark.parametrize("x", [(math.nan, 0.0), (0.0, -math.inf), (0.0,)])
    def test_malformed_point(self, x):
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.0, 0.0), 1.0))
        with pytest.raises(InputError):
            fm.conv_support_contains(spec, x)

    def test_bad_s(self):
        with pytest.raises(InputError):
            fm.FunctionSpec(1, fm.SConcave(-1.0), fm.HhatPower(1.0))

    def test_degenerate_polytope(self):
        with pytest.raises(InputError):
            fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
                ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))))

    def test_grid_profile_disconnected(self):
        vals = np.zeros(9)
        vals[0] = 1.0
        vals[8] = 1.0
        with pytest.raises(InputError):
            fm.FunctionSpec(1, fm.SConcave(1.0),
                            fm.GridProfile((0.0,), 0.25, vals))

    def test_concavity_detection(self):
        t = np.linspace(-1.0, 1.0, 33)
        good = np.maximum(0.0, 1.0 - t * t)
        bad = np.maximum(0.0, np.abs(t) * (1.0 - np.abs(t))) + (np.abs(t) < 0.6)
        spec_good = fm.FunctionSpec(1, fm.SConcave(1.0),
                                    fm.GridProfile((-1.0,), 2.0 / 32.0, good))
        assert fm.validate_concavity(spec_good, 200, seed=0).ok
        spec_bad = fm.FunctionSpec(1, fm.SConcave(1.0),
                                   fm.GridProfile((-1.0,), 2.0 / 32.0, bad))
        assert not fm.validate_concavity(spec_bad, 200, seed=0).ok


def _box_vertices(d):
    corners = np.stack(np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij"),
                       axis=-1).reshape(-1, d)
    return corners * np.array([1.0, 0.75, 1.25])[:d]


def _grid(d, cls, origin):
    x = np.linspace(-1.0, 1.0, 9)
    r2 = sum(m * m for m in np.meshgrid(*([x] * d), indexing="ij"))
    return fm.FunctionSpec(d, cls, fm.GridProfile(tuple(origin), 0.25,
                                                  np.maximum(0.0, 1.0 - r2)))


def geometry_case(name, d):
    """(spec, a point on the boundary of its truncated convex support)."""
    e0 = np.eye(d)[0]
    off = np.array([0.5, -0.25, 0.125])[:d]
    if name == "ball":
        c = np.full(d, 0.25)
        return fm.FunctionSpec(d, fm.SConcave(1.0), fm.BallIndicator(tuple(c), 1.0)), c + e0
    if name == "shifted-ball":
        inner = fm.FunctionSpec(d, fm.SConcave(1.0), fm.BallIndicator((0.0,) * d, 1.0))
        return fm.FunctionSpec(d, fm.SConcave(1.0), fm.Shifted(inner, tuple(off))), off + e0
    if name in ("box", "simplex"):
        V = _box_vertices(d) if name == "box" else np.vstack(
            [np.full(d, -0.5), 1.5 * np.eye(d) - 0.5])
        spec = fm.FunctionSpec(d, fm.SConcave(1.0), fm.PolytopeIndicator(tuple(map(tuple, V))))
        return spec, V[-1]
    if name == "grid":
        return _grid(d, fm.SConcave(2.0), [-1.0] * d), e0
    if name == "log-grid":
        return _grid(d, fm.LogConcave(), [-1.0] * d), 0.75 * e0
    if name == "shifted-grid":
        inner = _grid(d, fm.SConcave(2.0), [-1.0] * d)
        return fm.FunctionSpec(d, fm.SConcave(2.0), fm.Shifted(inner, tuple(off))), off + e0
    if name == "fs-grid":
        # log f > -1 at the nodes with |x|^2 <= 0.625, and f = 0 at |x| = 1
        return transforms.s_approx(_grid(d, fm.LogConcave(), [-1.0] * d), 1.0), 0.75 * e0
    if name == "fs-box":
        V = _box_vertices(d)
        inner = fm.FunctionSpec(d, fm.LogConcave(), fm.PolytopeIndicator(tuple(map(tuple, V))))
        return transforms.s_approx(inner, 2.0), V[-1]
    gauss = fm.FunctionSpec(d, fm.LogConcave(), fm.Gaussian((0.0,) * d, 1.0))
    spec = fm.FunctionSpec(d, fm.SConcave(2.0), fm.LogApprox(gauss, 2.0))
    return spec, fm.support_box(spec)[1][0] * e0


GEOMETRY_CASES = (
    [(name, d) for name in ("ball", "shifted-ball", "box", "simplex", "fs-gaussian")
     for d in (1, 2, 3)]
    + [("grid", 1), ("grid", 2), ("log-grid", 2), ("shifted-grid", 2),
       ("fs-grid", 1), ("fs-grid", 2), ("fs-box", 2)]
)


class TestGeometry:
    def test_axis_extents_ball(self):
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.BallIndicator((0.5, 0.0), 1.0))
        rm, rp = fm.axis_extents(spec, np.zeros(2))
        assert rm[0] == pytest.approx(0.5)
        assert rp[0] == pytest.approx(1.5)

    def test_support_ray_extent_box(self):
        spec = fm.FunctionSpec(2, fm.SConcave(1.0), fm.PolytopeIndicator(
            ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))))
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert fm.support_ray_extent(spec, np.zeros(2), u) == pytest.approx(
            math.sqrt(2.0))

    def test_barycenter_shifted_ball(self):
        spec = fm.FunctionSpec(1, fm.SConcave(1.0), fm.BallIndicator((0.7,), 0.5))
        assert fm.barycenter(spec).vector[0] == pytest.approx(0.7, abs=1e-9)

    def test_log_approx_of_a_bounded_profile(self):
        # f_s = (1 + log f / s)_+^s of hhat^e vanishes where (1 - |x|^2)^(e/2)
        # drops to e^{-s}, inside the support of hhat
        inner = fm.FunctionSpec(2, fm.LogConcave(), fm.HhatPower(2.0))
        spec = transforms.s_approx(inner, 3.0)
        r = math.sqrt(1.0 - math.exp(-3.0))
        assert spec.support.radius == pytest.approx(r, rel=1e-14)
        assert fm.evaluate(spec, np.array([0.99, 0.0])) == 0.0
        assert not fm.conv_support_contains(spec, (0.99, 0.0))
        lo, hi = fm.support_box(spec)
        np.testing.assert_allclose(hi, [r, r], rtol=1e-14)
        np.testing.assert_allclose(lo, [-r, -r], rtol=1e-14)

    def test_log_approx_of_a_ball_keeps_its_radius(self):
        inner = fm.FunctionSpec(2, fm.LogConcave(), fm.BallIndicator((0.1, 0.2), 1.3))
        assert transforms.s_approx(inner, 2.0).support.radius == 1.3

    def test_empty_log_approx_support(self):
        # log f <= -1 at every node: f_s = (1 + log f)_+ vanishes everywhere
        inner = fm.FunctionSpec(1, fm.LogConcave(), fm.GridProfile(
            (0.0,), 1.0, np.array([0.2, 0.3, 0.2])))
        with pytest.raises(InputError):
            fm.support_box(transforms.s_approx(inner, 1.0))

    @pytest.mark.parametrize("name,d", GEOMETRY_CASES)
    def test_support_geometry(self, name, d):
        spec, boundary = geometry_case(name, d)
        X = fm.support_samples(spec, 400, seed=d)
        z = X.mean(axis=0)  # interior: the support is convex with nonempty interior
        rm, rp = fm.axis_extents(spec, z)
        for i, e in enumerate(np.eye(d)):
            assert rp[i] == fm.support_ray_extent(spec, z, e)
            assert rm[i] == fm.support_ray_extent(spec, z, -e)
        assert all(fm.conv_support_contains(spec, x) for x in X)
        Y = np.random.default_rng(d).normal(size=(50, d))
        h = fm.supp_support_function(spec, Y)
        assert np.all(h[:, None] >= Y @ X.T - 1e-12)
        for outside in (boundary, z + 1.5 * (boundary - z)):
            with pytest.raises(NumericError):
                fm.axis_extents(spec, outside)


class TestJson:
    def test_round_trip(self):
        spec = hhat_spec(2, 2.0)
        back = fm.spec_from_json(fm.spec_to_json(spec))
        assert back.dimension == 2
        X = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
        np.testing.assert_allclose(fm.evaluate_batch(back, X),
                                   fm.evaluate_batch(spec, X))

    def test_examples_from_schema(self):
        spec = fm.spec_from_json(json.dumps({
            "dimension": 1, "class": {"s": 2},
            "family": {"kind": "hhat_power", "s_exponent": 2}}))
        assert isinstance(spec.family, fm.HhatPower)
        spec2 = fm.spec_from_json(json.dumps({
            "class": "log", "dimension": 1,
            "family": {"kind": "gaussian", "center": [0], "sigma": 1}}))
        assert isinstance(spec2.family, fm.Gaussian)

    def test_missing_dimension_path(self):
        with pytest.raises(InputError) as exc:
            fm.spec_from_json(json.dumps({
                "class": {"s": 1},
                "family": {"kind": "hhat_power", "s_exponent": 1}}))
        paths = [v["path"] for v in exc.value.violations]
        assert any("dimension" in p or p == "/" for p in paths)

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError):
            fm.spec_from_json(json.dumps({
                "dimension": 1, "class": {"s": 1}, "extra": 1,
                "family": {"kind": "hhat_power", "s_exponent": 1}}))

    def test_invalid_json(self):
        with pytest.raises(InputError):
            fm.spec_from_json("{not json")


class TestSharedSpecs:
    """spec_from_json interns documents by their exact text; what a shared
    spec holds cannot be written in place."""

    DOC = {"dimension": 2, "class": {"s": 2.0},
           "family": {"kind": "hhat_power", "s_exponent": 2.0}}

    def test_same_text_same_spec(self):
        text = json.dumps(self.DOC)
        assert fm.spec_from_json(text) is fm.spec_from_json(text)

    def test_reordered_keys_parse_afresh(self):
        a = fm.spec_from_json(json.dumps(self.DOC))
        b = fm.spec_from_json(json.dumps(dict(reversed(self.DOC.items()))))
        assert a is not b
        assert fm.spec_to_json(a) == fm.spec_to_json(b)
        X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(20, 2))
        np.testing.assert_array_equal(fm.evaluate_batch(a, X), fm.evaluate_batch(b, X))

    def test_bad_document_is_not_kept(self):
        text = json.dumps(dict(self.DOC, dimension=4))
        for _ in range(2):
            with pytest.raises(InputError):
                fm.spec_from_json(text)

    def test_table_is_bounded(self):
        def doc(k):
            return json.dumps(dict(self.DOC, family={"kind": "hhat_power",
                                                     "s_exponent": 1.0 + k}))

        first = fm.spec_from_json(doc(0))
        for k in range(1, 18):
            fm.spec_from_json(doc(k))
        assert fm.spec_from_json.cache_info().currsize <= 16
        assert fm.spec_from_json(doc(0)) is not first

    def test_shared_arrays_are_read_only(self):
        vals = np.array(_grid(2, fm.SConcave(2.0), (-1.0, -1.0)).family.values)
        direct = fm.FunctionSpec(2, fm.SConcave(2.0), fm.GridProfile((-1.0, -1.0), 0.25, vals))
        spec = fm.spec_from_json(fm.spec_to_json(direct))
        quad = pint.default_quadrature(2, 2.0)
        arrays = {
            "grid values": spec.family.values,
            "node_support": pint.node_support(spec, 2.0, quad),
            "z_star": santalo.santalo_point(spec, 2.0, compute_moment=False).z_star,
            "moment": integration.moment_grid(spec, integration.IntegrationConfig(32))[1],
        }
        for a in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
        # the spec keeps a copy of the caller's grid
        vals[4, 4] = 0.5
        assert fm.evaluate(direct, [0.0, 0.0]) == 1.0
