"""Schema fuzz: random spec documents over every family, nested up to two
wrappers deep, through the JSON codec and the `eval`, `integrate` and `polar`
commands."""

import json

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarlab import cli
from polarlab import funcmodel as fm
from polarlab.errors import InputError

# vector entries: floats, with a few ints, which the codec keeps as ints
_COORD = st.one_of(st.floats(-0.6, 0.6), st.integers(-1, 1))
_S = st.floats(0.5, 5.0)


def _vec(d):
    return st.lists(_COORD, min_size=d, max_size=d)


def _float(lo, hi):
    # one in ten: an integer past the float range, which JSON allows
    return st.integers(0, 9).flatmap(
        lambda k: st.just(10**400) if k == 0 else st.floats(lo, hi))


@st.composite
def _grid(draw, d):
    shape = draw(st.lists(st.integers(2, 4), min_size=d, max_size=d))
    size = int(np.prod(shape))
    # one node in five is 0, so that some supports break apart
    node = st.integers(0, 4).flatmap(lambda k: st.just(0.0) if k == 0 else st.floats(0.05, 1.0))
    flat = draw(st.lists(node, min_size=size, max_size=size))
    values = np.reshape(flat, shape).tolist()
    broken = draw(st.sampled_from(["", "", "", "", "ragged", "text"]))
    if broken == "text":  # a string among the numbers
        leaf = values
        while isinstance(leaf[0], list):
            leaf = leaf[0]
        leaf[0] = "a"
    elif broken == "ragged":  # one row short, or a row among the numbers
        if d == 1:
            values[0] = [values[0]]
        else:
            values[-1] = values[-1][:-1]
    return {"kind": "grid_profile", "origin": draw(_vec(d)),
            "spacing": draw(st.floats(0.1, 1.0)), "values": values}


@st.composite
def _polytope(draw, d):
    n = draw(st.integers(d + 1, 2 * d + 2))
    V = [draw(_vec(d)) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:  # one vertex of the wrong length
        V[-1] = V[-1][:-1] if d > 1 else V[-1] + [0.0]
    return {"kind": "polytope_indicator", "vertices": V}


def _leaf(d, log):
    families = [
        st.builds(lambda c, r: {"kind": "ball_indicator", "center": c, "radius": r},
                  _vec(d), _float(0.2, 2.0)),
        _polytope(d),
        st.builds(lambda e: {"kind": "hhat_power", "s_exponent": e}, _float(0.1, 6.0)),
        st.builds(lambda c, g: {"kind": "gaussian", "center": c, "sigma": g},
                  _vec(d), _float(0.3, 2.0)),
        st.builds(lambda a: {"kind": "exp_neg_norm", "scale": a}, _float(0.3, 3.0)),
        _grid(d),
    ]
    cls = st.just("log") if log else st.builds(lambda s: {"s": s}, _S)
    return st.builds(lambda f, c: {"dimension": d, "class": c, "family": f},
                     st.one_of(families), cls)


def _spec(d, log, depth):
    """A document of dimension d and class log (or s-concave), at most depth
    wrappers deep."""
    if depth == 0:
        return _leaf(d, log)
    shifted = _spec(d, log, depth - 1).flatmap(lambda inner: st.builds(
        lambda off: {"dimension": d, "class": inner["class"],
                     "family": {"kind": "shifted", "inner": inner, "offset": off}},
        _vec(d)))
    options = [_leaf(d, log), shifted]
    if not log:
        options.append(st.tuples(_spec(d, True, depth - 1), _S).map(
            lambda p: {"dimension": d, "class": {"s": p[1]},
                       "family": {"kind": "log_approx", "inner": p[0], "s": p[1]}}))
    return st.one_of(options)


docs = st.tuples(st.integers(1, 3), st.booleans()).flatmap(lambda p: _spec(*p, 2))


@given(doc=docs, point=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_schema_fuzz(doc, point, tmp_path_factory):
    text = json.dumps(doc)
    try:
        spec = fm.spec_from_json(text)
    except InputError:
        spec = None
    if spec is not None:
        # each field is written as it was read: the document comes back
        encoded = fm.spec_to_json(spec)
        assert encoded == json.dumps(doc, sort_keys=True)
        assert fm.spec_to_json(fm.spec_from_json(encoded)) == encoded

    path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
    path.write_text(text)
    z = point[:doc["dimension"]]
    r = CliRunner().invoke(cli.main, ["eval", "--spec", str(path),
                                      "--z", ",".join(map(repr, z))])
    assert r.exception is None or isinstance(r.exception, SystemExit), r.output
    if spec is None:
        assert r.exit_code == 2
    else:
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["value"] == fm.evaluate(spec, z)
        s = "inf" if spec.is_log_concave else repr(spec.class_s)
        for args in (["integrate", "--grid", "16"],
                     ["polar", "--s", s, "--z", ",".join(map(repr, z))]):
            r = CliRunner().invoke(cli.main, args + ["--spec", str(path)])
            assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.output)
            assert r.exit_code in (0, 1, 2), (args, r.output)
