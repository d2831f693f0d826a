import json
import math

import pytest
from click.testing import CliRunner

from polarlab import cli


HHAT2 = json.dumps({"dimension": 1, "class": {"s": 2},
                    "family": {"kind": "hhat_power", "s_exponent": 2}})
BOX1 = json.dumps({"dimension": 1, "class": {"s": 1},
                   "family": {"kind": "polytope_indicator",
                              "vertices": [[-1.0], [1.0]]}})
GAUSS1 = json.dumps({"dimension": 1, "class": "log",
                     "family": {"kind": "gaussian", "center": [0.0],
                                "sigma": 1.0}})
GRID2 = json.dumps({"dimension": 2, "class": {"s": 1},
                    "family": {"kind": "grid_profile", "origin": [-1.0, -1.0],
                               "spacing": 1.0,
                               "values": [[0.5, 0.75, 0.5], [0.75, 1.0, 0.75],
                                          [0.5, 0.75, 0.5]]}})
# (1 - |x|^2)_+ on a 9 x 9 grid over [-1, 1]^2, s = 2, shifted by (0.5, -0.25)
_X = [-1.0 + 0.25 * i for i in range(9)]
_POOL_GRID2 = {"dimension": 2, "class": {"s": 2},
               "family": {"kind": "grid_profile", "origin": [-1.0, -1.0], "spacing": 0.25,
                          "values": [[max(0.0, 1.0 - a * a - b * b) for b in _X]
                                     for a in _X]}}
SHIFTED_GRID2 = json.dumps({"dimension": 2, "class": {"s": 2},
                            "family": {"kind": "shifted", "inner": _POOL_GRID2,
                                       "offset": [0.5, -0.25]}})


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def specs(tmp_path):
    paths = {}
    for name, text in (("hhat2", HHAT2), ("box1", BOX1), ("gauss1", GAUSS1),
                       ("grid2", GRID2), ("shifted_grid2", SHIFTED_GRID2)):
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestCommands:
    def test_eval(self, runner, specs):
        r = runner.invoke(cli.main, ["eval", "--spec", specs["hhat2"], "--z", "0"])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(1.0)

    def test_eval_grid_d2(self, runner, specs):
        r = runner.invoke(cli.main, ["eval", "--spec", specs["grid2"], "--z", "0,1"])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(0.75)

    def test_phi_kappa_anchor(self, runner, specs):
        r = runner.invoke(cli.main, ["phi", "--spec", specs["hhat2"],
                                     "--s", "2", "--z", "0"])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_polar_inf(self, runner, specs):
        r = runner.invoke(cli.main, ["polar", "--spec", specs["gauss1"],
                                     "--s", "inf", "--z", "0.5"])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(
            math.exp(-0.125), rel=1e-6)

    def test_integrate(self, runner, specs):
        r = runner.invoke(cli.main, ["integrate", "--spec", specs["box1"]])
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == pytest.approx(2.0, rel=1e-10)

    def test_region_closed_form(self, runner, specs):
        r = runner.invoke(cli.main, ["region", "--spec", specs["box1"],
                                     "--s", "1", "--t", "2", "--rays", "2"])
        assert r.exit_code == 0
        radii = json.loads(r.output)["radii"]
        want = math.sqrt(1.0 - 4.0 / math.pi**2)
        assert radii[0] == pytest.approx(want, abs=1e-4)

    def test_santalo_point(self, runner, specs):
        r = runner.invoke(cli.main, ["santalo-point", "--spec", specs["hhat2"],
                                     "--s", "2"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert abs(out["z_star"][0]) <= 1e-8
        assert out["converged"]

    def test_santalo_point_shifted_grid(self, runner, specs):
        r = runner.invoke(cli.main, ["santalo-point", "--spec", specs["shifted_grid2"],
                                     "--s", "2"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["z_star"] == pytest.approx([0.5, -0.25], abs=1e-8)
        assert out["converged"]

    def test_santalo_hyperplane(self, runner, specs):
        r = runner.invoke(cli.main, ["santalo-point", "--spec", specs["box1"],
                                     "--s", "1", "--hyperplane", "1,0.5"])
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["lambda"] == pytest.approx(0.25, abs=1e-6)
        assert out["pass"]

    def test_convergence_csv(self, runner, specs):
        r = runner.invoke(cli.main, ["convergence", "--spec", specs["gauss1"],
                                     "--z", "0.5", "--s-schedule", "4,16",
                                     "--format", "csv"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0].split(",")[:3] == ["s", "x1", "L_s_value"]
        assert len(lines) == 3


class TestExitCodes:
    def test_schema_violation_is_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 0}))
        r = runner.invoke(cli.main, ["eval", "--spec", str(bad), "--z", "0"])
        assert r.exit_code == 2

    def test_dimension_mismatch_is_2(self, runner, specs):
        r = runner.invoke(cli.main, ["eval", "--spec", specs["hhat2"],
                                     "--z", "0,0"])
        assert r.exit_code == 2

    def test_bad_s_is_2(self, runner, specs):
        r = runner.invoke(cli.main, ["phi", "--spec", specs["hhat2"],
                                     "--s", "-1", "--z", "0"])
        assert r.exit_code == 2
        for schedule in ("a,4", ""):
            r = runner.invoke(cli.main, ["convergence", "--spec", specs["gauss1"],
                                         "--z", "0", "--s-schedule", schedule])
            assert r.exit_code == 2
            assert "--s-schedule" in json.loads(r.stderr)["error"]

    @pytest.mark.parametrize("rays", ["0", "-3"])
    def test_ray_count_below_1_is_2(self, runner, specs, rays):
        r = runner.invoke(cli.main, ["region", "--spec", specs["grid2"], "--s", "1",
                                     "--t", "1.5", "--rays", rays])
        assert r.exit_code == 2
        assert "--rays" in json.loads(r.stderr)["error"]

    @pytest.mark.parametrize("args", [["santalo-point"], ["phi", "--z", "0"],
                                      ["phi", "--z", "0", "--oracle"]])
    def test_unbounded_support_at_finite_s_is_2(self, runner, specs, args):
        # on R^d the s-polar is 0 off y = 0: no Phi to take
        r = runner.invoke(cli.main, [args[0], "--spec", specs["gauss1"], "--s", "1",
                                     *args[1:]])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("d,family,path", [
        (2, {"kind": "grid_profile", "origin": [0.0, 0.0], "spacing": 1.0,
             "values": [[0, 1, 0], [1, 1]]}, "/family/values"),
        (1, {"kind": "grid_profile", "origin": [0.0], "spacing": 1.0,
             "values": ["a", 1, 1]}, "/family/values"),
        (2, {"kind": "polytope_indicator", "vertices": [[0, 0], [1, 0], [0]]},
         "/family/vertices"),
        (1, {"kind": "ball_indicator", "center": [0.0], "radius": 10**400},
         "/family/radius"),
    ])
    def test_malformed_array_or_number_is_2(self, runner, tmp_path, d, family, path):
        # schema-valid JSON that no float array or number holds
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dimension": d, "class": {"s": 1}, "family": family}))
        r = runner.invoke(cli.main, ["eval", "--spec", str(p), "--z", ",".join(["0"] * d)])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert [v["path"] for v in json.loads(r.stderr)["violations"]] == [path]

    def test_dimension_above_3_is_2(self, runner, tmp_path):
        p = tmp_path / "d4.json"
        p.write_text(json.dumps({"dimension": 4, "class": {"s": 2},
                                 "family": {"kind": "hhat_power", "s_exponent": 2}}))
        r = runner.invoke(cli.main, ["integrate", "--spec", str(p)])
        assert r.exit_code == 2
        assert [v["path"] for v in json.loads(r.stderr)["violations"]] == ["/dimension"]

    def test_phi_oracle_at_inf_is_2(self, runner, specs):
        r = runner.invoke(cli.main, ["phi", "--spec", specs["gauss1"], "--s", "inf",
                                     "--z", "0", "--oracle"])
        assert r.exit_code == 2
        assert "finite s" in json.loads(r.stderr)["error"]

    @pytest.mark.parametrize("args", [["phi", "--z", "0"], ["polar", "--z", "0.5"],
                                      ["santalo-point"], ["region", "--t", "1.5"]])
    def test_inf_on_a_spec_that_is_not_log_concave_is_2(self, runner, specs, args):
        r = runner.invoke(cli.main, [args[0], "--spec", specs["hhat2"], "--s", "inf",
                                     *args[1:]])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.output
        assert "log-concave" in json.loads(r.stderr)["error"]

    def test_phi_outside_support_is_1(self, runner, specs):
        r = runner.invoke(cli.main, ["phi", "--spec", specs["box1"],
                                     "--s", "1", "--z", "1.5"])
        assert r.exit_code == 1

    def test_failing_suite_is_3(self, runner, monkeypatch):
        def fake_suite(name, seed=0):
            return {"suite": name, "seed": seed, "passed": 0, "failed": 1,
                    "worst_slack": -1.0,
                    "cases": [{"name": "x", "pass": False, "slack": -1.0}]}
        monkeypatch.setattr(cli.suites, "run_suite", fake_suite)
        r = runner.invoke(cli.main, ["verify", "--suite", "onedim"])
        assert r.exit_code == 3


class TestDeterminism:
    def test_verify_jsonl_byte_identical(self, runner, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"rep{i}.jsonl"
            r = runner.invoke(cli.main, ["verify", "--suite", "onedim",
                                         "--seed", "7", "--out", str(out)])
            assert r.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_region_report_byte_identical(self, runner, specs, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"region{i}.json"
            r = runner.invoke(cli.main, ["region", "--spec", specs["hhat2"], "--s", "2",
                                         "--t", "1.5", "--rays", "2", "--out", str(out)])
            assert r.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        # the centre, then per ray at most the 25 of a bisection to tol
        assert 1 < rep["evaluations"] <= 1 + 25 * len(rep["radii"])

    def test_phi_inf_report_byte_identical(self, runner, specs, tmp_path):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"phi{i}.json"
            r = runner.invoke(cli.main, ["phi", "--spec", specs["gauss1"], "--s", "inf",
                                         "--z", "0.25", "--out", str(out)])
            assert r.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        # the report of finite s
        assert set(rep) == {"op", "s", "z", "value", "gradient", "method", "nodes",
                            "err_est"}
        assert rep["method"] == "log-grid" and rep["err_est"] is None
        assert rep["nodes"] > 0

    def test_env_seed_default(self, runner, specs, monkeypatch, tmp_path):
        monkeypatch.setenv("POLARLAB_SEED", "12345")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            r = runner.invoke(cli.main, ["convergence", "--spec", specs["gauss1"],
                                         "--s-schedule", "4", "--out", str(path)])
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
