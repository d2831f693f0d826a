"""Tests of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that the benchmark is transparent to the program: inputs depend on
the seed alone, and installing the span tracer changes no op result.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import workloads as wl
from run import percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH_DIR]),
           OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _digest_in_subprocess(workload, seed):
    code = ("import workloads as wl; "
            f"print(wl.inputs_digest(*wl.generate({workload!r}, {seed}, 3)))")
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_two_invocations_generate_identical_inputs(workload):
    first = _digest_in_subprocess(workload, 11)
    assert first == _digest_in_subprocess(workload, 11)
    assert first != _digest_in_subprocess(workload, 12)


def test_every_cycle_has_the_same_mix():
    for workload in wl.WORKLOADS:
        n = wl.cycle_length(workload)
        _, ops = wl.generate(workload, 5, 3)
        slots = [sorted(op["slot"] for op in ops[k * n:(k + 1) * n])
                 for k in range(3)]
        assert slots[0] == slots[1] == slots[2]


def _worker(tmp_path, workload, mode, tag, **kw):
    out = tmp_path / f"{tag}.json"
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
           "--seed", "3", "--mode", mode, "--root", ROOT, "--out", str(out),
           "--spawned", repr(time.time())]
    for key, val in kw.items():
        cmd += [f"--{key.replace('_', '-')}", str(val)]
    subprocess.run(cmd, env=ENV, check=True, timeout=600)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_reproduces_untraced_results_bit_for_bit(tmp_path, workload):
    plain = _worker(tmp_path, workload, "timed", "plain", seconds=0, min_ops=1)
    traced = _worker(tmp_path, workload, "replay", "traced", ops=len(plain["records"]),
                     trace=1)
    assert len(plain["records"]) == wl.cycle_length(workload)
    assert [r["result"] for r in plain["records"]] == [r["result"] for r in traced["records"]]
    assert plain["inputs_sha256"] == traced["inputs_sha256"]
    assert sum(v for k, v in traced["layers"].items() if k.endswith(".calls")) > 0


def test_tracer_uninstall_restores_every_binding():
    import polarlab
    from polarlab import integration, lifting, polar_integrals, suites
    import tracer as tracing

    before = (integration.integrate_grid, polar_integrals.integrate_grid,
              polarlab.integrate_grid, lifting.LiftedBody.support_batch,
              polar_integrals.SphereQuadrature.__dict__["build"], suites.run_suite)
    t = tracing.Tracer().install()
    assert polar_integrals.integrate_grid is integration.integrate_grid
    assert integration.integrate_grid is not before[0]
    polar_integrals.SphereQuadrature.build(1, 2.0)
    t.uninstall()
    after = (integration.integrate_grid, polar_integrals.integrate_grid,
             polarlab.integrate_grid, lifting.LiftedBody.support_batch,
             polar_integrals.SphereQuadrature.__dict__["build"], suites.run_suite)
    assert all(a is b for a, b in zip(before, after))
    assert [sp.name for sp in t.spans] == ["polar_integrals.SphereQuadrature.build"]


def test_failed_ops_rank_slower_than_every_success():
    recs = [{"latency": 0.1 * k, "ok": True} for k in range(1, 10)]
    recs.append({"latency": 0.05, "ok": False})
    assert percentile(recs, 0.5) == pytest.approx(0.5)
    assert percentile(recs, 0.9) == pytest.approx(0.9)
    assert percentile(recs, 1.0) == pytest.approx(0.9)  # the slowest latency of the run


def test_known_defect_beyond_its_measured_size_is_unexpected():
    assert wl._known("d3-off-centre", 1e-4) == "d3-off-centre"
    assert wl._known("d3-off-centre", 1.0).startswith("unexpected")
    assert wl._known("hyperplane-off-origin", 1.5) == "hyperplane-off-origin"
    assert wl._known("hyperplane-off-origin", 5.0).startswith("unexpected")


def test_verify_cases_are_labelled_by_their_size():
    mahler = {"name": "mahler_lift_identity", "lhs": 2.1978, "rhs": 2.2180,
              "slack": -0.0088}  # 5.3 standard errors, the worst seen
    assert wl._verify_case_label(mahler) == "verify-monte-carlo-tail"
    assert wl._verify_case_label(dict(mahler, rhs=2.5, slack=-0.29)).startswith("unexpected")
    lift = {"name": "integer_lift_ball_d2_s2", "slack": -3.2e-5, "sigma": 0.0039}
    assert wl._verify_case_label(lift) == "verify-monte-carlo-tail"
    assert wl._verify_case_label(dict(lift, slack=-0.1)).startswith("unexpected")
    assert wl._verify_case_label({"name": "lift_hhat_unit_ball", "slack": -5e-8}) \
        == "verify-lift-support-seed"
    assert wl._verify_case_label({"name": "lift_hhat_unit_ball", "slack": -4e-4}) \
        .startswith("unexpected")
    assert wl._verify_case_label({"name": "self_polar_finite_d1_s0.5", "slack": -4e-4}) \
        == "verify-minimizer-seed"
    assert wl._verify_case_label({"name": "odd_case", "slack": -1e-9}).startswith("unexpected")
