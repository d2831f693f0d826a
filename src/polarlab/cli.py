"""Command-line interface: parse function specs, dispatch computations, run
verification suites, and emit machine-readable reports.

Exit codes: 0 success, 1 numeric failure, 2 input error, 3 suite failure.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Optional

import click
import numpy as np

from . import funcmodel, integration, lifting, polar_integrals as pint
from . import regions, santalo, suites, transforms
from .errors import InputError, PolarLabError, SuiteFailure


def _default_seed() -> int:
    env = os.environ.get("POLARLAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError("POLARLAB_SEED must be an integer")


def _parse_s(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        s = float(text)
    except ValueError:
        raise InputError(f"--s must be a positive number or 'inf', got {text!r}")
    if not s > 0:
        raise InputError("--s must be positive")
    return s


def _parse_vec(text: str, what: str = "--z") -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise InputError(f"{what} must be a comma-separated vector, got {text!r}")


def _load_spec(path: str) -> funcmodel.FunctionSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc}")
    return funcmodel.spec_from_json(text)


def _grid_cfg(grid: Optional[int]) -> integration.IntegrationConfig:
    return integration.IntegrationConfig(resolution=grid)


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _emit(data, out: Optional[str], fmt: str):
    data = _to_jsonable(data)
    if fmt == "csv":
        rows = data if isinstance(data, list) else [data]
        buf = io.StringIO()
        keys: list = []
        for r in rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in keys})
        text = buf.getvalue()
    else:
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _dispatch(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except SuiteFailure as exc:
            click.echo(f"suite failure: {exc}", err=True)
            sys.exit(3)
        except InputError as exc:
            payload = {"error": str(exc), "violations": exc.violations}
            click.echo(json.dumps(_to_jsonable(payload), sort_keys=True), err=True)
            sys.exit(2)
        except PolarLabError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


spec_opt = click.option("--spec", "spec_path", required=True, type=str,
                        help="Path to a FunctionSpec JSON document.")
s_opt = click.option("--s", "s_text", required=True, type=str,
                     help="Concavity parameter: positive number or 'inf'.")
out_opt = click.option("--out", type=str, default=None,
                       help="Output file (default: stdout).")
fmt_opt = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                       default="json", help="Output format.")
grid_opt = click.option("--grid", type=int, default=None,
                        help="Grid resolution per axis for integrals.")
seed_opt = click.option("--seed", type=int, default=None,
                        help="Random seed (default: POLARLAB_SEED or 0).")


@click.group()
def main():
    """Polar duality transforms, polar integrals, Santalo points and regions."""


@main.command("eval")
@spec_opt
@click.option("--z", "z_text", required=True, type=str, help="Evaluation point.")
@out_opt
@fmt_opt
@_dispatch
def eval_cmd(spec_path, z_text, out, fmt):
    """Evaluate the function at a point."""
    spec = _load_spec(spec_path)
    z = _parse_vec(z_text)
    if z.shape != (spec.dimension,):
        raise InputError(f"--z must have dimension {spec.dimension}")
    _emit({"op": "eval", "z": z, "value": funcmodel.evaluate(spec, z)}, out, fmt)


@main.command("polar")
@spec_opt
@s_opt
@click.option("--z", "z_text", required=True, type=str,
              help="Point y at which to evaluate the polar transform.")
@out_opt
@fmt_opt
@_dispatch
def polar_cmd(spec_path, s_text, z_text, out, fmt):
    """Evaluate the s-polar (or log-polar for s=inf) transform at a point."""
    spec = _load_spec(spec_path)
    s = _parse_s(s_text)
    y = _parse_vec(z_text)
    if y.shape != (spec.dimension,):
        raise InputError(f"--z must have dimension {spec.dimension}")
    if s == math.inf:
        value = transforms.log_polar(spec, y)
    else:
        value = transforms.s_polar(spec, s, y)
    _emit({"op": "polar", "s": s, "y": y, "value": value}, out, fmt)


@main.command("integrate")
@spec_opt
@grid_opt
@out_opt
@fmt_opt
@_dispatch
def integrate_cmd(spec_path, grid, out, fmt):
    """Integrate the function over its support."""
    spec = _load_spec(spec_path)
    value, err = pint.integrate_grid(spec, _grid_cfg(grid))
    _emit({"op": "integrate", "value": value, "error_estimate": err}, out, fmt)


@main.command("phi")
@spec_opt
@s_opt
@click.option("--z", "z_text", required=True, type=str, help="Center z.")
@click.option("--oracle", is_flag=True, default=False,
              help="Use the brute-force grid oracle (finite s) instead of the sphere rule.")
@grid_opt
@out_opt
@fmt_opt
@_dispatch
def phi_cmd(spec_path, s_text, z_text, oracle, grid, out, fmt):
    """Integral of the polar of the shifted function, Phi(z): the spherical
    formula with its doubled-rule error estimate at finite s, the log-polar
    grid (no error estimate) at s = inf."""
    spec = _load_spec(spec_path)
    s = _parse_s(s_text)
    z = _parse_vec(z_text)
    if z.shape != (spec.dimension,):
        raise InputError(f"--z must have dimension {spec.dimension}")
    if oracle:
        res = pint.phi_oracle(spec, s, z, _grid_cfg(grid))
    else:
        res = pint.phi(spec, s, z, _grid_cfg(grid), error_estimate=True)
    _emit({"op": "phi", "s": s, "z": z, **res.to_json_dict()}, out, fmt)


@main.command("santalo-point")
@spec_opt
@s_opt
@click.option("--hyperplane", "hyp_text", type=str, default=None,
              help="a1,...,ad,c for the constrained construction on {a.z = c}.")
@click.option("--lambda", "lam", type=float, default=None,
              help="Mass split to report against the two-sided bound.")
@grid_opt
@out_opt
@fmt_opt
@_dispatch
def santalo_point_cmd(spec_path, s_text, hyp_text, lam, grid, out, fmt):
    """Santalo point of the function, or the hyperplane construction."""
    spec = _load_spec(spec_path)
    s = _parse_s(s_text)
    cfg = _grid_cfg(grid)
    if hyp_text is not None:
        parts = _parse_vec(hyp_text, "--hyperplane")
        if parts.shape != (spec.dimension + 1,):
            raise InputError("--hyperplane needs d normal entries and an offset")
        H = santalo.Hyperplane.of(parts[:-1], float(parts[-1]))
        rep = santalo.verify_santalo(spec, s, H, cfg)
        if lam is not None and abs(lam - rep["lambda"]) > 1e-6:
            rep["lambda_requested"] = lam
        _emit({"op": "santalo-point", **rep}, out, fmt)
        return
    res = santalo.santalo_point(spec, s, cfg)
    _emit({
        "op": "santalo-point",
        "s": s,
        "z_star": res.z_star,
        "phi_min": res.phi_min,
        "polar_barycenter_norm": res.polar_barycenter_norm,
        "iterations": res.iterations,
        "converged": res.converged,
    }, out, fmt)


@main.command("region")
@spec_opt
@s_opt
@click.option("--t", "t", required=True, type=float, help="Region threshold factor.")
@click.option("--rays", type=int, default=64, help="Number of boundary rays.")
@click.option("--z", "z_text", type=str, default=None,
              help="If given, report membership of this point instead.")
@grid_opt
@out_opt
@fmt_opt
@_dispatch
def region_cmd(spec_path, s_text, t, rays, z_text, grid, out, fmt):
    """Santalo region boundary by a bracketed root solve along each ray, or
    point membership."""
    if rays < 1:
        raise InputError("--rays must be >= 1")
    spec = _load_spec(spec_path)
    s = _parse_s(s_text)
    q = regions.make_query(spec, s, t, _grid_cfg(grid))
    if z_text is not None:
        z = _parse_vec(z_text)
        if z.shape != (spec.dimension,):
            raise InputError(f"--z must have dimension {spec.dimension}")
        _emit({"op": "region", "s": s, "t": t, "z": z,
               "member": regions.region_membership(q, z)}, out, fmt)
        return
    b = regions.region_boundary(q, ray_count=rays)
    _emit({
        "op": "region",
        "s": s,
        "t": t,
        "empty": b.empty,
        "center": b.center,
        "rays": b.rays,
        "radii": b.radii,
        "tolerance": b.tolerance,
        "evaluations": b.evaluations,
    }, out, fmt)


@main.command("convergence")
@spec_opt
@click.option("--z", "z_text", type=str, default=None,
              help="Single test point; default samples 10 interior points.")
@click.option("--s-schedule", "sched_text", type=str, default="4,16,64,256",
              help="Comma-separated s values.")
@seed_opt
@grid_opt
@out_opt
@fmt_opt
@_dispatch
def convergence_cmd(spec_path, z_text, sched_text, seed, grid, out, fmt):
    """Gap and Mahler-product table for the s-approximation of a log-concave
    function, with columns (s, x, L_s_value, L_inf_value, gap, mahler_s,
    mahler_inf)."""
    spec = _load_spec(spec_path)
    if not spec.is_log_concave:
        raise InputError("convergence requires a log-concave spec")
    schedule = _parse_vec(sched_text, "--s-schedule").tolist()
    seed = _default_seed() if seed is None else seed
    if z_text is not None:
        pts = [tuple(_parse_vec(z_text))]
    else:
        rng = np.random.default_rng(seed)
        z0 = funcmodel.barycenter(spec).vector
        rm, rp = funcmodel.axis_extents(spec, z0)
        rm = np.minimum(rm, 3.0)
        rp = np.minimum(rp, 3.0)
        u = rng.uniform(-0.85, 0.85, size=(10, spec.dimension))
        pts = [tuple(z0 + np.where(ui >= 0, ui * rp, ui * rm)) for ui in u]
    rows = transforms.convergence_study(spec, pts, schedule, _grid_cfg(grid))
    table = []
    for r in rows:
        row = {"s": r["s"]}
        for i, xi in enumerate(r["x"]):
            row[f"x{i + 1}"] = xi
        if "warning" in r:
            row["warning"] = r["warning"]
        else:
            row.update(L_s_value=r["L_s_value"], L_inf_value=r["L_inf_value"],
                       gap=r["gap"], mahler_s=r["mahler_s"],
                       mahler_inf=r["mahler_inf"])
        table.append(row)
    _emit(table, out, fmt)


@main.command("verify")
@click.option("--suite", "suite_names", multiple=True, required=True,
              type=click.Choice(list(suites.SUITE_NAMES) + ["all"]),
              help="Suite to run; repeatable; 'all' runs every suite.")
@seed_opt
@click.option("--threads", type=int, default=None,
              help="Worker pool size when running several suites "
                   "(default: logical cores).")
@out_opt
@_dispatch
def verify_cmd(suite_names, seed, threads, out):
    """Run verification suites and emit a JSONL report (one line per case,
    then one summary line per suite)."""
    seed = _default_seed() if seed is None else seed
    names = list(suites.SUITE_NAMES) if "all" in suite_names else list(suite_names)
    if threads is None:
        threads = os.cpu_count() or 1
    if len(names) > 1 and threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda n: suites.run_suite(n, seed), names))
    else:
        reports = [suites.run_suite(n, seed) for n in names]
    lines = []
    for rep in reports:
        for case in rep["cases"]:
            lines.append(json.dumps(_to_jsonable({"suite": rep["suite"], **case}),
                                    sort_keys=True))
        summary = {k: v for k, v in rep.items() if k != "cases"}
        lines.append(json.dumps(_to_jsonable(summary), sort_keys=True))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    failed = sum(rep["failed"] for rep in reports)
    if failed:
        raise SuiteFailure(f"{failed} failing case(s) across {len(names)} suite(s)")


if __name__ == "__main__":
    main()
