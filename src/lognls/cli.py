"""Batch front door: config parsing, orchestration, artifact emission.

Subcommands:
  solve   run the multiplicity pipeline from a JSON config, write levels.csv,
          report.json and per-well field dumps
  verify  run the identity/oracle suite, print a pass/fail table
  sweep   run solve across a decreasing list of eps values, write sweep.csv

Exit codes: 0 success, 1 numerical/audit failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .energy import EnergyParams, energy, nehari_residual, nehari_scale
from .errors import ConfigError, InvalidInput, LogNLSError
from .grid import build_grid, save_field
from .potential import PotentialSpec, make_multiwell
from .solver import (
    SolverConfig,
    check_run,
    gausson,
    ground_level,
    solve_multiplicity,
)

__all__ = ["RunConfig", "load_config", "cmd_solve", "cmd_verify", "cmd_sweep", "main"]


class RunConfig(NamedTuple):
    eps: float
    potential: PotentialSpec
    solver: SolverConfig
    out_dir: Path
    dump_fields: bool
    dump_history: bool
    verbosity: int


def _is_number(value) -> bool:
    """A finite JSON number, not a bool: Python's json reads NaN, Infinity
    and -Infinity, which no setting takes."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# the JSON kinds of config values: the test a value must pass, and what the
# error says it must be
_KINDS = {
    "number": (_is_number, "a finite number"),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "list of numbers": (lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
                        "a nonempty list of finite numbers"),
    "list": (lambda v: isinstance(v, list) and v, "a nonempty list"),
    "string": (lambda v: isinstance(v, str) and v, "a nonempty string"),
}

# every key a config may hold, per section, with the kind of its value; the
# top level is section "config", a "?" marks an optional key, and any key
# not listed is an error
_SCHEMA = {
    "config": {"problem": "section", "numerics": "section", "solver": "section?",
               "outputs": "section?", "rng_seed": "integer?"},
    "problem": {"dim": "integer", "eps": "number", "wells": "list", "v_inf": "number",
                "width": "number"},
    "numerics": {"h": "number", "R_schedule": "list of numbers"},
    "solver": {"grad_tol": "number?", "nehari_tol": "number?", "max_iters": "integer?"},
    "outputs": {"out_dir": "string?", "dump_fields": "flag?", "dump_history": "flag?",
                "verbosity": "integer?"},
}


def _checked(section, where: str) -> dict:
    """A section checked against `_SCHEMA[where]`: a JSON object that holds
    only keys of the section and every required one, each value of its kind.
    Returns the keys it holds, numbers as floats and sections checked."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    schema = _SCHEMA[where]
    for key in section:
        if key not in schema:
            raise ConfigError(f"{where}.{key}: unknown key")
    checked = {}
    for key, kind in schema.items():
        if key not in section:
            if not kind.endswith("?"):
                raise ConfigError(f"{where}.{key}: missing required key")
        elif kind.startswith("section"):
            checked[key] = _checked(section[key], key)
        else:
            value, (test, name) = section[key], _KINDS[kind.rstrip("?")]
            if not test(value):
                raise ConfigError(f"{where}.{key}: must be {name}, got {json.dumps(value)}")
            checked[key] = float(value) if kind.startswith("number") else value
    return checked


def _seed(seed: int, where: str) -> int:
    """The seed, if numpy's `default_rng` (the identity suite's generator)
    takes it: not negative."""
    if seed < 0:
        raise ConfigError(f"{where}: must be >= 0, got {seed}")
    return seed


def _wells(wells: list) -> list:
    """Well centers as equal-length lists of numbers; a bare number is a 1d
    center."""
    rows = [w if isinstance(w, list) else [w] for w in wells]
    if len({len(row) for row in rows}) != 1 or not all(
        row and all(map(_is_number, row)) for row in rows
    ):
        raise ConfigError(
            "problem.wells: must list finite numbers or equal-length lists of them, "
            f"got {json.dumps(wells)}"
        )
    return rows


def load_config(path, out_override=None, seed_override=None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ConfigError with a field-precise message on any violation.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc

    raw = _checked(raw, "config")
    problem, outputs = raw["problem"], raw.get("outputs", {})

    dim = problem["dim"]
    if dim not in (1, 2):
        raise ConfigError(f"problem.dim: must be 1 or 2, got {dim}")
    eps = problem["eps"]
    if eps <= 0.0:
        raise ConfigError(f"problem.eps: must be positive, got {eps}")

    wells = _wells(problem["wells"])
    try:
        spec = make_multiwell(wells, problem["v_inf"], problem["width"])
    except InvalidInput as exc:
        raise ConfigError(f"problem.wells/v_inf/width: {exc}") from exc
    if spec.dim != dim:
        raise ConfigError(
            f"problem.wells: centers are {spec.dim}d but problem.dim = {dim}"
        )

    # SolverConfig holds every default, so it gets only the keys the file holds
    try:
        solver_cfg = SolverConfig(**raw["numerics"], **raw.get("solver", {}))
    except LogNLSError as exc:
        raise ConfigError(f"numerics/solver: {exc}") from exc
    # rng_seed and --seed move no output; both are still range-checked
    if seed_override is None:
        _seed(raw.get("rng_seed", 0), "config.rng_seed")
    else:
        _seed(int(seed_override), "--seed")

    return RunConfig(
        eps=eps,
        potential=spec,
        solver=solver_cfg,
        out_dir=Path(out_override or outputs.get("out_dir", "out")),
        dump_fields=outputs.get("dump_fields", True),
        dump_history=outputs.get("dump_history", False),
        verbosity=outputs.get("verbosity", 1),
    )


def _make_out_dir(cfg: RunConfig) -> Path:
    """Create the output directory before any solve, so that an unusable
    one is a config error rather than a crash after the solve."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    return cfg.out_dir


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_levels(path, outcome, spec, report):
    qcols = [f"q{ax}" for ax in "xy"[: spec.dim]]
    header = ["well", "status", "level", *qcols, "dist_to_well",
              "nehari_res", "grad_norm", "weak_res", "R_final", "iterations"]
    rows = []
    for r, entry in zip(outcome.results, report.wells):
        z = spec.wells[r.well_index]
        dist = float(np.linalg.norm(r.barycenter - z))
        rows.append([
            r.well_index + 1, r.status.value, r.level,
            *[float(c) for c in r.barycenter], dist,
            r.nehari_res, r.grad_norm, entry["weak_res"], r.R_final, r.iterations,
        ])
    for f in outcome.failures:
        rows.append([f.well_index + 1, f"failed:{f.error}"]
                    + [""] * (len(header) - 2))
    rows.sort(key=lambda row: row[0])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_history(path, result):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        dim = result.grid.dim
        w.writerow(["R", "iter", "J", "nehari_res", "grad_norm",
                    *[f"q{ax}" for ax in "xy"[:dim]], "step"])
        for row in result.history:
            w.writerow([_fmt(row.R), row.iteration, _fmt(row.level), _fmt(row.nehari_res),
                        _fmt(row.grad_norm), *[_fmt(c) for c in row.barycenter],
                        _fmt(row.step)])


def cmd_solve(args) -> int:
    from . import verify as verify_mod   # here, not with the CLI: sweep never audits

    cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
    check_run(EnergyParams(cfg.eps, cfg.potential), cfg.solver)
    out = _make_out_dir(cfg)
    try:
        outcome = solve_multiplicity(cfg.eps, cfg.potential, cfg.solver)
    except LogNLSError as exc:
        print(f"solve failed outright: {exc}", file=sys.stderr)
        return 1

    report = verify_mod.audit(outcome)

    (out / "report.json").write_text(report.to_json())
    _write_levels(out / "levels.csv", outcome, cfg.potential, report)
    if cfg.dump_fields or cfg.dump_history:
        fields = out / "fields"
        fields.mkdir(exist_ok=True)
        for r in outcome.results:
            if cfg.dump_fields:
                save_field(fields / f"u_well{r.well_index + 1}.npz", r.grid, r.u, cfg.eps)
            if cfg.dump_history:
                _write_history(fields / f"history_well{r.well_index + 1}.csv", r)

    if cfg.verbosity:
        print(f"c0 = {outcome.c0!r}  c_inf = {outcome.c_inf!r}  gamma = {outcome.gamma!r}")
        for r in outcome.results:
            print(f"well {r.well_index + 1}: {r.status.value}  level = {r.level!r}  "
                  f"Q = {[float(c) for c in r.barycenter]}  R_final = {r.R_final}")
        for f in outcome.failures:
            print(f"well {f.well_index + 1}: FAILED {f.error}: {f.message}")
        print(f"audit status: {report.status}  -> wrote {out}")
    return report.status   # 1 when any well failed or did not converge


def _check(name, ok, margin, verbose, lines):
    lines.append((name, bool(ok), margin))
    if verbose:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}  ({margin})")


def cmd_verify(args) -> int:
    """Identity suite plus the Gausson and level-gap oracles; exit 0 iff all pass."""
    from . import verify as verify_mod

    seed = _seed(args.seed, "--seed")
    t_start = time.perf_counter()
    verbose = args.verbose
    lines = []

    g = build_grid(1, 10.0, 0.05)
    ids = verify_mod.identity_suite(g, seed=seed, fields=100)
    for name, entry in ids.items():
        margin = ", ".join(
            f"{k}={v}" for k, v in entry.items() if k not in ("pass", "total")
        )
        _check(f"identity:{name} [{entry['pass']}/{entry['total']}]",
               entry["pass"] == entry["total"], margin, verbose, lines)

    gf = build_grid(1, 10.0, 0.01)
    params = EnergyParams(eps=1.0, potential=1.0)
    ug = gausson(gf, 1.0)
    rec = energy(ug, params, gf)
    grad_sup = float(np.abs(rec.gradient()).max())
    _check("gausson: interior gradient sup <= 1e-3", grad_sup <= 1e-3,
           f"sup={grad_sup:.3e}", verbose, lines)
    sstar = nehari_scale(rec)
    _check("gausson: nehari scale within 1e-3 of 1", abs(sstar - 1.0) <= 1e-3,
           f"s*={sstar!r}", verbose, lines)
    nres = nehari_residual(sstar * ug, params, gf).value
    _check("gausson: Nehari residual of s*u <= 1e-10", nres <= 1e-10,
           f"res={nres:.3e}", verbose, lines)
    lvl = rec.level
    target = 0.5 * math.e**2 * math.sqrt(math.pi)
    _check("gausson: level within 0.5% of e^2 sqrt(pi)/2",
           abs(lvl - target) <= 5e-3 * target, f"level={lvl!r}", verbose, lines)

    wr = verify_mod.weak_residual(ug, params, gf)
    _check("gausson: weak residual <= 1e-3", wr <= 1e-3, f"res={wr:.3e}", verbose, lines)

    cfg = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, 1, cfg)
    c_inf = ground_level(2.0, 1, cfg)
    t2 = 0.5 * math.e**3 * math.sqrt(math.pi)
    _check("levels: c0 within 0.5%", abs(c0 - target) <= 5e-3 * target, f"c0={c0!r}",
           verbose, lines)
    _check("levels: c_inf(2) within 0.5%", abs(c_inf - t2) <= 5e-3 * t2,
           f"c_inf={c_inf!r}", verbose, lines)
    _check("levels: c0 < c_inf", c0 < c_inf, f"gap={c_inf - c0!r}", verbose, lines)
    # the 2d level on [-8, 8]^2 from one 1d solve on its axis
    c0_2d = ground_level(1.0, 2, SolverConfig(h=0.05, R_schedule=(8.0,)))
    t3 = 0.5 * math.e**3 * math.pi
    _check("levels: 2d c0 within 2% of e^3 pi/2", abs(c0_2d - t3) <= 2e-2 * t3,
           f"c0_2d={c0_2d!r}", verbose, lines)

    elapsed = time.perf_counter() - t_start
    failed = [name for name, ok, _ in lines if not ok]
    print(f"verify: {len(lines) - len(failed)}/{len(lines)} checks passed "
          f"in {elapsed:.1f}s")
    if not verbose:
        for name, ok, margin in lines:
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        print("failed checks:", ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    eps_list = list(args.eps)
    if not eps_list:
        raise ConfigError("sweep: empty eps list")
    if not all(0.0 < eps < math.inf for eps in eps_list):
        raise ConfigError(f"sweep: every eps must be positive and finite, got {eps_list}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("sweep: eps list must be strictly decreasing")
    cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
    for eps in eps_list:   # before any solve: a sweep that fails one eps solves none
        check_run(EnergyParams(eps, cfg.potential), cfg.solver)
    out = _make_out_dir(cfg)

    rows = []
    worst = 0
    onset = None
    for eps in eps_list:
        try:
            outcome = solve_multiplicity(eps, cfg.potential, cfg.solver)
        except LogNLSError as exc:
            print(f"eps={eps}: solve failed: {exc}", file=sys.stderr)
            worst = max(worst, 1)
            onset = None
            continue
        all_ok = outcome.all_converged
        if all_ok and onset is None:
            onset = eps
        if not all_ok:
            worst = max(worst, 1)
            onset = None
        for r in outcome.results:
            z = cfg.potential.wells[r.well_index]
            rows.append([eps, r.well_index + 1, r.level,
                         float(np.linalg.norm(r.barycenter - z)), r.status.value,
                         r.iterations])
        for f in outcome.failures:
            rows.append([eps, f.well_index + 1, "", "", f"failed:{f.error}", ""])
        if cfg.verbosity:
            print(f"eps={eps}: {'all converged' if all_ok else 'failures present'}")

    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "well", "level", "dist_to_well", "status", "iterations"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    if onset is not None and cfg.verbosity:
        print(f"localization onset: all wells converged from eps = {onset}")
    print(f"wrote {out / 'sweep.csv'}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lognls",
        description="Multiple positive solutions of the logarithmic "
        "Schrodinger equation by localized Nehari minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the multiplicity pipeline")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    # solve and sweep keep --seed although no output of theirs depends on
    # it: perfbench/run.py passes --seed to every workload's command
    seed_help = "accepted and checked (>= 0); moves no output"
    p_solve.add_argument("--seed", type=int, default=None, help=seed_help)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the identity/oracle suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--verbose", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="solve across a list of eps values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", type=float, nargs="*", default=[])
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None, help=seed_help)
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
