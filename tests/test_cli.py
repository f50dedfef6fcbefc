import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lognls
import lognls.cli as cli_mod
import lognls.errors as errors_mod
from lognls.cli import load_config, main
from lognls.errors import ConfigError
from lognls.grid import load_field
from lognls.solver import SolveStatus, SolverConfig

SINGLE_WELL = {
    "problem": {"dim": 1, "eps": 0.1, "wells": [[0.0]], "v_inf": 2.0, "width": 1.0},
    "numerics": {"h": 0.05, "R_schedule": [10.0]},
    "solver": {"grad_tol": 1e-8, "max_iters": 3000},
    "outputs": {"out_dir": "out", "dump_fields": True, "verbosity": 0},
    "rng_seed": 7,
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_round_trip(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    cfg = load_config(path)
    assert cfg.potential.dim == 1 and cfg.eps == 0.1
    assert cfg.solver.R_schedule == (10.0,)


def test_load_config_missing_key(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    del bad["problem"]["eps"]
    with pytest.raises(ConfigError, match="problem.eps"):
        load_config(_write(tmp_path, bad))


def test_load_config_bad_json_line_number(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": [,]\n}')
    with pytest.raises(ConfigError, match=r"broken\.json:2:"):
        load_config(path)


@pytest.mark.parametrize("name", ["config.rng_sed", "numerics.delta", "solver.grad_tl",
                                  "solver.precondition", "solver.step_init",
                                  "solver.backtrack", "solver.probes", "solver.gamma",
                                  "solver.rho0", "solver.R0"])
def test_load_config_rejects_unknown_keys(tmp_path, name):
    bad = json.loads(json.dumps(SINGLE_WELL))
    section, key = name.split(".")
    (bad if section == "config" else bad[section])[key] = 0.1
    with pytest.raises(ConfigError, match=re.escape(f"{name}: unknown key")):
        load_config(_write(tmp_path, bad))


def test_settings_are_declared_once():
    """The keys of the numerics and solver sections are the parameters of
    SolverConfig, which load_config passes them to."""
    params = inspect.signature(SolverConfig).parameters.keys()
    assert {*cli_mod._SCHEMA["numerics"], *cli_mod._SCHEMA["solver"]} == set(params)


def test_load_config_rejects_other_preconditioner(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["solver"]["precondition"] = "none"
    with pytest.raises(ConfigError, match="solver.precondition"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("key, value", [("max_iters", -1)])
def test_load_config_rejects_settings_that_skip_work(tmp_path, key, value):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["solver"][key] = value
    with pytest.raises(ConfigError, match=f"numerics/solver: {key}"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("section, key, value", [
    ("outputs", "dump_fields", "false"),
    ("solver", "max_iters", 2.7),
    ("solver", "max_iters", True),
    ("problem", "dim", 1.5),
    ("problem", "eps", "abc"),
    ("problem", "eps", None),
    ("numerics", "h", [0.01]),
    ("problem", "wells", "x"),
], ids=["flag-string", "integer-fraction", "integer-bool", "dim-fraction",
        "number-string", "number-null", "number-list", "list-string"])
def test_load_config_checks_json_types(tmp_path, section, key, value):
    """A value of the wrong JSON type is an error, not coerced, and the CLI
    exits 2 with it instead of a traceback."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "double_well.json"
    bad = json.loads(shipped.read_text())
    bad.setdefault(section, {})[key] = value
    path = _write(tmp_path, bad)
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}: ")):
        load_config(path)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2


def test_real_settings_load_as_floats(tmp_path):
    # report.json prints the config's settings, so an integer 1 prints 1.0
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["solver"].update(grad_tol=1, nehari_tol=1)
    loaded = load_config(_write(tmp_path, cfg))
    values = (loaded.eps, loaded.solver.grad_tol, loaded.solver.nehari_tol)
    assert [type(v) for v in values] == [float] * 3
    assert loaded.solver.max_iters == 3000 and type(loaded.solver.max_iters) is int


def test_readme_config_schema_lists_the_loaded_keys():
    """The example under README's "Config schema" holds every key that
    load_config admits, section by section, and no other."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"### Config schema\s+```json\n(.*?)```", readme, re.S).group(1)
    documented = json.loads(block)
    assert documented.keys() == cli_mod._SCHEMA["config"].keys()
    for section, keys in cli_mod._SCHEMA.items():
        if section != "config":
            assert documented[section].keys() == keys.keys(), section


def test_load_config_rejects_mismatched_dim(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["problem"]["wells"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError, match="problem.wells"):
        load_config(_write(tmp_path, bad))


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted([*REPO.glob("configs/*.json"),
                                         *REPO.glob("perfbench/configs/*.json")]),
                         ids=lambda p: str(p.relative_to(REPO)))
def test_every_shipped_config_loads(path):
    cfg = load_config(path)
    assert cfg.solver.R_schedule and cfg.potential.l >= 1


def _no_solve(*args, **kwargs):
    raise AssertionError("a config error must end the run before any solve")


@pytest.mark.parametrize("h, schedule", [(0.03, [30.01, 60.01]), (0.02, [30.01, 60.0])],
                         ids=["2R-not-whole", "step-not-whole"])
def test_radius_schedule_that_h_does_not_fit_is_a_config_error(tmp_path, h, schedule,
                                                               monkeypatch):
    bad = json.loads((REPO / "configs" / "double_well.json").read_text())
    bad["numerics"] = {"h": h, "R_schedule": schedule}
    path = _write(tmp_path, bad)
    with pytest.raises(ConfigError, match="R_schedule"):
        load_config(path)
    monkeypatch.setattr("lognls.cli.solve_multiplicity", _no_solve)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


# every numeric key of a config, and the changes that put a value there
_NUMERIC_KEYS = {
    "problem.dim": lambda v: {"problem": {"dim": v}},
    "problem.eps": lambda v: {"problem": {"eps": v}},
    "problem.v_inf": lambda v: {"problem": {"v_inf": v}},
    "problem.width": lambda v: {"problem": {"width": v}},
    "problem.wells": lambda v: {"problem": {"wells": [[0.0], [v]]}},
    "numerics.h": lambda v: {"numerics": {"h": v}},
    "numerics.R_schedule": lambda v: {"numerics": {"R_schedule": [v]}},
    "solver.grad_tol": lambda v: {"solver": {"grad_tol": v}},
    "solver.nehari_tol": lambda v: {"solver": {"nehari_tol": v}},
    "solver.max_iters": lambda v: {"solver": {"max_iters": v}},
    "outputs.verbosity": lambda v: {"outputs": {"verbosity": v}},
    "config.rng_seed": lambda v: {"rng_seed": v},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", sorted(_NUMERIC_KEYS))
def test_non_finite_number_is_a_config_error(tmp_path, monkeypatch, capsys, name, value):
    """Python's json reads NaN, Infinity and -Infinity; no setting takes
    one, and each is a config error naming its key before any solve."""
    bad = json.loads((REPO / "configs" / "double_well.json").read_text())
    for section, update in _NUMERIC_KEYS[name](value).items():
        if isinstance(update, dict):
            bad[section].update(update)
        else:
            bad[section] = update
    path = _write(tmp_path, bad)
    assert json.dumps(value) in path.read_text()
    with pytest.raises(ConfigError, match=re.escape(f"{name}: must ")):
        load_config(path)
    monkeypatch.setattr("lognls.cli.solve_multiplicity", _no_solve)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: must ")
    assert not (tmp_path / "run").exists()


def test_negative_rng_seed_is_a_config_error(tmp_path, monkeypatch):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["rng_seed"] = -1
    path = _write(tmp_path, bad)
    with pytest.raises(ConfigError, match="config.rng_seed: must be >= 0"):
        load_config(path)
    monkeypatch.setattr("lognls.cli.solve_multiplicity", _no_solve)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_negative_seed_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    path = _write(tmp_path, SINGLE_WELL)
    monkeypatch.setattr("lognls.cli.solve_multiplicity", _no_solve)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "run"), "--seed", "-3"]
    assert main(argv + (["--eps", "0.1"] if command == "sweep" else [])) == 2
    assert "--seed: must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unusable_out_dir_is_a_config_error_before_any_solve(tmp_path, monkeypatch, capsys,
                                                              command):
    path = _write(tmp_path, SINGLE_WELL)
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr("lognls.cli.solve_multiplicity", _no_solve)
    argv = [command, "--config", str(path), "--out", str(blocker / "run")]
    assert main(argv + (["--eps", "0.1"] if command == "sweep" else [])) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory {blocker / 'run'}")


def test_verify_negative_seed_is_a_usage_error(monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a usage error must end verify before any check")

    monkeypatch.setattr("lognls.verify.identity_suite", no_suite)
    assert main(["verify", "--seed", "-1"]) == 2
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err


def test_solve_single_well_end_to_end(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    out = tmp_path / "run"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == 0
    assert report["wells"][0]["separation_ok"]
    assert (out / "levels.csv").exists()
    assert sorted(p.name for p in (out / "fields").iterdir()) == ["u_well1.npz"]
    g, eps, u = load_field(out / "fields" / "u_well1.npz")
    assert (g.dim, g.R, g.h, eps) == (1, 10.0, 0.05, 0.1)
    assert u.shape == (g.num_nodes,) and u.max() > 0.0


def test_solve_deterministic_outputs(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "levels.csv").read_bytes() == (out2 / "levels.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "fields" / "u_well1.npz").read_bytes() == \
        (out2 / "fields" / "u_well1.npz").read_bytes()


def test_solve_bad_config_exits_2(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["numerics"]["delta"] = 0.5
    path = _write(tmp_path, bad)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


def test_solve_rejects_verbose_flag(tmp_path):
    # no setting reads a verbosity above 1: `outputs.verbosity` is the one knob
    path = _write(tmp_path, SINGLE_WELL)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(path), "--verbose"])
    assert exc.value.code == 2


def test_solve_missing_config_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_solve_out_of_regime_exits_1_with_partial_outputs(tmp_path):
    cfg = {
        "problem": {"dim": 1, "eps": 5.0, "wells": [[0.0], [2.0]],
                     "v_inf": 2.0, "width": 0.25},
        "numerics": {"h": 0.02, "R_schedule": [30.0]},
        "solver": {"max_iters": 800},
        "outputs": {"out_dir": "out", "verbosity": 0},
    }
    path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == 1
    # the failed well is reported, outputs for the others still land
    assert report["failures"] or any(
        w["status"] != "converged" for w in report["wells"])
    assert (out / "levels.csv").exists()


@pytest.mark.parametrize("dim, wells, numerics", [
    (1, [[0.0], [2.0]], {"h": 1.5, "R_schedule": [30.0]}),   # ground axis R = 10.5
    (2, [[0.0, 0.0]], {"h": 1.2, "R_schedule": [12.0]}),     # ground axis R = 8.4
    (1, [[0.0], [2.0]], {"h": 4.0, "R_schedule": [28.0]}),   # the radius itself
], ids=["ground-axis-1d", "ground-axis-2d", "radius"])
def test_spacing_too_coarse_for_the_run_is_a_config_error(tmp_path, capsys, dim, wells,
                                                          numerics):
    """An h with R/h < 8 on the ground-level axis, which the config never
    names, or on a radius of the schedule is a config error naming
    numerics.h (exit 2) before any solve, not a failed solve (exit 1)."""
    cfg = {"problem": {"dim": dim, "eps": 0.1 if dim == 1 else 0.3, "wells": wells,
                       "v_inf": 2.0, "width": 0.25},
           "numerics": numerics, "outputs": {"verbosity": 0}}
    out = tmp_path / "run"
    assert main(["solve", "--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "numerics.h" in err and "R/h >= 8" in err
    assert not (out / "report.json").exists()


_WELL = st.floats(-2.0, 2.0).map(lambda x: round(x, 3))


@settings(max_examples=8, derandomize=True, deadline=None)
@given(dim=st.sampled_from([1, 2]), spread=st.floats(0.0, 1.0),
       extra=st.lists(st.tuples(_WELL, _WELL), max_size=2),
       log_v=st.floats(math.log(1.0001), math.log(100.0)),
       log_w=st.floats(math.log(0.01), math.log(5.0)),
       coarse=st.booleans(), offset=st.sampled_from([0, 1, 3]),
       step=st.one_of(st.none(), st.floats(2.0, 6.0)))
def test_out_of_regime_runs_end_in_named_statuses(tmp_path_factory, dim, spread, extra,
                                                  log_v, log_w, coarse, offset, step):
    """Runs outside the regime of the theory: eps from 0.05 (0.4 in 2d,
    which keeps the grid small) to 2, one to three wells, v_inf from 1.0001
    to 100 and width from 0.01 to 5 (log-uniform), coarse grids, a first
    radius 0, 1 or 3 beyond the least the solve admits and in half of the
    runs a second radius. Every run exits 0 or 1 and writes its report, and
    every well ends in a named status or a named failure, with no exception
    and no numpy warning."""
    wells = [[0.0] * dim] + [list(w[:dim]) for w in extra]
    min_gap = min((math.dist(a, b) for k, a in enumerate(wells) for b in wells[k + 1:]),
                  default=math.inf)
    assume(min_gap >= 0.05)
    lo, h = (0.05, 0.2 if coarse else 0.1) if dim == 1 else (0.4, 0.25 if coarse else 0.2)
    eps = lo + spread * (2.0 - lo)
    far = max(math.hypot(*w) for w in wells)
    least = max(far / eps + 5.0, 2.0 * max(1.0, far) + h)
    R1 = math.ceil(least / h - 1e-9) * h + offset
    cfg = {
        "problem": {"dim": dim, "eps": eps, "wells": wells, "v_inf": math.exp(log_v),
                    "width": math.exp(log_w)},
        "numerics": {"h": h, "R_schedule": [R1] if step is None
                     else [R1, R1 + h * round(step / h)]},
        "solver": {"max_iters": 500},
        "outputs": {"dump_fields": False, "verbosity": 0},
    }
    tmp = tmp_path_factory.mktemp("out_of_regime")
    out = tmp / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # numpy's floating-point warnings
        code = main(["solve", "--config", str(_write(tmp, cfg)), "--out", str(out)])
    assert code in (0, 1)
    report = json.loads((out / "report.json").read_text())
    statuses = {s.value for s in SolveStatus}
    assert all(w["status"] in statuses for w in report["wells"])
    assert all(issubclass(getattr(errors_mod, f["error"]), errors_mod.LogNLSError)
               for f in report["failures"])
    assert len(report["wells"]) + len(report["failures"]) == len(wells)


def test_history_dump(tmp_path):
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["outputs"]["dump_history"] = True
    path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "fields" / "history_well1.csv").read_text().splitlines()
    assert rows[0] == "R,iter,J,nehari_res,grad_norm,qx,step"
    assert len(rows) > 2


@pytest.mark.parametrize("dim", [1, 2])
def test_history_dump_cells_are_numbers(tmp_path, dim):
    # the barycenter components are numpy floats, whose repr is not a number
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["outputs"].update(dump_fields=False, dump_history=True)
    if dim == 2:
        cfg["problem"].update(dim=2, eps=0.3, wells=[[0.0, 0.0]])
        cfg["numerics"] = {"h": 0.2, "R_schedule": [8.0]}
    path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    header, *rows = (out / "fields" / "history_well1.csv").read_text().splitlines()
    assert header.split(",")[5:-1] == ["qx", "qy"][:dim]
    assert rows
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_history_dump_without_field_dump(tmp_path):
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["outputs"].update(dump_fields=False, dump_history=True)
    path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "fields").iterdir()) == ["history_well1.csv"]
    rows = (out / "fields" / "history_well1.csv").read_text().splitlines()
    assert rows[0] == "R,iter,J,nehari_res,grad_norm,qx,step"
    assert len(rows) > 2


def _run_python(*args, **env_vars):
    """Run ``python *args`` on the package imported here, so the
    subprocess tests this checkout whatever is installed or on PATH;
    env_vars are set in the subprocess's environment, and those given as
    None are removed from it."""
    src = str(Path(lognls.__file__).resolve().parent.parent)
    env = {k: v for k, v in dict(os.environ, **env_vars).items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def _run_module(*args, **env_vars):
    """Run ``python -m lognls`` as `_run_python` does."""
    return _run_python("-m", "lognls", *args, **env_vars)


def test_cli_import_loads_numpy_alone():
    """The package needs numpy only, and loads numpy.fft (which numpy
    imports lazily) with itself rather than in the first solve. numpy.random,
    which only the identity suite draws from, is left to load when it first
    runs; the weak residual draws no random numbers (see
    `test_solve_leaves_numpy_random_unloaded`)."""
    proc = _run_python("-c", (
        "import sys, lognls.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.fft' in sys.modules, 'numpy.random' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False"]


# the modules `import lognls.cli` may load beyond those of `import numpy`:
# the package without its audit module, the standard library's argparse,
# csv and json, and numpy.fft. `lognls.verify` is loaded by the commands
# that audit, `solve` and `verify`; records are NamedTuples or plain
# classes, so `dataclasses` (and the `copy` it loads) is not needed
_CLI_IMPORTS = {
    "__future__", "_csv", "_json", "argparse", "csv", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner",
    "lognls", "lognls.barycenter", "lognls.cli", "lognls.energy", "lognls.errors",
    "lognls.grid", "lognls.potential", "lognls.solver",
    "numpy.fft", "numpy.fft._helper", "numpy.fft._pocketfft", "numpy.fft._pocketfft_umath",
}


def test_cli_import_and_sweep_load_only_the_allowed_modules(tmp_path):
    assert not {"dataclasses", "copy", "lognls.verify"} & _CLI_IMPORTS
    path = _write(tmp_path, SINGLE_WELL)
    proc = _run_python("-c", (
        "import sys, numpy\n"
        "base = set(sys.modules)\n"
        "import lognls.cli\n"
        "print(' '.join(sorted(set(sys.modules) - base)))\n"
        f"code = lognls.cli.main(['sweep', '--config', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'run')!r}, '--eps', '0.2', '0.1'])\n"
        "print(code, 'lognls.verify' in sys.modules, 'dataclasses' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    added = set(lines[0].split())
    assert added <= _CLI_IMPORTS, sorted(added - _CLI_IMPORTS)
    assert lines[-1] == "0 False False"


def test_solve_leaves_numpy_random_unloaded(tmp_path):
    """`lognls solve`, its weak residual included, never imports
    numpy.random, which would pull in hashlib, hmac and secrets."""
    path = _write(tmp_path, SINGLE_WELL)
    proc = _run_python("-c", (
        "import sys, lognls.cli\n"
        f"code = lognls.cli.main(['solve', '--config', {str(path)!r}, "
        f"'--out', {str(tmp_path / 'run')!r}])\n"
        "print(code, 'numpy.random' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    rows = list(csv.DictReader((tmp_path / "run" / "levels.csv").open()))
    assert rows and all(math.isfinite(float(r["weak_res"])) for r in rows)


def test_solve_and_audit_import_nothing_beyond_the_cli():
    """A 1d and a 2d solve and their audits load no module that
    `import lognls.cli` has not loaded, so no first solve pays for a lazy
    numpy import (np.median, for one, loads numpy.ma). The audit's module,
    which `lognls solve` loads when it starts, is in the snapshot."""
    proc = _run_python("-c", (
        "import sys, lognls.cli, lognls.verify\n"
        "loaded = set(sys.modules)\n"
        "from lognls.potential import make_multiwell\n"
        "from lognls.solver import SolverConfig, solve_multiplicity\n"
        "from lognls.verify import audit\n"
        "for wells, eps, h, R in (([[0.0], [2.0]], 0.4, 0.05, 12.0),\n"
        "                         ([[0.0, 0.0], [2.0, 0.0]], 0.3, 0.2, 12.0)):\n"
        "    cfg = SolverConfig(h=h, R_schedule=(R,), grad_tol=1e-6)\n"
        "    out = solve_multiplicity(eps, make_multiwell(wells, 2.0, 0.25), cfg)\n"
        "    assert audit(out).status == 0\n"
        "print(sorted(set(sys.modules) - loaded))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_entry_point_help():
    proc = _run_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert "solve" in proc.stdout and "sweep" in proc.stdout


def test_console_script_maps_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["lognls"]
    assert target == "lognls.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_package_namespace_holds_only_its_version():
    # names are imported from their modules; the package re-exports none
    submodules = {info.name for info in pkgutil.iter_modules(lognls.__path__)}
    public = {name for name in vars(lognls) if not name.startswith("_")}
    assert public <= submodules and lognls.__version__


def test_package_attributes_are_its_submodules():
    # a name re-exported by the package must not hide the submodule of that
    # name: `import lognls.energy as m` binds the package attribute
    for info in pkgutil.iter_modules(lognls.__path__):
        if info.name == "__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(f"lognls.{info.name}")
        assert getattr(lognls, info.name) is module, info.name


def test_entry_point_passes_exit_code(tmp_path):
    proc = _run_module("solve", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2, proc.stderr


# the variables OpenBLAS reads its thread count from; None unsets them
_NO_THREAD_VARS = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
# prints the thread count after the import and whether os.environ kept still
_IMPORT_PROBE = ("import os\nbefore = dict(os.environ)\nimport {}\n"
                 "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)")
needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="needs /proc/self/task")


@needs_proc_tasks
def test_import_pins_openblas_to_one_thread():
    proc = _run_python("-c", _IMPORT_PROBE.format("lognls"), **_NO_THREAD_VARS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


@needs_proc_tasks
@pytest.mark.parametrize("imports, env_vars", [
    ("lognls", {"OPENBLAS_NUM_THREADS": "2"}),
    ("lognls", {"OMP_NUM_THREADS": "2"}),
    ("numpy, lognls", {}),
])
def test_import_leaves_blas_threads_alone(imports, env_vars):
    # a thread count set by the user, or a numpy loaded first, wins
    env_vars = dict(_NO_THREAD_VARS, **env_vars)
    plain = _run_python("-c", _IMPORT_PROBE.format("numpy"), **env_vars)
    proc = _run_python("-c", _IMPORT_PROBE.format(imports), **env_vars)
    assert plain.returncode == 0 and proc.returncode == 0, plain.stderr + proc.stderr
    assert proc.stdout == plain.stdout
    assert proc.stdout.split()[1] == "True"


def test_solve_outputs_independent_of_blas_threads(tmp_path):
    # 12,001 nodes: long enough that np.dot would run on OpenBLAS threads,
    # whose partial sums make the last digits depend on the thread count
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["numerics"] = {"h": 0.01, "R_schedule": [60.0]}
    cfg["outputs"]["dump_fields"] = False
    path = _write(tmp_path, cfg)
    tables = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _run_module("solve", "--config", str(path), "--out", str(out),
                           **dict(_NO_THREAD_VARS, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "levels.csv").read_bytes())
    assert tables[0] == tables[1] == tables[2]


def test_sweep_smoke_and_csv(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--eps", "0.4", "0.2"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "eps,well,level,dist_to_well,status,iterations"
    assert len(rows) == 3
    assert all(int(row.rsplit(",", 1)[1]) > 0 for row in rows[1:])


def test_sweep_tabulates_the_potential_once_per_eps_and_radius(tmp_path, monkeypatch):
    """Both wells at one eps read one potential table per radius: the grid
    of each radius is built once, and the table is cached on it."""
    import lognls.energy as energy_mod

    calls = []
    eval_scaled = energy_mod.eval_scaled

    def spy(spec, eps, g):
        calls.append((eps, g.R))
        return eval_scaled(spec, eps, g)

    monkeypatch.setattr(energy_mod, "eval_scaled", spy)
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["problem"]["wells"] = [[0.0], [2.0]]
    cfg["numerics"] = {"h": 0.05, "R_schedule": [30.0, 40.0]}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(_write(tmp_path, cfg)), "--out", str(out),
                 "--eps", "0.4", "0.2", "0.1"]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert len(rows) == 6 and all(r["status"] == "converged" for r in rows)
    assert sorted(calls) == sorted((eps, R) for eps in (0.4, 0.2, 0.1) for R in (30.0, 40.0))


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("section, change, message", [
    ("numerics", {"R_schedule": [4.0, 30.0]},
     "first truncation radius 4.0 must exceed R0 = 4.0"),
    ("solver", {"gamma": 100.0}, "solver.gamma: unknown key"),
    ("solver", {"rho0": 1.5, "R0": 8.0}, "solver.rho0: unknown key"),
    ("solver", {"rho0": 0.0, "R0": 4.0}, "solver.rho0: unknown key"),
    ("solver", {"rho0": -0.5, "R0": 4.0}, "solver.rho0: unknown key"),
], ids=["first-radius-inside-R0", "gamma-too-large", "overlapping-balls", "zero-rho0",
        "negative-rho0"])
def test_config_error_at_solve_start_exits_2(tmp_path, capsys, command, section, change,
                                             message):
    # an R_schedule[0] not above R0, which the wells fix (R0 = 4 for wells
    # at 0 and 2), is found only when the solve starts; it is a config
    # error all the same. A gamma outside (0, (c_inf - c0)/2) and balls
    # B_rho0 that overlap or have rho0 <= 0 were found there too while
    # gamma, rho0 and R0 were settings; they are derived now, and a config
    # that still sets one is refused as it loads, with the same exit code
    shipped = Path(__file__).resolve().parent.parent / "configs" / "double_well.json"
    bad = json.loads(shipped.read_text())
    bad[section].update(change)
    path = _write(tmp_path, bad)
    out = tmp_path / "run"
    args = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        args += ["--eps", "0.4", "0.2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "solve failed" not in err
    assert not (out / "report.json").exists()
    assert not (out / "sweep.csv").exists()


def test_weak_residual_is_measured_by_solve_alone(tmp_path, monkeypatch):
    """`lognls solve` measures the weak residual once per well, on the field
    it writes, and writes a finite value; `sweep`, which does not report
    it, measures none, and neither does `solve_multiplicity`."""
    import lognls.verify as verify_mod
    from lognls.solver import solve_multiplicity

    cfg = {
        "problem": {"dim": 1, "eps": 0.4, "wells": [[0.0], [2.0]], "v_inf": 2.0,
                    "width": 0.25},
        "numerics": {"h": 0.05, "R_schedule": [12.0, 16.0]},
        "outputs": {"verbosity": 0},
    }
    path = _write(tmp_path, cfg)
    real = verify_mod.weak_residual
    measured = []

    def spy(u, *args, **kwargs):
        measured.append(u.copy())
        return real(u, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "weak_residual", spy)
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert len(measured) == 2
    for i, u in enumerate(measured):
        assert np.array_equal(u, load_field(out / "fields" / f"u_well{i + 1}.npz")[2])
    rows = list(csv.DictReader((out / "levels.csv").open()))
    assert len(rows) == 2 and all(math.isfinite(float(row["weak_res"])) for row in rows)
    report = json.loads((out / "report.json").read_text())
    assert all(math.isfinite(w["weak_res"]) for w in report["wells"])

    measured.clear()
    assert main(["sweep", "--config", str(path), "--eps", "0.5", "0.4",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert measured == []
    run = load_config(path)
    outcome = solve_multiplicity(run.eps, run.potential, run.solver)
    assert len(outcome.results) == 2
    assert measured == []


def test_wells_stopped_by_the_iteration_cap_are_not_r_stabilized(tmp_path, monkeypatch):
    """max_iters 12 lies between the ground level's 11 iterations and the
    wells' 14, so both wells end iteration_cap at the first radius; neither
    the results nor their report entries call them R-stabilized, and each
    entry's stage says what it missed."""
    cfg = json.loads((REPO / "configs" / "double_well.json").read_text())
    cfg["solver"]["max_iters"] = 12
    cfg["outputs"] = {"dump_fields": False, "verbosity": 0}
    path = _write(tmp_path, cfg)
    real = cli_mod.solve_multiplicity
    outcomes = []
    monkeypatch.setattr(cli_mod, "solve_multiplicity",
                        lambda *args: outcomes.append(real(*args)) or outcomes[-1])
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    wells = report["wells"]
    assert [w["status"] for w in wells] == ["iteration_cap"] * 2
    assert [w["R_final"] for w in wells] == [30.0] * 2
    assert [w["r_stabilized"] for w in wells] == [False] * 2
    assert [r.r_stabilized for r in outcomes[0].results] == [False] * 2
    bar = 0.5 * cfg["solver"]["grad_tol"]
    assert report["tolerances"]["grad_norm"] == bar
    for w in wells:
        [stage] = w["stages"]
        assert stage["status"] == "iteration_cap" and stage["grad_norm"] > bar
        assert not w["checked"] and math.isfinite(w["weak_res"])


def test_sweep_empty_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path)]) == 2


def test_sweep_increasing_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path), "--eps", "0.1", "0.2"]) == 2


@pytest.mark.parametrize("eps", ["0", "-0.1", "nan", "inf"])
def test_sweep_eps_not_positive_and_finite_exits_2(tmp_path, capsys, eps):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"),
                 "--eps", eps]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_verify_subcommand_passes():
    assert main(["verify"]) == 0


def test_sweep_onset_resets_after_a_raised_solve(tmp_path, capsys):
    # eps = 0.05 needs R >= 2/0.05 + 5 = 45 > 30: its solve raises, so no
    # eps of the list has every later eps converged
    config = Path(__file__).resolve().parents[1] / "configs" / "double_well.json"
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path),
                 "--eps", "0.1", "0.05"])
    captured = capsys.readouterr()
    assert code == 1
    assert "eps=0.1: all converged" in captured.out
    assert "eps=0.05: solve failed" in captured.err
    assert "localization onset" not in captured.out


def test_verify_failed_check_exits_1_and_is_named(monkeypatch, capsys):
    import lognls.verify as verify_mod

    real = verify_mod.nehari_scale
    monkeypatch.setattr(verify_mod, "nehari_scale",
                        lambda rec: real(rec) ** 2)
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "verify: 11/12 checks passed" in captured.out
    failed = captured.err.split("failed checks:", 1)[1]
    assert [name.strip() for name in failed.split(",")] == [
        "identity:nehari_idempotence [0/100]"]


def test_verify_catches_constant_factor_in_nehari_scale(monkeypatch, capsys):
    # idempotence cancels a constant factor, since s*(c u) = s*(u) / c; the
    # Nehari residual of the projected Gausson does not
    real = sys.modules["lognls.energy"].nehari_scale
    monkeypatch.setattr(sys.modules["lognls.cli"], "nehari_scale",
                        lambda rec: 1.001 * real(rec))
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "verify: 11/12 checks passed" in captured.out
    failed = captured.err.split("failed checks:", 1)[1]
    assert [name.strip() for name in failed.split(",")] == [
        "gausson: Nehari residual of s*u <= 1e-10"]


def test_verify_verbose_prints_margins(capsys):
    assert main(["verify", "--verbose"]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    # per-check numeric margins are printed in verbose mode
    assert "sup=" in captured and "gap=" in captured
