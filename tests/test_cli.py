import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lognls
from lognls.cli import load_config, main
from lognls.errors import ConfigError
from lognls.grid import load_field

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
    assert cfg.solver.probe_seed == 7


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
                                  "solver.precondition"])
def test_load_config_rejects_unknown_keys(tmp_path, name):
    bad = json.loads(json.dumps(SINGLE_WELL))
    section, key = name.split(".")
    (bad if section == "config" else bad[section])[key] = 0.1
    with pytest.raises(ConfigError, match=re.escape(f"{name}: unknown key")):
        load_config(_write(tmp_path, bad))


def test_load_config_rejects_other_preconditioner(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["solver"]["precondition"] = "none"
    with pytest.raises(ConfigError, match="solver.precondition"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("key, value", [("probes", 0), ("step_init", 0.0),
                                        ("max_iters", -1)])
def test_load_config_rejects_settings_that_skip_work(tmp_path, key, value):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["solver"][key] = value
    with pytest.raises(ConfigError, match=f"numerics/solver: {key}"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("section, key, value", [
    ("outputs", "dump_fields", "false"),
    ("solver", "probes", 2.7),
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


def test_load_config_rejects_mismatched_dim(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["problem"]["wells"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError, match="problem.wells"):
        load_config(_write(tmp_path, bad))


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
    which only the weak residual after the solve and the identity suite
    draw from, is left to load when they first run."""
    proc = _run_python("-c", (
        "import sys, lognls.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.fft' in sys.modules, 'numpy.random' in sys.modules)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False"]


def test_solve_and_audit_import_nothing_beyond_the_cli():
    """A 1d and a 2d solve and their audits load no module that
    `import lognls.cli` has not loaded, so no first solve pays for a lazy
    numpy import (np.median, for one, loads numpy.ma)."""
    proc = _run_python("-c", (
        "import sys, lognls.cli\n"
        "loaded = set(sys.modules)\n"
        "from lognls.potential import make_multiwell\n"
        "from lognls.solver import SolverConfig, solve_multiplicity\n"
        "from lognls.verify import audit\n"
        "for wells, eps, h, R in (([[0.0], [2.0]], 0.4, 0.05, 12.0),\n"
        "                         ([[0.0, 0.0], [2.0, 0.0]], 0.3, 0.2, 12.0)):\n"
        "    cfg = SolverConfig(h=h, R_schedule=(R,), grad_tol=1e-6)\n"
        "    out = solve_multiplicity(eps, make_multiwell(wells, 2.0, 0.25), cfg)\n"
        "    assert audit(out.results, out).status == 0\n"
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


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("solver", [{"gamma": 100.0}, {"rho0": 1.5, "R0": 8.0}],
                         ids=["gamma-too-large", "overlapping-balls"])
def test_config_error_at_solve_start_exits_2(tmp_path, capsys, command, solver):
    # gamma outside (0, (c_inf - c0)/2) and balls B_rho0 that overlap are
    # found only when the solve starts; they are config errors all the same
    shipped = Path(__file__).resolve().parent.parent / "configs" / "double_well.json"
    bad = json.loads(shipped.read_text())
    bad["solver"].update(solver)
    path = _write(tmp_path, bad)
    out = tmp_path / "run"
    args = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        args += ["--eps", "0.4", "0.2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "solve failed" not in err
    assert not (out / "report.json").exists()
    assert not (out / "sweep.csv").exists()


def test_weak_residual_is_measured_by_solve_alone(tmp_path, monkeypatch):
    """`lognls solve` measures the weak residual once per well, on the field
    it writes, and writes a finite value; `sweep`, which does not report
    it, measures none, and `solve_multiplicity` leaves it nan."""
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
    assert all(math.isnan(r.weak_res) for r in outcome.results)
    assert measured == []


def test_sweep_empty_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path)]) == 2


def test_sweep_increasing_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path), "--eps", "0.1", "0.2"]) == 2


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
                        lambda u, params, g: real(u, params, g) ** 2)
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
                        lambda u, params, g: 1.001 * real(u, params, g))
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
