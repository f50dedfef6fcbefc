import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lognls
from lognls.cli import load_config, main
from lognls.errors import ConfigError

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


@pytest.mark.parametrize("name", ["config.rng_sed", "numerics.delta", "solver.grad_tl"])
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
    assert (out / "fields" / "u_well1.csv").exists()
    assert (out / "fields" / "v_well1.csv").exists()


def test_solve_deterministic_outputs(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "levels.csv").read_bytes() == (out2 / "levels.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "fields" / "u_well1.csv").read_bytes() == \
        (out2 / "fields" / "u_well1.csv").read_bytes()


def test_solve_bad_config_exits_2(tmp_path):
    bad = json.loads(json.dumps(SINGLE_WELL))
    bad["numerics"]["delta"] = 0.5
    path = _write(tmp_path, bad)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


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


def _run_module(*args, **env_vars):
    """Run ``python -m lognls`` on the package imported here, so the
    subprocess tests this checkout whatever is installed or on PATH;
    env_vars are set in the subprocess's environment."""
    src = str(Path(lognls.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lognls", *args],
                          capture_output=True, text=True, env=env)


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


def test_entry_point_passes_exit_code(tmp_path):
    proc = _run_module("solve", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2, proc.stderr


def test_solve_outputs_independent_of_blas_threads(tmp_path):
    # 12,001 nodes: long enough that np.dot would run on OpenBLAS threads,
    # whose partial sums make the last digits depend on the thread count
    cfg = json.loads(json.dumps(SINGLE_WELL))
    cfg["numerics"] = {"h": 0.01, "R_schedule": [60.0]}
    cfg["outputs"]["dump_fields"] = False
    path = _write(tmp_path, cfg)
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _run_module("solve", "--config", str(path), "--out", str(out),
                           OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "levels.csv").read_bytes())
    assert tables[0] == tables[1]


def test_sweep_smoke_and_csv(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--eps", "0.4", "0.2"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "eps,well,level,dist_to_well,status"
    assert len(rows) == 3


def test_sweep_empty_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path)]) == 2


def test_sweep_increasing_eps_exits_2(tmp_path):
    path = _write(tmp_path, SINGLE_WELL)
    assert main(["sweep", "--config", str(path), "--eps", "0.1", "0.2"]) == 2


def test_verify_subcommand_passes():
    assert main(["verify"]) == 0


def test_verify_verbose_prints_margins(capsys):
    assert main(["verify", "--verbose"]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    # per-check numeric margins are printed in verbose mode
    assert "sup=" in captured and "gap=" in captured
