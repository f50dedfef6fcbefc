"""Tests of the benchmark itself: the correctness gate, the span arithmetic,
the tracer's coverage and the agreement of BENCHMARK.json with the code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import layers
import run
from tracer import SPAN_DTYPE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _write_solve_outputs(out: Path, ref: dict, levels: list[float], status=0):
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"status": status}))
    with open(out / "levels.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["well", "status", "level", "qx", "dist_to_well"])
        for entry, level in zip(ref["wells"], levels):
            w.writerow([entry["well"], "converged", repr(level), 0.0, 1e-9])


def _write_sweep_outputs(out: Path, ref: dict, levels: list[float]):
    out.mkdir()
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "well", "level", "dist_to_well", "status"])
        for entry, level in zip(ref["wells"], levels):
            w.writerow([entry["eps"], entry["well"], repr(level), 1e-9, "converged"])


@pytest.mark.parametrize("workload", ["dw1d", "dw2d"])
def test_gate_trips_on_perturbed_level(tmp_path, workload):
    ref = REFERENCE["workloads"][workload]
    rtol = REFERENCE["level_rtol"]
    levels = [w["level"] for w in ref["wells"]]
    _write_solve_outputs(tmp_path / "ok", ref, levels)
    assert gate.check(ref, rtol, 0, tmp_path / "ok") == (0, [])

    levels[1] *= 1.0 + 1e-10
    _write_solve_outputs(tmp_path / "bad", ref, levels)
    failed, problems = gate.check(ref, rtol, 0, tmp_path / "bad")
    assert failed == 1
    assert "differs from reference" in problems[0]


def test_gate_trips_on_perturbed_sweep_row(tmp_path):
    ref = REFERENCE["workloads"]["sweep1d"]
    rtol = REFERENCE["level_rtol"]
    levels = [w["level"] for w in ref["wells"]]
    _write_sweep_outputs(tmp_path / "ok", ref, levels)
    assert gate.check(ref, rtol, 0, tmp_path / "ok") == (0, [])

    levels[3] -= 1e-9
    _write_sweep_outputs(tmp_path / "bad", ref, levels)
    failed, problems = gate.check(ref, rtol, 0, tmp_path / "bad")
    assert failed == 1 and "(0.2, 2)" in problems[0]


def test_gate_fails_every_well_on_command_failure(tmp_path):
    ref = REFERENCE["workloads"]["dw1d"]
    levels = [w["level"] for w in ref["wells"]]
    _write_solve_outputs(tmp_path / "audit", ref, levels, status=1)
    assert gate.check(ref, 1e-12, 1, tmp_path / "audit")[0] == 2
    assert gate.check(ref, 1e-12, 0, tmp_path / "missing")[0] == 2


def _spans(rows):
    return np.array([(n, t0, t1, p, 1, 0) for n, t0, t1, p in rows], dtype=SPAN_DTYPE)


def test_self_times_close_on_root():
    spans = _spans([(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)])
    assert layers.self_times(spans).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert layers.check_closure(spans) is None
    assert "root" in layers.check_closure(_spans([(0, 0.0, 1.0, -1), (0, 2.0, 3.0, -1)]))
    assert "outside" in layers.check_closure(_spans([(0, 0.0, 1.0, -1), (1, 0.5, 2.0, 0)]))


def test_tracer_wraps_every_imported_copy():
    code = """
import sys, inspect
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
t = Tracer(0)
t.install()
e, s, v, cli = (sys.modules[f"lognls.{m}"] for m in ("energy", "solver", "verify", "cli"))
assert cli.energy is s.energy is v.energy is e.energy
assert hasattr(e.energy, "__wrapped__")
assert hasattr(s._h1_direction, "__wrapped__")
for name, mod in sys.modules.items():
    if name.split(".")[0] != "lognls":
        continue
    for attr, val in vars(mod).items():
        if inspect.isfunction(val) and val.__module__.startswith("lognls.") \\
                and val.__name__ in sys.modules[val.__module__].__all__:
            assert hasattr(val, "__wrapped__"), (name, attr)
"""
    subprocess.run([sys.executable, "-c", code, str(BENCH)], env=_env(), check=True)


def test_traced_command_reports_every_layer_metric(tmp_path):
    config = {
        "problem": {"dim": 1, "eps": 0.4, "wells": [[0.0], [2.0]], "v_inf": 2.0,
                    "width": 0.25},
        "numerics": {"h": 0.05, "R_schedule": [12.0, 16.0]},
        "outputs": {"verbosity": 0},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--stats", str(tmp_path / "st.json"),
         "--trace", str(tmp_path / "tr"), "--run-id", "3", "--",
         "solve", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")],
        env=_env(), check=True, timeout=120)
    spans = np.load(tmp_path / "tr.npy")
    meta = json.loads((tmp_path / "tr.json").read_text())
    assert layers.check_closure(spans) is None
    assert set(spans["run"]) == {3}
    wells = {st["well"] for st in meta["stages"]}
    assert wells == {None, 0, 1}
    assert {st["R"] for st in meta["stages"] if st["well"] is not None} == {12.0, 16.0}

    names = meta["names"]
    energy_parents = {names[spans["name"][p]]
                      for p in spans["parent"][spans["name"] == names.index("energy.energy")]}
    assert {"solver.minimize_localized", "verify.weak_residual",
            "energy.nehari_residual"} <= energy_parents

    m = layers.layer_metrics(spans, names, meta["stages"], solve_s=1.0)
    assert m["solver.iterations"] == sum(st["iterations"] for st in meta["stages"])
    assert m["grid.zero_extend.calls"] >= 2
    produced = set(m) | {"cli.write_outputs.bytes", "trace.overhead_s"}
    assert produced == {x["name"] for x in SPEC["per_layer"]}


def test_metric_descriptions_match_benchmark_json():
    described = json.loads((BENCH / "metrics.json").read_text())
    assert set(described["per_layer"]) == {x["name"] for x in SPEC["per_layer"]}
    assert set(described["end_to_end"]) == {x["name"] for x in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(REFERENCE["workloads"]) == set(run.WORKLOADS)
