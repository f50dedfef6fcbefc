"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values follow the analytic Gausson oracle: the constant-coefficient
problem -Lu + w u = u log u^2 is solved exactly by A exp(-|x|^2/2) with
2 log A = N + w, so the ground level is  A^2/2 * pi^(N/2) = e^(N+w)/2 * pi^(N/2).
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lognls.cli import main
from lognls.energy import EnergyParams, energy
from lognls.grid import build_grid
from lognls.solver import SolverConfig, gausson, ground_level
from lognls.verify import smooth_random_field

E = math.e
SQPI = math.sqrt(math.pi)
C0_1D = 0.5 * E**2 * SQPI          # N=1, w=1: e^2 sqrt(pi) / 2
CINF_1D = 0.5 * E**3 * SQPI        # N=1, w=2: e^3 sqrt(pi) / 2
C0_2D = 0.5 * E**3 * math.pi       # N=2, w=1: e^3 pi / 2
DOUBLE_WELL = Path(__file__).resolve().parent.parent / "configs" / "double_well.json"


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_1_gausson_reproduction(gausson_run):
    res = gausson_run["result"]
    g = gausson_run["grid"]
    elapsed = gausson_run["elapsed"]
    weak = gausson_run["weak_res"]
    level_err = abs(res.level - C0_1D) / C0_1D
    ana = gausson(g, 1.0)
    sup_err = np.abs(res.u - ana).max() / np.abs(ana).max()
    ok = (res.status.value == "converged" and level_err <= 5e-3
          and sup_err <= 1e-2 and weak <= 1e-3 and elapsed <= 10.0)
    _line(1, ok, f"level rel err {level_err:.2e} (<=5e-3), sup err {sup_err:.2e} "
                 f"(<=1e-2), weak {weak:.2e} (<=1e-3), {elapsed:.2f}s (<=10s)")
    assert res.status.value == "converged"
    assert level_err <= 5e-3
    assert sup_err <= 1e-2
    assert weak <= 1e-3
    assert elapsed <= 10.0


def test_criterion_2_level_gap():
    cfg1 = SolverConfig(h=0.01, R_schedule=(10.0,))
    c0 = ground_level(1.0, 1, cfg1)
    c_inf = ground_level(2.0, 1, cfg1)
    err0 = abs(c0 - C0_1D) / C0_1D
    err_inf = abs(c_inf - CINF_1D) / CINF_1D

    cfg2 = SolverConfig(h=0.05, R_schedule=(8.0,))
    c0_2d = ground_level(1.0, 2, cfg2)
    # oracle value e^(N+w)/2 * pi^(N/2) = e^3 pi / 2 for N=2, w=1 (the
    # criterion's printed e^2 pi / 2 contradicts the amplitude law above)
    err2d = abs(c0_2d - C0_2D) / C0_2D

    ok = err0 <= 5e-3 and err_inf <= 5e-3 and c0 < c_inf and err2d <= 2e-2
    _line(2, ok, f"c0 err {err0:.2e}, c_inf err {err_inf:.2e} (<=5e-3), "
                 f"gap {c_inf - c0:.4f} > 0, 2d err {err2d:.2e} (<=2e-2)")
    assert err0 <= 5e-3
    assert err_inf <= 5e-3
    assert c0 < c_inf
    assert err2d <= 2e-2


def test_criterion_3_multiplicity(tmp_path):
    out = tmp_path / "dw"
    t0 = time.perf_counter()
    code = main(["solve", "--config", str(DOUBLE_WELL),
                 "--out", str(out)])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "report.json").read_text())
    wells = report["wells"]
    converged = [w for w in wells if w["status"] == "converged"]
    rho0_half = 0.25  # rho0 = min well distance / 4 = 0.5
    checks = {
        "exit 0": code == 0,
        "exactly 2 converged": len(converged) == 2 and not report["failures"],
        "positive": all(w["positivity"]["ok"] for w in converged),
        "core barycenters": all(w["dist_to_well"] <= rho0_half for w in converged),
        "levels < c0+gamma": all(w["separation_ok"] for w in converged),
        "distinct": report["distinct_ok"],
        "runtime <= 120s": elapsed <= 120.0,
    }
    ok = all(checks.values())
    _line(3, ok, ", ".join(f"{k}: {v}" for k, v in checks.items())
          + f" ({elapsed:.1f}s)")
    for name, passed in checks.items():
        assert passed, name
    # gamma is the default (c_inf - c0)/4
    assert report["gamma"] == pytest.approx(
        (report["c_inf"] - report["c0"]) / 4.0, rel=1e-12)
    # the two solutions live 20 length units apart: L2 separation is large
    assert all(p["rel_l2_distance"] > 1.0 for p in report["distinct_pairs"])


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed <= 60.0
    _line(4, ok, f"verify exit {code}, {elapsed:.1f}s (<=60s)")
    assert code == 0
    assert elapsed <= 60.0


def test_criterion_5_gradient_consistency():
    g = build_grid(1, 10.0, 0.05)
    params = EnergyParams(eps=1.0, potential=1.0)
    rng = np.random.default_rng(2024)
    ts = np.array([1e-2, 5e-3, 2.5e-3])
    orders = []
    for _ in range(20):
        u = smooth_random_field(g, rng, positive=True)
        v = smooth_random_field(g, rng)
        pair = float(np.dot(energy(u, params, g).gradient(), v))
        errs = []
        for t in ts:
            jp = energy(u + t * v, params, g).level
            jm = energy(u - t * v, params, g).level
            errs.append(abs(pair - (jp - jm) / (2.0 * t)))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        orders.append(slope)
    worst = min(orders)
    ok = worst >= 1.8
    _line(5, ok, f"observed order over 20 fields: min {worst:.3f} (>=1.8), "
                 f"median {np.median(orders):.3f}")
    assert worst >= 1.8


def test_criterion_6_continuation_stability(double_well_run):
    out = double_well_run["outcome"]
    gaps = []
    ok = True
    for res in out.results:
        levels = [st.level for st in res.stages]
        assert len(levels) >= 2
        gaps.append(abs(levels[-1] - levels[-2]))
        slack = 64.0 * np.finfo(float).eps * max(1.0, abs(levels[0]))
        monotone = all(b <= a + slack for a, b in zip(levels, levels[1:]))
        ok = ok and monotone and gaps[-1] <= 1e-6
    _line(6, ok, f"final-doubling level gaps {[f'{x:.2e}' for x in gaps]} "
                 f"(<=1e-6), monotone within float slack")
    assert ok


def test_criterion_7_localization_trend(tmp_path, double_well_run):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(DOUBLE_WELL),
                 "--out", str(out), "--eps", "0.4", "0.2", "0.1"])
    assert code == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    # distances at or below the measurement floor (solver tolerance noise)
    # count as ties; the trend must never grow above it
    floor = 1e-6
    trend_ok = True
    detail = []
    for well in ("1", "2"):
        seq = [(float(r["eps"]), float(r["dist_to_well"]))
               for r in rows if r["well"] == well and r["status"] == "converged"]
        seq.sort(key=lambda p: -p[0])
        detail.append(f"well {well}: " + " -> ".join(f"{d:.2e}" for _, d in seq))
        for (_, d_prev), (_, d_next) in zip(seq, seq[1:]):
            if d_next > max(d_prev, floor):
                trend_ok = False
    _line(7, trend_ok, "; ".join(detail) + f" (nonincreasing above {floor:.0e} floor)")
    assert trend_ok
    # levels at the smallest eps sit below c0 + gamma
    dw = double_well_run["outcome"]
    smallest = min(float(r["eps"]) for r in rows)
    for r in rows:
        if float(r["eps"]) == smallest and r["status"] == "converged":
            assert float(r["level"]) < dw.c0 + dw.gamma


def test_criterion_8_honest_failure_out_of_regime(tmp_path):
    cfg = json.loads(DOUBLE_WELL.read_text())
    cfg["problem"]["eps"] = 5.0
    cfg["outputs"]["verbosity"] = 0
    path = tmp_path / "eps5.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run5"
    code = main(["solve", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    converged = [w for w in report["wells"] if w["status"] == "converged"]
    healthy = [w for w in converged
               if w.get("ok") and w.get("region_ok") and w.get("separation_ok")]
    ok = code == 1 and report["status"] == 1 and len(healthy) < 2
    _line(8, ok, f"exit {code}, report status {report['status']}, "
                 f"converged-and-healthy wells: {len(healthy)} (<2)")
    assert code == 1
    assert report["status"] == 1
    assert len(healthy) < 2
