"""Correctness gate: checks the outputs of one CLI command against the
reference levels recorded in reference.json."""

from __future__ import annotations

import csv
import json
from pathlib import Path


def _level_ok(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * abs(ref)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_row(row: dict, ref_level: float, ref: dict, rtol: float) -> list[str]:
    problems = []
    if row["status"] != "converged":
        problems.append(f"status {row['status']}")
        return problems
    level = float(row["level"])
    if not _level_ok(level, ref_level, rtol):
        problems.append(f"level {level!r} differs from reference {ref_level!r} "
                        f"by more than {rtol:g} relative")
    dist = float(row["dist_to_well"])
    if not dist <= ref["barycenter_radius"]:
        problems.append(f"barycenter {dist!r} from its well, more than rho0/2 = "
                        f"{ref['barycenter_radius']!r}")
    return problems


def check(ref: dict, rtol: float, exit_code: int, out: Path) -> tuple[int, list[str]]:
    """Gate one command's outputs in `out`.

    Returns the number of failed wells and a message per problem. A failure
    of the command as a whole (exit code, missing output, audit status)
    fails every well it attempted.
    """
    keys = [(w.get("eps"), w["well"]) for w in ref["wells"]]
    expected = {k: w["level"] for k, w in zip(keys, ref["wells"])}
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if ref["command"] == "solve":
        report = out / "report.json"
        if not report.is_file():
            return len(keys), problems + ["report.json missing"]
        status = json.loads(report.read_text())["status"]
        if status != 0:
            problems.append(f"report.json status {status}")
        table = out / "levels.csv"
    else:
        table = out / "sweep.csv"
    if not table.is_file():
        return len(keys), problems + [f"{table.name} missing"]
    if problems:
        return len(keys), problems

    failed = set()
    seen = set()
    for row in _read_rows(table):
        key = (float(row["eps"]) if "eps" in row else None, int(row["well"]))
        if key not in expected or key in seen:
            return len(keys), problems + [f"unexpected row {key} in {table.name}"]
        seen.add(key)
        row_problems = _check_row(row, expected[key], ref, rtol)
        if row_problems:
            failed.add(key)
            problems.extend(f"well {key}: {p}" for p in row_problems)
    for key in expected.keys() - seen:
        failed.add(key)
        problems.append(f"well {key}: no row in {table.name}")
    return len(failed), problems
