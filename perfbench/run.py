"""lognls benchmark: runs one CLI workload in fresh child processes, checks
every answer and prints the metrics listed in BENCHMARK.json.

    python3 perfbench/run.py --workload {dw1d,dw2d,sweep1d} --seed N \
                             --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it needs `src/lognls`,
`configs/` and `BENCHMARK.json`, and writes only under `perfbench/.work`.

A run first starts SETUP_PROBES probes that stop at the first
`solve_multiplicity` entry, then starts one command at a time (closed loop,
one client) for as long as the next one is expected to end within
`--seconds`; the first always runs. Each command is a fresh
`python3 perfbench/child.py -- <lognls args>` with the thread settings of the
caller. `--seed` goes to the CLI's `--seed`, which moves only the
weak-residual probe positions, so the levels are the same for every seed.

--trace 0 prints the end-to-end metrics, medians over the commands. Each
command and set-up probe is preceded by SPEED_PROBES speed probes
(calibrate.py), and `setup_s` is scaled by `probe_ref_s / median probe` of
the run; its raw median is printed too.
--trace 1 alternates untraced and traced commands and prints the per-layer
metrics of the traced ones (medians), plus the tracing overhead.
Every command's outputs pass through gate.py; a failure makes the result
`"correct": false` and the exit code 1. The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import gate
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

WORKLOADS = {
    "dw1d": ["solve", "--config", "configs/double_well.json"],
    "dw2d": ["solve", "--config", "perfbench/configs/dw2d.json"],
    "sweep1d": ["sweep", "--config", "configs/double_well.json",
                "--eps", "0.4", "0.2", "0.1"],
}
SETUP_PROBES = 3
SPEED_PROBES = 2      # speed probes before each command and set-up probe
RUN_LIMIT_S = 170.0   # a run must end within 180 s; commands past this are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import scipy.fft  # noqa: F401  (the solver's DST; loads what the CLI loads)

    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                found[Path(path).name] = int(getattr(lib, sym)())
                break
    return found


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for proc, killing it after `timeout` s; return (status, rusage)."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        if not ready:
            proc.kill()
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.cmd = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, setup_only=False, trace=False) -> dict:
        """Run one command; return its timings, resource use and outputs."""
        self.count += 1
        tag = f"c{self.count}"
        out = self.workdir / tag
        stats = self.workdir / f"{tag}.stats.json"
        trace_path = self.workdir / f"{tag}.trace"
        argv = [sys.executable, str(BENCH / "child.py"), "--stats", str(stats)]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv += ["--trace", str(trace_path), "--run-id", str(self.count)]
        argv += ["--", *self.cmd, "--out", str(out), "--seed", str(self.seed)]
        probe_s = [calibrate.probe() for _ in range(SPEED_PROBES)]
        with open(self.workdir / f"{tag}.log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            code, usage = _wait(proc, self.deadline - t0)
            t1 = time.monotonic()
        sample = {"tag": tag, "code": code, "probe_s": probe_s, "wall_s": t1 - t0,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if stats.is_file():
            st = json.loads(stats.read_text())
            if st["solve_entry"]:
                sample["setup_s"] = st["solve_entry"][0] - t0
            sample["solve_s"] = sum(b - a for a, b in zip(st["solve_entry"], st["solve_exit"]))
        if out.is_dir():
            sample["out_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        sample["out"] = out
        sample["trace"] = trace_path if trace else None
        return sample

    def log_tail(self, tag: str) -> str:
        lines = (self.workdir / f"{tag}.log").read_text().splitlines()
        return "\n".join(lines[-5:])


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "lognls" / "cli.py",
              ROOT / "configs" / "double_well.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: not a lognls checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    ref = reference["workloads"][args.workload]
    rtol = reference["level_rtol"]

    t_start = time.monotonic()
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"# environment {json.dumps(env)}")

    runner = Runner(args.workload, args.seed, workdir, t_start + RUN_LIMIT_S)
    problems: list[str] = []
    attempted = failed = 0

    def gated(sample):
        nonlocal attempted, failed
        n_bad, msgs = gate.check(ref, rtol, sample["code"], sample["out"])
        attempted += len(ref["wells"])
        failed += n_bad
        problems.extend(f"{sample['tag']}: {m}" for m in msgs)
        if msgs:
            problems.append(f"{sample['tag']} log tail:\n{runner.log_tail(sample['tag'])}")
        shutil.rmtree(sample["out"], ignore_errors=True)
        return sample

    probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    for p in probes:
        if p["code"] != 0 or "setup_s" not in p:
            problems.append(f"{p['tag']}: set-up probe exit code {p['code']}\n"
                            f"{runner.log_tail(p['tag'])}")

    plain, traced = [], []
    measure_start = time.monotonic()
    while not problems:
        if args.trace and len(plain) > len(traced):
            traced.append(gated(runner.spawn(trace=True)))
        else:
            plain.append(gated(runner.spawn()))
        # start another command only if one more should end within --seconds
        elapsed = time.monotonic() - measure_start
        expected = _median(s["wall_s"] for s in plain + traced)
        if elapsed + expected > args.seconds and (traced or not args.trace):
            break

    probe_times = [t for s in probes + plain + traced for t in s["probe_s"]]
    speed = reference["probe_ref_s"] / _median(probe_times)
    print(f"# speed probe median {_median(probe_times)!r} s, reference "
          f"{reference['probe_ref_s']!r} s: setup_s scaled by {speed!r}")
    if args.trace:
        metrics = _layer_metrics(plain, traced, problems)
        names = spec["per_layer"]
    else:
        with_setup = [s for s in probes + plain if "setup_s" in s]
        raw = {
            "wall_s": _median(s["wall_s"] for s in plain),
            "setup_s": _median(s["setup_s"] for s in with_setup) if with_setup else None,
            "solve_s": _median(s.get("solve_s", 0.0) for s in plain),
            "cpu_s": _median(s["cpu_s"] for s in plain),
        }
        print(f"# raw medians {json.dumps(raw)}")
        metrics = dict(raw)
        if raw["setup_s"] is not None:
            metrics["setup_s"] = raw["setup_s"] * speed
        metrics["peak_rss_mb"] = _median(s["peak_rss_mb"] for s in plain)
        metrics["wells_ok_frac"] = 1.0 - failed / attempted
        names = spec["end_to_end"]

    print(f"# {len(probes)} set-up probes, {len(plain)} untraced and {len(traced)} "
          f"traced commands, {time.monotonic() - t_start:.1f} s")
    for m in names:
        print(f"{m['name']:40s} {metrics.get(m['name'])!r:>24} {m['unit']}")
    summary = {"workload": args.workload, "seed": args.seed, "environment": env,
               "probe_s": probe_times, "speed": speed,
               "samples": [{k: v for k, v in s.items() if k not in ("out", "trace")}
                           for s in probes + plain + traced],
               "metrics": metrics, "problems": problems}
    (WORK / f"{args.workload}.last.json").write_text(json.dumps(summary, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems:
        print(f"benchmark: {msg}", file=sys.stderr)
    if problems and not failed:
        failed = 1   # a probe or the trace failed: count it against the run
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _layer_metrics(plain, traced, problems) -> dict:
    per_run = []
    for s in traced:
        if not Path(f"{s['trace']}.npy").is_file():
            problems.append(f"{s['tag']}: wrote no trace")
            continue
        spans = np.load(f"{s['trace']}.npy")
        meta = json.loads(Path(f"{s['trace']}.json").read_text())
        closure = layers.check_closure(spans)
        if closure:
            problems.append(f"{s['tag']}: trace does not close: {closure}")
        solve_s = _median(p.get("solve_s", 0.0) for p in plain)
        m = layers.layer_metrics(spans, meta["names"], meta["stages"], solve_s)
        m["cli.write_outputs.bytes"] = s.get("out_bytes", 0)
        per_run.append(m)
    if not per_run:
        return {}
    metrics = {k: _median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = (_median(s["wall_s"] for s in traced)
                                   - _median(s["wall_s"] for s in plain))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
