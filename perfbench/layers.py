"""Per-layer metrics from the spans of one traced CLI command.

Self time is a span's duration minus the durations of its direct children;
`incl_s` is the whole duration. Kernel times are the median duration of one
call at a given field length. Kernel bytes are computed, not measured: one
read of each input array and one write of each output array, in doubles.
"""

from __future__ import annotations

import numpy as np

ENERGY_FNS = ("energy", "gradient", "nehari_scale", "nehari_residual", "log_sobolev_gap")

# kernel -> (span name, computed bytes per node for a field of dim d)
KERNELS = {
    "laplacian_apply": ("grid.laplacian_apply", lambda d: 16),   # u in, Lu out
    "energy": ("energy.energy", lambda d: 24),                   # u, V, weights
    "gradient": ("energy.gradient", lambda d: 33),               # u, V, weights, mask; out
    "nehari_scale": ("energy.nehari_scale", lambda d: 24),       # u, V, weights
    "q_eps": ("barycenter.q_eps", lambda d: 8 * (2 + d)),        # u, weights, chi (N x d)
    "precond": ("solver._h1_direction", lambda d: 16),           # r in, d out
}
KERNEL_SIZES = {12001: 1, 58081: 2}   # ROADMAP sizes: 1d h=0.01 R=60, 2d h=0.1 R=12

WRITERS = ("grid.save_field", "cli._write_levels", "cli._write_history",
           "solver.rescale_to_original", "verify.VerificationReport.to_json")


def self_times(spans: np.ndarray) -> np.ndarray:
    dur = spans["t1"] - spans["t0"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    return dur - child


def check_closure(spans: np.ndarray) -> str | None:
    """None when the spans form one tree whose self times sum to the root's
    duration and every child lies inside its parent; else the problem."""
    roots = np.flatnonzero(spans["parent"] < 0)
    if len(roots) != 1:
        return f"{len(roots)} root spans"
    root = roots[0]
    total = float(self_times(spans).sum())
    root_dur = float(spans["t1"][root] - spans["t0"][root])
    if abs(total - root_dur) > 1e-9 * max(1.0, root_dur):
        return f"self times sum to {total!r} s, root span lasts {root_dur!r} s"
    kids = spans["parent"] >= 0
    par = spans[spans["parent"][kids]]
    if np.any(spans["t0"][kids] < par["t0"]) or np.any(spans["t1"][kids] > par["t1"]):
        return "a child span lies outside its parent"
    return None


def layer_metrics(spans: np.ndarray, names: list[str], stages: list[dict],
                  solve_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command. `solve_s` is the untraced
    time inside solve_multiplicity, the base of `solver.s_per_iter`."""
    self_s = self_times(spans)
    dur = spans["t1"] - spans["t0"]
    ids = {n: i for i, n in enumerate(names)}
    by_name = spans["name"]

    def mask(name):   # a name the program no longer has ran 0 times
        return by_name == ids.get(name, -1)

    def calls(name):
        return int(mask(name).sum())

    def s(name):
        return float(self_s[mask(name)].sum())

    def incl(name):
        return float(dur[mask(name)].sum())

    m: dict[str, float] = {}

    def counted(prefix, name):
        n, t = calls(name), s(name)
        m[f"{prefix}.calls"] = n
        m[f"{prefix}.s"] = t
        m[f"{prefix}.us_per_call"] = 1e6 * t / n if n else 0.0

    m["cli.load_config.s"] = s("cli.load_config")
    m["cli.validate.s"] = s("potential.validate")
    writer = np.isin(by_name, [ids.get(n, -1) for n in WRITERS])
    top_writer = writer & ~np.isin(spans["parent"], np.flatnonzero(writer))
    m["cli.write_outputs.s"] = float(dur[top_writer].sum())

    counted("potential.eval_scaled", "potential.eval_scaled")
    counted("grid.laplacian_apply", "grid.laplacian_apply")
    counted("grid.integrate", "grid.integrate")
    m["grid.zero_extend.calls"] = calls("grid.zero_extend")

    iterations = sum(st["iterations"] for st in stages)
    for fn in ENERGY_FNS:
        counted(f"energy.{fn}", f"energy.{fn}")
    evals = sum(calls(f"energy.{fn}") for fn in ENERGY_FNS)
    m["energy.evals_per_iter"] = evals / iterations if iterations else 0.0

    counted("barycenter.q_eps", "barycenter.q_eps")
    m["barycenter.region_of.calls"] = calls("barycenter.region_of")

    minimize = mask("solver.minimize_localized")
    trials = int((mask("energy.nehari_scale")
                  & np.isin(spans["parent"], np.flatnonzero(minimize))).sum()) - len(stages)
    m["solver.iterations"] = iterations
    for well in (0, 1):
        m[f"solver.iterations.well{well + 1}"] = sum(
            st["iterations"] for st in stages if st["well"] == well)
    m["solver.stages"] = len(stages)
    m["solver.trials"] = trials
    m["solver.accept_ratio"] = iterations / trials if trials else 0.0
    m["solver.s_per_iter"] = solve_s / iterations if iterations else 0.0
    counted("solver.precond", "solver._h1_direction")
    m["solver.ground_level.calls"] = calls("solver.ground_level")
    m["solver.ground_level.s"] = s("solver.ground_level")
    m["solver.ground_level.incl_s"] = incl("solver.ground_level")
    for fn in ("seed_well", "continue_in_R", "minimize_localized"):
        m[f"solver.{fn}.s"] = s(f"solver.{fn}")
    m["solver.minimize_localized.incl_s"] = incl("solver.minimize_localized")

    counted("verify.weak_residual", "verify.weak_residual")
    m["verify.weak_residual.incl_s"] = incl("verify.weak_residual")
    for fn in ("audit", "identity_suite"):
        m[f"verify.{fn}.s"] = s(f"verify.{fn}")
        m[f"verify.{fn}.incl_s"] = incl(f"verify.{fn}")

    for kernel, (name, bytes_per_node) in KERNELS.items():
        for n, dim in KERNEL_SIZES.items():
            at_n = mask(name) & (spans["n"] == n)
            ran = bool(at_n.any())
            m[f"kernel.{kernel}.us.n{n}"] = 1e6 * float(np.median(dur[at_n])) if ran else 0.0
            m[f"kernel.{kernel}.bytes.n{n}"] = bytes_per_node(dim) * n if ran else 0
    return m
