"""In-memory span tracer that wraps lognls functions from outside the package.

Each wrapped call records one span: name, start, end, parent span, run id
and the length of its first array argument (the field length, 0 if none).
Spans are kept in memory and written out once, when the traced process ends.

The tracer assumes one thread: the CLI runs wells sequentially unless it is
given `--jobs`, which the benchmark never passes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("grid", "potential", "energy", "barycenter", "solver", "verify", "cli")

# private callables traced besides each module's __all__: the DST-I H^1
# preconditioner called by the solver, and the CLI's output writers
EXTRA = (
    ("solver", "_h1_direction"),
    ("cli", "_write_levels"),
    ("cli", "_write_history"),
)

SPAN_DTYPE = np.dtype([
    ("name", "i4"), ("t0", "f8"), ("t1", "f8"),
    ("parent", "i8"), ("run", "i4"), ("n", "i8"),
])


def _field_len(args) -> int:
    for a in args:
        if type(a) is np.ndarray:
            return a.size
    return 0


class Tracer:
    """Wraps callables so that each call appends a span; see `install`."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.records: list = []
        self.stack: list[int] = [-1]
        self.stages: list[dict] = []

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        records, stack, run_id = self.records, self.stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records[idx] = (nid, t0, t1, parent, run_id, _field_len(args))
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def _record_stage(self, args, kwargs, result):
        # minimize_localized(seed, i, eps, params, config, g): one R stage
        # of one well (i is None for the constant-coefficient ground levels)
        bound = inspect.signature(self._minimize).bind(*args, **kwargs)
        self.stages.append({
            "well": bound.arguments["i"],
            "eps": float(bound.arguments["eps"]),
            "R": float(result.R_final),
            "n": int(result.u.size),
            "iterations": int(result.iterations),
            "status": result.status.value,
        })

    def install(self) -> None:
        """Wrap every public function of each lognls module, plus EXTRA, and
        rebind each wrapped function under every name that holds it in any
        loaded lognls module (covering `from .x import f` copies)."""
        import lognls.cli  # noqa: F401  (loads every module)
        from lognls.verify import VerificationReport

        self._minimize = sys.modules["lognls.solver"].minimize_localized
        targets = []
        for short in MODULES:
            mod = sys.modules[f"lognls.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((short, attr, fn))
        for short, attr in EXTRA:
            fn = getattr(sys.modules[f"lognls.{short}"], attr, None)
            if fn is not None:
                targets.append((short, attr, fn))

        replace = {}
        for short, attr, fn in targets:
            hook = self._record_stage if fn is self._minimize else None
            replace[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn, hook))
        for modname, mod in list(sys.modules.items()):
            if modname != "lognls" and not modname.startswith("lognls."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        VerificationReport.to_json = self.wrap(
            "verify.VerificationReport.to_json", VerificationReport.to_json)

    def dump(self, path) -> None:
        """Write spans (.npy) and their name table and R stages (.json)."""
        np.save(f"{path}.npy", np.array(self.records, dtype=SPAN_DTYPE))
        with open(f"{path}.json", "w") as fh:
            json.dump({"names": self.names, "stages": self.stages}, fh)
