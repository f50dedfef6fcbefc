"""Run one lognls CLI command in this process and time its solves.

    python3 perfbench/child.py --stats FILE [--trace FILE --run-id N]
                               [--setup-only] -- <lognls CLI arguments>

It calls `lognls.cli.main` (what the `lognls` script runs) with the given
arguments, so `src` must be on PYTHONPATH. Every `solve_multiplicity` call is
timed on the system-wide monotonic clock, so the parent can compare the first
entry with the moment it started this process. `--setup-only` stops at the
first entry, which makes the set-up probe. `--trace` also wraps every public
lognls function (see tracer.py) and writes the spans when the command ends.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(BaseException):
    """Raised at the first solve entry of a set-up probe; passes through the
    CLI's handlers, which catch only the package's own errors."""


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    stats_path = opts[opts.index("--stats") + 1]
    setup_only = "--setup-only" in opts
    tracer = None
    if "--trace" in opts:
        from tracer import Tracer

        tracer = Tracer(int(opts[opts.index("--run-id") + 1]))
        tracer.install()

    import lognls
    import lognls.cli
    import lognls.solver

    entries: list[float] = []
    exits: list[float] = []
    solve = lognls.solver.solve_multiplicity

    def timed_solve(*args, **kwargs):
        entries.append(time.monotonic())
        if setup_only:
            raise _SetupDone
        try:
            return solve(*args, **kwargs)
        finally:
            exits.append(time.monotonic())

    for mod in (lognls, lognls.cli, lognls.solver):
        mod.solve_multiplicity = timed_solve

    code = None
    try:
        code = lognls.cli.main(cli_args)
    except _SetupDone:
        code = 0
    finally:
        with open(stats_path, "w") as fh:
            json.dump({"solve_entry": entries, "solve_exit": exits, "code": code}, fh)
        if tracer is not None:
            tracer.dump(opts[opts.index("--trace") + 1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
