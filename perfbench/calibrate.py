"""Sandbox speed probe for set-up time: a fixed task, independent of the
lognls sources, timed.

The machine this benchmark was defined on is a shared 2-core VM whose speed
drifts by up to 1.5x over minutes. Set-up time (interpreter start and
imports) moves with a bare interpreter start sample for sample, so a run
times this probe next to its set-up probes and commands and scales setup_s
by `probe_ref_s / median probe`. The probe is a fresh interpreter importing
numpy, the library lognls is built on, so it moves with the machine and
never with the program: a change to lognls moves the scaled set-up time
exactly as it moves the raw one. The solve phases do not follow the probe
(scaling dw2d's times by it tripled their run-to-run spread), so wall_s,
solve_s and cpu_s are reported raw.
"""

from __future__ import annotations

import subprocess
import sys
import time

PROBE = [sys.executable, "-c", "import numpy, time; print(time.monotonic())"]


def probe() -> float:
    """Seconds from starting the probe process to the end of its import (its
    exit is left out: thread shutdown there takes steps of 50 ms)."""
    t0 = time.monotonic()
    done = subprocess.run(PROBE, check=True, timeout=60, capture_output=True, text=True)
    return float(done.stdout) - t0
