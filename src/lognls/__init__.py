"""Multiple positive solutions of the logarithmic Schrodinger equation
-eps^2 Lu + V(x) u = u log u^2 by Nehari-constrained energy minimization,
localized per potential well through a truncated barycenter map and
continued through an increasing sequence of truncation radii. The package
namespace holds only `__version__`: import each name from its module."""

import os as _os
import sys as _sys

# No computation here runs on BLAS threads (the reductions are np.einsum),
# but OpenBLAS starts a worker per extra core when it loads, and each spins
# for its thread timeout: about 0.1 s of CPU per process on 2 cores, spent
# on nothing. OpenBLAS reads its thread count once, at load, so pinning it
# to one thread for numpy's first import lasts for the process; the
# variable is removed again so that processes started from here inherit
# nothing. A numpy already loaded or a thread count the user set is left
# alone.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
import numpy as _numpy  # noqa: E402,F401  (loaded with the package, pinned or not)

__version__ = "0.1.0"
