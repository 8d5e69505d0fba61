"""Pin BLAS and OpenMP to one thread before any test module imports NumPy.

On a two-core machine multi-threaded BLAS doubles CPU time without speeding
anything up, and makes the acceptance wall-clock bounds depend on how loaded
the machine is. An explicit setting in the environment still wins.

`HYPOTHESIS_PROFILE=ci` selects a derandomized Hypothesis profile: every run
draws the same examples, so a property that fails in CI fails again locally.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
