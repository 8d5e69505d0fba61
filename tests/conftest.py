"""Pin BLAS and OpenMP to one thread before any test module imports NumPy.

On a two-core machine multi-threaded BLAS doubles CPU time without speeding
anything up, and makes the acceptance wall-clock bounds depend on how loaded
the machine is. An explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
