"""Run BLAS on one thread in the tests, as the benchmark does.

This module is imported before any test module, so the variables are set
before numpy loads its BLAS. Small dense products, such as the damping
operator's block inverses, run several times slower under OpenBLAS's
default threads on a two-core machine. A value set in the environment wins.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
