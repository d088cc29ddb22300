"""Test-session settings, applied before any test module imports numpy."""

import os

# One BLAS/OpenMP thread, as the benchmark runs with: more threads multiply
# the verifiers' CPU time and make the timed acceptance criteria swing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
