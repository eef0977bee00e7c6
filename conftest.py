"""Test-session set-up that must run before anything imports numpy.

pytest loads this file before it collects ``perfbench/`` and ``tests/``, whose
modules import numpy. BLAS and OpenMP get one thread, as in
``perfbench/run.py``: the tests' matrices are small, and extra BLAS threads
only add CPU time and make wall time depend on the machine's other load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
