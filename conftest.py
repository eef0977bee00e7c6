"""Test-session set-up that must run before anything imports numpy, and the
``[ACCEPTANCE]`` summary.

pytest loads this file before it collects ``perfbench/`` and ``tests/``, whose
modules import numpy. BLAS and OpenMP get one thread, as in
``perfbench/run.py``: the tests' matrices are small, and extra BLAS threads
only add CPU time and make wall time depend on the machine's other load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"


def pytest_terminal_summary(terminalreporter):
    """Repeat, in run order, the ``[ACCEPTANCE]`` lines that passed and failed
    tests printed, so a run without ``-s`` shows them too."""
    reports = [r for outcome in ("passed", "failed")
               for r in terminalreporter.stats.get(outcome, []) if r.when == "call"]
    lines = [line for r in sorted(reports, key=lambda r: r.start)
             for line in r.capstdout.splitlines() if line.startswith("[ACCEPTANCE]")]
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
