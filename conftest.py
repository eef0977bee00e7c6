"""Test-session set-up that must run before anything imports numpy, and the
``[ACCEPTANCE]`` summary.

pytest loads this file before it collects ``perfbench/`` and ``tests/``, whose
modules import numpy. Importing ``mctg`` first gives BLAS and OpenMP one
thread, as in ``perfbench/run.py``: the tests' matrices are small, and extra
BLAS threads only add CPU time and make wall time depend on the machine's
other load.
"""

import os

import mctg


def pytest_report_header():
    return f"mctg {mctg.__version__}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}"


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
