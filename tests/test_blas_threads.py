"""Importing climbench runs numpy's OpenBLAS on one thread unless the user set
``OPENBLAS_NUM_THREADS``; each case imports it in a fresh interpreter and
counts the process's threads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

COUNT_THREADS = ("import os, climbench.experiments; "
                 "print(len(os.listdir('/proc/self/task')))")


def threads_after_import(value):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    out = subprocess.run([sys.executable, "-c", COUNT_THREADS], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):   # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas


CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count())

pytestmark = [
    pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                       reason="counts threads in /proc/self/task"),
    pytest.mark.skipif(not openblas(), reason="numpy is not built on OpenBLAS"),
]


def test_unset_variable_gives_one_thread():
    assert threads_after_import(None) == 1


@pytest.mark.skipif(CORES < 2,
                    reason="OpenBLAS starts no more threads than there are cores")
def test_set_variable_wins():
    assert threads_after_import("2") == 2
