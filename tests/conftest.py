"""Shared test set-up.

climbench is imported first, before any test module imports numpy, so the
suite runs BLAS at the thread count the CLI runs it at (one, unless
``OPENBLAS_NUM_THREADS`` is set). Children that set the variable keep their
value.

The hypothesis examples are derived from each test function alone and no
failure database is kept, so every run draws the same examples; no deadline
applies, since a loaded machine can slow any single example.
"""

import importlib

importlib.import_module("climbench")  # before numpy: it sets the BLAS threads

from hypothesis import settings

settings.register_profile("climbench", deadline=None, derandomize=True,
                          database=None, max_examples=100)
settings.load_profile("climbench")
