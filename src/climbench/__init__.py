"""climbench: continuous-action RL algorithms benchmarked on idealised climate tasks.

Importing climbench before numpy runs numpy's bundled OpenBLAS on one thread,
unless ``OPENBLAS_NUM_THREADS`` is already set. The nets here are at most 256
wide, so a second BLAS thread adds no speed: on a shared machine it waits for a
busy core, each pool worker's threads compete for the same cores, and a
reduction split across two threads can move a learner's last bits. Set the
variable to choose another thread count.
"""

import os

# read by OpenBLAS when numpy loads it, so only before numpy's first import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
