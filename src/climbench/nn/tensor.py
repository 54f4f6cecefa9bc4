"""The loss node: one loss value and the closed-form pass that writes its gradient.

Every gradient in climbench is computed in closed form, in numpy. The five
losses that are not a network's own (REINFORCE's, PPO's, TRPO's value loss
and surrogate, and SAC's and TQC's entropy-coefficient loss) each build one
``Tensor`` and call its ``backward``. The node has no operators and no graph;
it exists so that the benchmark's tracer, which wraps ``Tensor.backward`` as
``nn.backward``, times those loss-gradient passes. It can go once the tracer
stops naming it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    """A loss: its value ``data`` and the pass that writes its gradient."""

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward: Callable[[], None]):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward

    def backward(self) -> None:
        """Run the loss's gradient pass, which writes wherever its builder chose."""
        self._backward()
