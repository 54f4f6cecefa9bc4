"""Small fully-connected networks with closed-form gradients.

A net is affine layers with tanh between them and a raw affine output; any
map into an action box belongs to the policy that reads the net. A Gaussian
policy's net (``with_log_std``) also holds a free per-dimension log-std,
projected into [LOG_STD_MIN, LOG_STD_MAX] after every optimizer step.

Weights init uniform in +-1/sqrt(fan_in); the output layer can be down-scaled
(``final_scale``) so freshly built policies emit near-zero actions.

Every net owns one contiguous float64 vector, ``flat``: each layer's weights
then biases, input to output, then the log-std. ``weights``, ``biases`` and
``log_std`` are ndarray views into it, so an optimizer, a target blend or
TRPO's natural step can treat the whole net as one vector. Write
parameters in place; rebinding one would detach it from ``flat``.

``forward`` keeps each layer's input and ``backward`` writes the parameter
gradients straight into a ``flat``-shaped vector for Adam. It is the one path
by which any learner's gradient reaches a network, fed the closed-form
gradient of the learner's loss at the net's output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Mlp", "LOG_STD_MIN", "LOG_STD_MAX"]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


class Mlp:
    """Feed-forward net: len(layer_sizes)-1 affine layers, tanh between."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator,
                 with_log_std: bool = False, final_scale: float = 1.0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        arrays = []
        n_layers = len(layer_sizes) - 1
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=(fan_out,))
            if i == n_layers - 1 and final_scale != 1.0:
                w *= final_scale
                b *= final_scale
            arrays += (w, b)
        if with_log_std:
            arrays.append(np.full(layer_sizes[-1], -0.5))
        # each parameter's slice of ``flat``, and its shape
        bounds = np.cumsum([0] + [a.size for a in arrays]).tolist()
        self.param_slices = [(slice(lo, hi), a.shape)
                             for lo, hi, a in zip(bounds, bounds[1:], arrays)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self._bind_views()

    def _bind_views(self) -> None:
        views = self.unflatten(self.flat)
        n = 2 * (len(self.layer_sizes) - 1)
        self.weights, self.biases = views[0:n:2], views[1:n:2]
        self.log_std = views[n] if len(views) > n else None

    def __getstate__(self):
        # Pickle would copy each view apart from ``flat``: leave them out...
        state = self.__dict__.copy()
        for name in ("weights", "biases", "log_std"):
            del state[name]
        return state

    def __setstate__(self, state):
        # ...and point them back into it.
        self.__dict__.update(state)
        self._bind_views()

    # -- parameter access --------------------------------------------------------

    def unflatten(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views into a ``flat``-sized vector, shaped like the parameters."""
        return [vector[s].reshape(shape) for s, shape in self.param_slices]

    def clamp_log_std(self) -> None:
        if self.log_std is not None:
            np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    # -- forward -------------------------------------------------------------------

    def _layers(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The numpy forward pass over rows ``x[..., in_dim]``: the output, and
        each layer's input."""
        if x.ndim == 0 or x.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input shape {x.shape} incompatible with net input "
                             f"width {self.layer_sizes[0]}")
        h, inputs = x, []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = h @ w
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h, inputs

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The training pass over a (batch, in_dim) array: the output, and what
        ``backward`` needs (each layer's input). A profile of ``forward``
        counts training passes only."""
        if x.ndim != 2:
            raise ValueError(f"training input must be (batch, in_dim), got {x.shape}")
        return self._layers(x)

    def backward(self, kept: list[np.ndarray], g: np.ndarray,
                 grad: np.ndarray | None = None, input_grad: bool = False):
        """The closed-form backward pass from the output gradient ``g``.

        With ``grad``, a ``flat``-shaped vector, the weight and bias gradients
        are written into it (any log-std entries are left alone). Returns the
        input gradient if ``input_grad``, else None. ``g`` is not modified.
        """
        views = None if grad is None else self.unflatten(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            h, w = kept[i], self.weights[i]
            if views is not None:
                np.add.reduce(g, axis=0, out=views[2 * i + 1])
                np.matmul(h.T, g, out=views[2 * i])
            if i > 0:
                g = g @ w.T
                # tanh's slope in one temporary, freed before the next product
                slope = h * h
                np.subtract(1.0, slope, out=slope)
                g *= slope
                del slope
        return g @ w.T if input_grad else None

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass for targets and action selection.

        ``x`` is one row (in_dim,), a batch (batch, in_dim) or a stack of rows
        (N, 1, in_dim), and the output keeps its leading shape. One row runs
        the layers on 1-D arrays. A stack runs N one-row products, so its
        output is byte for byte that of N one-row calls; a (N, in_dim) batch
        is one matrix product, whose rows may differ from those in the last
        bits.
        """
        return self._layers(np.asarray(x, dtype=np.float64))[0]

    def jvp(self, kept: list[np.ndarray], tangents: list[np.ndarray]) -> np.ndarray:
        """Directional derivative of the output w.r.t. the affine
        parameters, in the direction ``tangents`` (one array per weight/bias in
        declaration order; any log-std tangent after them is ignored), at the
        layer inputs ``kept`` that ``forward`` returned. Used for Fisher-vector
        products.
        """
        t = kept[0] @ tangents[0] + tangents[1]
        for i in range(1, len(self.weights)):
            h = kept[i]
            t = t * (1.0 - h * h)
            t = t @ self.weights[i] + h @ tangents[2 * i] + tangents[2 * i + 1]
        return t
