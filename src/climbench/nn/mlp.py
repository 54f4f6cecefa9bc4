"""Small fully-connected networks with closed-form gradients.

Heads:
  * ``linear``       — raw affine output (critics, value nets, policy means).
  * ``tanh_scaled``  — tanh squashed into a box (deterministic actors).
  * ``gaussian``     — affine mean plus a free per-dimension log-std parameter
                       (stochastic policies); the log-std is projected into
                       [LOG_STD_MIN, LOG_STD_MAX] after every optimizer step.

Weights init uniform in +-1/sqrt(fan_in); the output layer can be down-scaled
(``final_scale``) so freshly built policies emit near-zero actions.

Every net owns one contiguous float64 vector, ``flat``: each layer's weights
then biases, input to output, then the log-std. ``weights``, ``biases`` and
``log_std`` are ndarray views into it, so an optimizer, a target blend, TRPO's
natural step or a checkpoint can treat the whole net as one vector. Write
parameters in place; rebinding one would detach it from ``flat``.

``forward`` keeps each layer's input and ``backward`` writes the parameter
gradients straight into a ``flat``-shaped vector for Adam. It is the one path
by which any learner's gradient reaches a network, fed the closed-form
gradient of the learner's loss at the net's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Head", "Mlp", "LOG_STD_MIN", "LOG_STD_MAX", "save_mlp", "load_mlp"]

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

_HEADS = ("linear", "tanh_scaled", "gaussian")

CHECKPOINT_MAGIC = "climbench-mlp"
CHECKPOINT_VERSION = 1


@dataclass
class Head:
    kind: str = "linear"
    low: np.ndarray | None = None   # tanh_scaled box bounds
    high: np.ndarray | None = None
    # the box's centre and half-width, from low and high
    center: np.ndarray | None = field(default=None, init=False, repr=False)
    half: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _HEADS:
            raise ValueError(f"unknown head kind {self.kind!r}")
        if self.kind == "tanh_scaled":
            self.low = np.asarray(self.low, dtype=np.float64)
            self.high = np.asarray(self.high, dtype=np.float64)
            self.center = (self.high + self.low) / 2.0
            self.half = (self.high - self.low) / 2.0


class Mlp:
    """Feed-forward net: len(layer_sizes)-1 affine layers, tanh between."""

    def __init__(self, layer_sizes: list[int], head: Head | None = None,
                 rng: np.random.Generator | None = None, final_scale: float = 1.0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        self.head = head or Head()
        if rng is None:
            rng = np.random.default_rng(0)
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
        if self.head.kind == "gaussian":
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
        self.log_std = views[-1] if self.head.kind == "gaussian" else None

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
        each layer's input followed (tanh_scaled head) by the head's tanh."""
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
        if self.head.kind == "tanh_scaled":
            h = np.tanh(h)
            inputs.append(h)
            h = h * self.head.half + self.head.center
        return h, inputs

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The training pass over a (batch, in_dim) array: the output, and what
        ``backward`` needs (each layer's input, then any tanh_scaled head's
        tanh). A profile of ``forward`` counts training passes only."""
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
        if self.head.kind == "tanh_scaled":
            t = kept[-1]
            g = g * self.head.half * (1.0 - t * t)
        views = None if grad is None else self.unflatten(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            h, w = kept[i], self.weights[i]
            if views is not None:
                np.sum(g, axis=0, out=views[2 * i + 1])
                np.matmul(h.T, g, out=views[2 * i])
            if i > 0:
                g = g @ w.T
                g *= 1.0 - h * h
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
        """Directional derivative of the pre-head output w.r.t. the affine
        parameters, in the direction ``tangents`` (one array per weight/bias in
        declaration order; any log-std tangent after them is ignored), at the
        layer inputs ``kept`` that ``forward`` returned. Used for Fisher-vector
        products.
        """
        t = np.zeros_like(kept[0])
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            t = t @ w + kept[i] @ tangents[2 * i] + tangents[2 * i + 1]
            if i < last:
                h = kept[i + 1]
                t = t * (1.0 - h * h)
        return t


# -- checkpoint format ---------------------------------------------------------
#
# Text, one value per line after a fixed preamble:
#   line 1: "<magic> <version>"
#   line 2: layer sizes, space separated
#   line 3: "tanh <head-kind>" (the hidden activation; tanh is the only one)
#   line 4: head bounds ("-" when absent): low values ';' high values
#   line 5: "log_std" or "-"
#   then every value of ``flat`` as float.hex(), in order.


def save_mlp(net: Mlp, path) -> None:
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
             " ".join(str(s) for s in net.layer_sizes),
             f"tanh {net.head.kind}"]
    if net.head.kind == "tanh_scaled":
        low = " ".join(v.hex() for v in net.head.low.tolist())
        high = " ".join(v.hex() for v in net.head.high.tolist())
        lines.append(f"{low};{high}")
    else:
        lines.append("-")
    lines.append("log_std" if net.log_std is not None else "-")
    lines.extend(v.hex() for v in net.flat.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mlp(path) -> Mlp:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    magic, version = lines[0].split()
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    if int(version) != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    layer_sizes = [int(s) for s in lines[1].split()]
    activation, head_kind = lines[2].split()
    if activation != "tanh":
        raise ValueError(f"unsupported activation {activation!r}")
    if lines[3] == "-":
        head = Head(head_kind) if head_kind != "tanh_scaled" else None
        if head is None:
            raise ValueError("tanh_scaled head requires bounds")
    else:
        low_s, high_s = lines[3].split(";")
        head = Head(head_kind,
                    low=np.array([float.fromhex(v) for v in low_s.split()]),
                    high=np.array([float.fromhex(v) for v in high_s.split()]))
    net = Mlp(layer_sizes, head)
    if lines[4] == "log_std" and net.log_std is None:
        raise ValueError("checkpoint has log_std but head is not gaussian")
    values = [float.fromhex(v) for v in lines[5:] if v]
    if len(values) < net.flat.size:
        raise ValueError("checkpoint truncated")
    if len(values) > net.flat.size:
        raise ValueError("checkpoint has trailing values")
    net.flat[:] = values
    if not np.all(np.isfinite(net.flat)):
        raise ValueError("checkpoint contains non-finite parameters")
    return net
