"""Small fully-connected networks over the autodiff tensors.

Heads:
  * ``linear``       — raw affine output (critics, value nets, policy means).
  * ``tanh_scaled``  — tanh squashed into a box (deterministic actors).
  * ``gaussian``     — affine mean plus a free per-dimension log-std parameter
                       (stochastic policies); the log-std is projected into
                       [LOG_STD_MIN, LOG_STD_MAX] after every optimizer step.

Weights init uniform in +-1/sqrt(fan_in); the output layer can be down-scaled
(``final_scale``) so freshly built policies emit near-zero actions.

Every net owns one contiguous float64 vector, ``flat``: each layer's weights
then biases, input to output, then the log-std. Each parameter ``Tensor`` is a
view into it, so an optimizer, a target blend, TRPO's natural step or a
checkpoint can treat the whole net as one vector. Write parameters in place;
rebinding ``p.data`` would detach ``p`` from ``flat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, gather_grads

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

    def __post_init__(self):
        if self.kind not in _HEADS:
            raise ValueError(f"unknown head kind {self.kind!r}")
        if self.kind == "tanh_scaled":
            self.low = np.asarray(self.low, dtype=np.float64)
            self.high = np.asarray(self.high, dtype=np.float64)


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
        gaussian = self.head.kind == "gaussian"
        if gaussian:
            arrays.append(np.full(layer_sizes[-1], -0.5))
        self._shapes = [a.shape for a in arrays]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self._params = [Tensor(view, requires_grad=True)
                        for view in self.unflatten(self.flat)]
        self.weights = self._params[0:2 * n_layers:2]
        self.biases = self._params[1:2 * n_layers:2]
        self.log_std: Tensor | None = self._params[-1] if gaussian else None

    def __setstate__(self, state):
        # Pickle copies each parameter's array apart from ``flat``: point the
        # same Tensor objects, which the optimizers also hold, back into it.
        self.__dict__.update(state)
        for p, view in zip(self._params, self.unflatten(self.flat)):
            p.data = view

    # -- parameter access --------------------------------------------------------

    def unflatten(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views into a ``flat``-sized vector, shaped like the parameters."""
        views, offset = [], 0
        for shape in self._shapes:
            n = math.prod(shape)
            views.append(vector[offset:offset + n].reshape(shape))
            offset += n
        return views

    def parameters(self) -> list[Tensor]:
        return list(self._params)

    def flat_grad(self) -> np.ndarray:
        """The parameters' gradients in ``flat`` order; zero where there is none."""
        return gather_grads(self._params)

    def zero_grad(self) -> None:
        for p in self._params:
            p.grad = None

    def clamp_log_std(self) -> None:
        if self.log_std is not None:
            np.clip(self.log_std.data, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std.data)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    # -- forward -------------------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"input shape {x.shape} incompatible with net input width {self.in_dim}")

    def forward(self, x: Tensor) -> Tensor:
        """Graph-building forward pass; input shape (batch, in_dim)."""
        self._check_input(x.data)
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = h.tanh()
        if self.head.kind == "tanh_scaled":
            center = (self.head.high + self.head.low) / 2.0
            half = (self.head.high - self.head.low) / 2.0
            h = h.tanh() * half + center
        return h

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass for targets and action selection."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        self._check_input(x)
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i < last:
                h = np.tanh(h)
        if self.head.kind == "tanh_scaled":
            center = (self.head.high + self.head.low) / 2.0
            half = (self.head.high - self.head.low) / 2.0
            h = np.tanh(h) * half + center
        return h[0] if squeeze else h

    def jvp(self, x: np.ndarray, tangents: list[np.ndarray]) -> np.ndarray:
        """Directional derivative of the pre-head output w.r.t. the affine
        parameters, in the direction ``tangents`` (one array per weight/bias in
        declaration order; any log-std tangent after them is ignored). Used for
        Fisher-vector products.
        """
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        h = x
        t = np.zeros((x.shape[0], self.in_dim))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            dw, db = tangents[2 * i], tangents[2 * i + 1]
            pre = h @ w.data + b.data
            t = t @ w.data + h @ dw + db
            if i < last:
                h = np.tanh(pre)
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
