from .tensor import Tensor
from .mlp import LOG_STD_MAX, LOG_STD_MIN, Mlp
from .optim import NonFiniteError, Optimizer, clip_grad_norm, soft_update

__all__ = [
    "Tensor", "NonFiniteError",
    "Mlp", "LOG_STD_MIN", "LOG_STD_MAX",
    "Optimizer", "soft_update", "clip_grad_norm",
]
