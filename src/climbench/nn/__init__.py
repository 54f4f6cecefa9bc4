from .tensor import Tensor
from .mlp import LOG_STD_MAX, LOG_STD_MIN, Head, Mlp, load_mlp, save_mlp
from .optim import NonFiniteError, Optimizer, clip_grad_norm, soft_update

__all__ = [
    "Tensor", "NonFiniteError",
    "Mlp", "Head", "LOG_STD_MIN", "LOG_STD_MAX", "save_mlp", "load_mlp",
    "Optimizer", "soft_update", "clip_grad_norm",
]
