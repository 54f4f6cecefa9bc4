from .tensor import GraphConsumedError, NonFiniteError, Tensor, minimum
from .mlp import LOG_STD_MAX, LOG_STD_MIN, Head, Mlp, load_mlp, save_mlp
from .optim import Optimizer, clip_grad_norm, soft_update

__all__ = [
    "Tensor", "GraphConsumedError", "NonFiniteError", "minimum",
    "Mlp", "Head", "LOG_STD_MIN", "LOG_STD_MAX", "save_mlp", "load_mlp",
    "Optimizer", "soft_update", "clip_grad_norm",
]
