"""Neural-network substrate: numpy autograd, dense and graph layers, optimizers.

This package replaces PyTorch + Deep Graph Library from the paper's original
implementation with a self-contained reverse-mode autograd engine and the
exact layer types the multimodal policy network needs (Linear/MLP, GCN, GAT,
multi-head attention, Adam, categorical action distributions).
"""

from repro.nn.distributions import BatchedMultiCategorical
from repro.nn.functional import explained_variance, mse_loss
from repro.nn.graph_layers import (
    GATLayer,
    GCNLayer,
    GraphEncoder,
    GraphReadout,
    normalized_adjacency,
)
from repro.nn.initializers import get_initializer, he_normal, orthogonal, xavier_uniform, zeros
from repro.nn.layers import MLP, Linear, Sequential, get_activation
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.tensor import (
    Tensor,
    concatenate,
    maximum,
    minimum,
    stack,
    where,
)

__all__ = [
    "Adam",
    "BatchedMultiCategorical",
    "GATLayer",
    "GCNLayer",
    "GraphEncoder",
    "GraphReadout",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "SGD",
    "Sequential",
    "Tensor",
    "clip_grad_norm",
    "concatenate",
    "explained_variance",
    "get_activation",
    "get_initializer",
    "he_normal",
    "maximum",
    "minimum",
    "mse_loss",
    "normalized_adjacency",
    "orthogonal",
    "stack",
    "where",
    "xavier_uniform",
    "zeros",
]
