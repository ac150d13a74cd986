"""Multi-head self-attention (Vaswani et al. 2017; paper Eq. 11).

The inherent model applies attention along the *time* axis of each node's
series; GMAN applies it along the time and the node axis.  All use this
module on a batch-first ``(batch, length, dim)`` input.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, kernels
from .linear import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention", "scaled_dot_product_attention"]


def scaled_dot_product_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None
) -> Tensor:
    """``softmax(Q K^T / sqrt(d)) V`` on trailing (length, dim) axes.

    ``mask`` (broadcastable to the score shape) marks *disallowed* positions
    with True; their scores are pushed to -1e9 before the softmax.  One
    engine op: :func:`repro.tensor.kernels.attention`.
    """
    return kernels.attention(q, k, v, mask)


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with output projection.

    Heads are realised by reshaping the projected ``(batch, length, dim)``
    tensor to ``(batch, heads, length, dim // heads)`` and letting the batched
    matmul broadcast over the head axis.
    """

    def __init__(self, dim: int, num_heads: int = 4) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, bias=False)
        self.w_k = Linear(dim, dim, bias=False)
        self.w_v = Linear(dim, dim, bias=False)
        self.w_o = Linear(dim, dim, bias=False)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, _, length, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q = self._split_heads(self.w_q(x))
        k = self._split_heads(self.w_k(x))
        v = self._split_heads(self.w_v(x))
        attended = scaled_dot_product_attention(q, k, v, mask=mask)
        return self.w_o(self._merge_heads(attended))
