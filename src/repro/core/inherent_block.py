"""Inherent model: GRU + multi-head self-attention (Sec. 5.2, Fig. 5).

The inherent signal of each node is a *univariate* series, so the node axis
is folded into the batch axis and every node is processed independently —
"all the nodes are calculated individually in parallel".  Short-term
dependencies are captured by a GRU (Eq. 10); long-term dependencies by
multi-head self-attention over the time axis (Eq. 11) after adding the
non-trainable sinusoidal positional encoding (Eq. 12).

Forecast branch: "a simple sliding auto-regression, rather than the commonly
used encoder-decoder architecture" — the GRU keeps stepping beyond the last
observation, feeding back a projection of its own hidden state as the next
input.  Backcast branch: non-linear fully connected reconstruction.
"""

from __future__ import annotations

from .. import nn
from ..tensor import Tensor, kernels

__all__ = ["InherentBlock"]


class InherentBlock(nn.Module):
    """The blue block of Fig. 3.

    ``use_gru`` / ``use_msa`` switch off the two sub-modules for the paper's
    *w/o gru* and *w/o msa* ablations (Table 5).  ``use_backcast=False``
    omits the backcast branch entirely (and returns ``None`` in its slot)
    for positions where no residual link consumes it — the second block of
    the final decoupled layer, coupled stacking, or the *w/o res* ablation.
    """

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int = 4,
        horizon: int = 12,
        use_gru: bool = True,
        use_msa: bool = True,
        autoregressive: bool = True,
        max_length: int = 64,
        use_backcast: bool = True,
    ) -> None:
        super().__init__()
        if not (use_gru or use_msa):
            raise ValueError("inherent block needs at least one of GRU / self-attention")
        self.hidden_dim = hidden_dim
        self.horizon = horizon
        self.use_gru = use_gru
        self.use_msa = use_msa
        self.autoregressive = autoregressive
        if use_gru:
            self.gru = nn.GRU(hidden_dim, hidden_dim)
        if use_msa:
            self.positional = nn.PositionalEncoding(hidden_dim, max_length=max_length)
            self.attention = nn.MultiHeadSelfAttention(hidden_dim, num_heads=num_heads)
        if autoregressive:
            # Projection feeding the GRU its own prediction as next input.
            self.feedback = nn.Linear(hidden_dim, hidden_dim)
        else:
            self.direct_head = nn.Linear(hidden_dim, horizon * hidden_dim)
        self.backcast = nn.MLP([hidden_dim, hidden_dim, hidden_dim]) if use_backcast else None

    def forward(self, x: Tensor, *, return_hidden: bool = True) -> tuple[Tensor, Tensor, Tensor]:
        """Process inherent input (B, T, N, d).

        Returns ``(hidden, forecast, backcast)`` with shapes
        (B, T, N, d), (B, horizon, N, d) and (B, T, N, d); the backcast is
        ``None`` when the block was built with ``use_backcast=False``.
        Callers that discard the hidden slot (the decoupled layer, which
        chains on the residual instead) pass ``return_hidden=False`` to
        skip its reshape/transpose — dead ops the tape audit (rule T003)
        rejects.
        """
        batch, steps, num_nodes, dim = x.shape
        folded = x.transpose(0, 2, 1, 3).reshape(batch * num_nodes, steps, dim)

        if self.use_gru:
            gru_seq, gru_state = self.gru(folded)
        else:
            gru_seq, gru_state = folded, folded[:, steps - 1]

        hidden_seq = gru_seq
        if self.use_msa:
            hidden_seq = self.attention(self.positional(gru_seq)) + gru_seq

        forecast = self._forecast(hidden_seq, gru_state)

        def unfold(seq: Tensor, length: int) -> Tensor:
            return seq.reshape(batch, num_nodes, length, dim).transpose(0, 2, 1, 3)

        backcast = (
            unfold(self.backcast(hidden_seq), steps) if self.backcast is not None else None
        )
        hidden = unfold(hidden_seq, steps) if return_hidden else None
        return hidden, unfold(forecast, self.horizon), backcast

    def _forecast(self, hidden_seq: Tensor, gru_state: Tensor) -> Tensor:
        last = hidden_seq[:, hidden_seq.shape[1] - 1]
        if not self.autoregressive:
            flat = self.direct_head(last)  # (B*N, horizon*d)
            return flat.reshape(flat.shape[0], self.horizon, self.hidden_dim)
        if self.use_gru:  # one op: feedback -> GRU step, over the horizon
            feedback = (self.feedback.weight, self.feedback.bias)
            return kernels.gru_rollout(
                last, gru_state, feedback, self.gru.cell.weights, self.horizon
            )
        # *w/o gru*: the feedback alone drives the roll-out.
        outputs = []
        current = last
        for _ in range(self.horizon):
            current = self.feedback(current).tanh()
            outputs.append(current)
        return Tensor.stack(outputs, axis=1)
