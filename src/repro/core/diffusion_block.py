"""Diffusion model: spatial-temporal localized convolutional layer (Sec. 5.1).

For every time step ``t`` the operator mixes, for each order ``k ≤ k_s`` and
each transition matrix, the features of *other* nodes over the last ``k_t``
steps (Eqs. 4-8):

    H_t = Σ_s Σ_k  (P_s^k ⊙ (1-I))  ·  Σ_m σ(X_{t-m} W_m)  ·  W_{s,k}

The diagonal masking is load-bearing: a node's own history is inherent
signal by definition and is left to the inherent model.

Both output branches of the framework are provided:

* **forecast** — auto-regressive continuation of the hidden sequence over
  the forecast horizon (a learned map from the last ``k_t`` hidden states to
  the next one, slid forward step by step), or a direct multi-step projection
  when ``autoregressive=False`` (the paper's *w/o ar* ablation);
* **backcast** — a non-linear fully connected reconstruction of the input,
  implemented as ``relu(H W_1) W_2`` so reconstructed signals may take either
  sign in the z-scored latent space.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..graph.localized import mask_self_loops
from ..graph.transition import matrix_powers
from ..tensor import Tensor, kernels

__all__ = ["DiffusionBlock", "Support"]

# A transition matrix given to the block: a static numpy (N, N) matrix, a
# learned Tensor (N, N) (self-adaptive), or a per-sample Tensor (B, N, N)
# (dynamic graph).
Support = "np.ndarray | Tensor"


def _masked_powers(support, k_s: int) -> list:
    """``[P ⊙ (1-I), ..., P^{k_s} ⊙ (1-I)]`` for numpy or Tensor supports.

    Tensor supports may be (N, N) adaptive, (B, N, N) per-sample dynamic, or
    (B, T, N, N) per-step dynamic; powers broadcast over the leading axes.
    """
    if isinstance(support, np.ndarray):
        return [Tensor(mask_self_loops(p)) for p in matrix_powers(support, k_s)]
    num_nodes = support.shape[-1]
    off_diag = Tensor(1.0 - np.eye(num_nodes, dtype=np.float32))
    powers = [support * off_diag]
    running = support
    for _ in range(k_s - 1):
        running = running @ support
        powers.append(running * off_diag)
    return powers


class DiffusionBlock(nn.Module):
    """The pink block of Fig. 3: primary model + forecast + backcast.

    Parameters
    ----------
    hidden_dim:
        Latent width ``d``.
    num_supports:
        How many transition matrices will be passed to :meth:`forward`
        (forward/backward/adaptive — 3 in the full model).
    k_s, k_t:
        Spatial and temporal kernel sizes (paper defaults: 2 and 3).
    horizon:
        Number of future hidden states the forecast branch emits.
    autoregressive:
        Forecast-branch strategy (see module docstring).
    use_backcast:
        Whether to build the backcast branch.  The backcast only exists to
        feed the residual links (Eq. 1-2); a block whose backcast nobody
        consumes (coupled stacking, *w/o res*, or the second block of the
        final layer) should not carry — or spend compute on — its
        parameters.  When off, :meth:`forward` returns ``None`` in the
        backcast slot.
    """

    def __init__(
        self,
        hidden_dim: int,
        num_supports: int,
        k_s: int = 2,
        k_t: int = 3,
        horizon: int = 12,
        autoregressive: bool = True,
        use_backcast: bool = True,
    ) -> None:
        super().__init__()
        if min(hidden_dim, num_supports, k_s, k_t, horizon) < 1:
            raise ValueError("all DiffusionBlock sizes must be >= 1")
        self.hidden_dim = hidden_dim
        self.num_supports = num_supports
        self.k_s = k_s
        self.k_t = k_t
        self.horizon = horizon
        self.autoregressive = autoregressive

        # Eq. 5: per-time-offset input transforms W_m.
        self.offset_transforms = nn.ModuleList(
            [nn.Linear(hidden_dim, hidden_dim, bias=False) for _ in range(k_t)]
        )
        # Eq. 8: one output transform per (support, order) pair.
        self.order_transforms = nn.ModuleList(
            [
                nn.Linear(hidden_dim, hidden_dim, bias=False)
                for _ in range(num_supports * k_s)
            ]
        )
        self.output_bias = nn.Parameter(nn.init.zeros(hidden_dim))
        # Forecast branch.
        if autoregressive:
            self.ar_step = nn.MLP([k_t * hidden_dim, hidden_dim, hidden_dim])
        else:
            self.direct_head = nn.Linear(hidden_dim, horizon * hidden_dim)
        # Backcast branch.
        self.backcast = nn.MLP([hidden_dim, hidden_dim, hidden_dim]) if use_backcast else None

    # ------------------------------------------------------------------
    def _temporal_mix(self, x: Tensor) -> Tensor:
        """``Σ_m shift_m(σ(X W_m))``: the localized feature aggregation."""
        batch, steps, num_nodes, dim = x.shape
        mixed = None
        for offset, transform in enumerate(self.offset_transforms):
            features = transform(x).relu()
            if offset > 0:
                pad = Tensor.zeros((batch, offset, num_nodes, dim))
                features = Tensor.concatenate([pad, features[:, : steps - offset]], axis=1)
            mixed = features if mixed is None else mixed + features
        return mixed

    def _graph_mix(self, mixed: Tensor, supports: list) -> Tensor:
        """``Σ_s Σ_k masked(P_s^k) mixed W_{s,k}`` (Eq. 8)."""
        out = None
        index = 0
        for support in supports:
            for power in _masked_powers(support, self.k_s):
                if power.ndim == 3:  # per-sample dynamic (B, N, N)
                    propagated = power.expand_dims(1) @ mixed
                else:  # (N, N) static/adaptive or (B, T, N, N) per-step dynamic
                    propagated = power @ mixed
                term = self.order_transforms[index](propagated)
                out = term if out is None else out + term
                index += 1
        return out + self.output_bias

    # ------------------------------------------------------------------
    def forward(self, x: Tensor, supports: list) -> tuple[Tensor, Tensor, Tensor]:
        """Run the block.

        Parameters
        ----------
        x:
            Diffusion-signal input (B, T, N, d) — the gated ``X^dif``.
        supports:
            Transition matrices (see :data:`Support`); their number must
            match ``num_supports``.

        Returns
        -------
        (hidden, forecast, backcast):
            hidden (B, T, N, d); forecast (B, horizon, N, d);
            backcast (B, T, N, d), the block's estimate of its own input
            (``None`` when built with ``use_backcast=False``).
        """
        if len(supports) != self.num_supports:
            raise ValueError(f"expected {self.num_supports} supports, got {len(supports)}")
        hidden = self._graph_mix(self._temporal_mix(x), supports)
        forecast = self._forecast(hidden)
        backcast = self.backcast(hidden) if self.backcast is not None else None
        return hidden, forecast, backcast

    def _forecast(self, hidden: Tensor) -> Tensor:
        batch, steps, num_nodes, dim = hidden.shape
        if not self.autoregressive:
            flat = self.direct_head(hidden[:, steps - 1])  # (B, N, horizon*d)
            return flat.reshape(batch, num_nodes, self.horizon, dim).transpose(0, 2, 1, 3)
        # Sliding auto-regression over the last k_t hidden states; inputs
        # shorter than k_t are padded by repeating the oldest state.
        if steps >= self.k_t:
            window = hidden[:, steps - self.k_t :]
        else:
            window = hidden[:, np.maximum(np.arange(steps - self.k_t, steps), 0)]
        layers = self.ar_step.layers
        params = (layers[0].weight, layers[0].bias, layers[1].weight, layers[1].bias)
        return kernels.mlp_rollout(window, params, self.horizon)
