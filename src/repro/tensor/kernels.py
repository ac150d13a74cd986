"""Fused kernels: one engine op for each of D²STGNN's sequential loops.

Written as composites of :class:`~repro.tensor.Tensor` primitives, three
loops dominate the model's op count: the inherent block's GRU over the
history (Eq. 10), the sliding auto-regressions both blocks forecast with
(Secs. 5.1-5.2), and the attention over time (Eq. 11).  Each kernel here
records that whole loop as *one* graph node: a numpy forward, and a
hand-written backward that runs the loop in reverse and computes every
weight gradient as one GEMM over all steps.

* :func:`gru_scan` — Eq. 10 over a sequence (or one step).
* :func:`gru_rollout` — the inherent block's forecast loop: a linear
  feedback of the previous output, then one GRU step, per horizon step.
* :func:`mlp_rollout` — the diffusion block's forecast loop: a 2-layer MLP
  over a sliding window of the last ``k_t`` states, per horizon step.
* :func:`attention` — ``softmax(Q K^T / sqrt(d) + mask) V``; its forward
  runs the same numpy calls as the composite it replaced, so it is
  bit-identical, and only the probabilities are saved for backward.

Every kernel is registered in :data:`repro.tensor.ops_registry.KERNEL_OPS`,
so the profiler, ``detect_anomaly``, the fault injector and the tape audit
name it.  Callers must reach a kernel through this module
(``kernels.gru_scan(...)``) for those instruments to see it.  Each kernel
has one backward closure, which ignores the ``reference_backward()``
switches: both legs of the fast-path oracle run the same code, so they
stay bit-identical.  Against the primitive composite a kernel is
allclose, not bit-equal: it sums in a different order.

The buffers a kernel allocates in its forward and keeps for its backward
ride on the closure as ``backward.saved``, so the memory watermark and the
tape IR count them like any other op output.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, _unbroadcast, is_grad_enabled

__all__ = ["gru_scan", "gru_rollout", "mlp_rollout", "attention"]


def _record(
    op: str,
    out: np.ndarray,
    parents: Sequence[Tensor],
    saved: list[np.ndarray],
    grads: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Tensor:
    """Record one kernel node; ``grads(grad)`` yields one gradient per parent."""

    def backward(grad: np.ndarray) -> None:
        for parent, g in zip(parents, grads(np.ascontiguousarray(grad))):
            if parent.requires_grad:
                parent._accumulate_fresh(g)

    backward.saved = saved  # type: ignore[attr-defined]
    return Tensor._make(out, parents, backward, op)


def _recording(parents: Sequence[Tensor]) -> bool:
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as ``(1 + tanh(x / 2)) / 2``, overwriting ``x``.

    Overflow-free for any input, and about 7x faster on small float32
    arrays than the ``np.where`` form of ``Tensor.sigmoid``, which it
    matches to float32 rounding.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


# ----------------------------------------------------------------------
# GRU (Eq. 10)
# ----------------------------------------------------------------------
def _fuse_gates(weights: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[W_z|W_r|W_h]``, ``[U_z|U_r|U_h]``, ``[b_z|b_r|b_h]`` from the nine parameters."""
    w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h = (p.data for p in weights)
    return (
        np.concatenate([w_z, w_r, w_h], axis=1),
        np.concatenate([u_z, u_r, u_h], axis=1),
        np.concatenate([b_z, b_r, b_h]),
    )


def _split_gates(dw: np.ndarray, du: np.ndarray, db: np.ndarray) -> tuple:
    """Inverse of :func:`_fuse_gates` for the gradients."""
    hidden = du.shape[0]
    cuts = (slice(0, hidden), slice(hidden, 2 * hidden), slice(2 * hidden, None))
    return (
        *(dw[:, c] for c in cuts),
        *(du[:, c] for c in cuts),
        *(db[c] for c in cuts),
    )


# The recurrences run feature-major: every per-step array is (features,
# batch), so each gate block is one contiguous slab and numpy's elementwise
# loops run over whole blocks instead of one short row at a time (3-4x
# fewer microseconds per step at D²STGNN's sizes).
def _gru_step(a, zrn, h, b_h, h_next) -> np.ndarray:
    """One Eq. 10 step, feature-major.

    ``a = [W_z|W_r|W_h]^T x + [b_z; b_r; 0]`` is the input projection and
    ``zrn = [U_z|U_r|U_h]^T h``, which is overwritten with ``[z; r; n]``
    where ``n = U_h^T h + b_h``.  Writes ``h'`` into ``h_next`` and returns
    the candidate ``c``; ``zrn`` and ``c`` are what the backward needs.
    """
    hidden = h.shape[0]
    zr = zrn[: 2 * hidden]
    zr += a[: 2 * hidden]
    _sigmoid(zr)
    n = zrn[2 * hidden :]
    n += b_h
    c = zrn[hidden : 2 * hidden] * n
    c += a[2 * hidden :]
    np.tanh(c, out=c)
    np.subtract(c, h, out=h_next)
    h_next *= zrn[:hidden]
    h_next += h  # (1 - z) h + z c
    return c


def _gru_step_backward(dh, h, zrn, c, da, dhu) -> np.ndarray:
    """Backprop one step from dL/dh' into ``da`` = dL/da and ``dhu`` =
    dL/d(U^T h + [0; 0; b_h]), both filled in place.

    Returns the direct part of dL/dh, ``dh' (1 - z)``; the caller adds
    ``U dhu`` (with whatever else its step multiplied ``h`` by).
    """
    hidden = h.shape[0]
    dc = dh * zrn[:hidden]
    da_h = da[2 * hidden :]
    np.multiply(c, c, out=da_h)
    np.subtract(1.0, da_h, out=da_h)
    da_h *= dc  # through tanh
    dzr = da[: 2 * hidden]
    np.subtract(c, h, out=dzr[:hidden])
    dzr[:hidden] *= dh
    np.multiply(da_h, zrn[2 * hidden :], out=dzr[hidden:])
    slope = 1.0 - zrn[: 2 * hidden]
    slope *= zrn[: 2 * hidden]
    dzr *= slope  # through both sigmoids
    dhu[: 2 * hidden] = dzr
    np.multiply(da_h, zrn[hidden : 2 * hidden], out=dhu[2 * hidden :])
    return np.subtract(dh, dc, out=dc)


def _feature_major(grad: np.ndarray, batch: int, steps: int) -> np.ndarray:
    """(B, T, H) batch-first gradient -> contiguous (T, H, B)."""
    return np.ascontiguousarray(grad.reshape(batch, steps, -1).transpose(1, 2, 0))


def _weight_grad(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_t left[t] right[t]^T`` over two (T, ., B) stacks: a weight
    gradient over all steps as one batched GEMM."""
    return np.matmul(left, right.transpose(0, 2, 1)).sum(axis=0)


def gru_scan(x: Tensor, h0: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """Run Eq. 10 over a batch-first sequence; return every hidden state.

    ``x`` is (B, T, D) and the result (B, T, H); a 2-D ``x`` (B, D) is one
    step and returns (B, H).  ``h0`` is (B, H) and ``weights`` the nine
    parameters ``(w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h)``.  The
    input projection of all steps is one GEMM; each step then costs one
    ``U^T h`` GEMM.  Saved per step: ``z, r, c`` and ``U_h^T h + b_h``.
    """
    w, u, b = _fuse_gates(weights)
    xs = x.data if x.ndim == 3 else x.data[:, None]
    batch, steps, in_dim = xs.shape
    hidden = u.shape[0]
    xs_t = xs.transpose(1, 2, 0)
    a = np.matmul(w.T, xs_t)  # all steps' input projections, (T, 3H, B)
    a[:, : 2 * hidden] += b[: 2 * hidden, None]
    u_t, b_h = np.ascontiguousarray(u.T), b[2 * hidden :, None]
    hs = np.empty((steps + 1, hidden, batch), a.dtype)
    hs[0] = h0.data.T
    parents = (x, h0, *weights)
    record = _recording(parents)
    states = []
    for t in range(steps):
        zrn = u_t @ hs[t]
        c = _gru_step(a[t], zrn, hs[t], b_h, hs[t + 1])
        if record:
            states.append((zrn, c))
    out = np.empty(x.shape[:-1] + (hidden,), a.dtype)
    out.reshape(batch, steps, hidden)[...] = hs[1:].transpose(2, 0, 1)
    if not record:
        return Tensor(out)

    def grads(grad: np.ndarray):
        g = _feature_major(grad, batch, steps)
        da = np.empty_like(a)
        dhu = np.empty_like(a)
        dh = g[steps - 1]
        for t in reversed(range(steps)):
            dh = _gru_step_backward(dh, hs[t], *states[t], da[t], dhu[t])
            dh += u @ dhu[t]
            if t:
                dh += g[t - 1]
        dx = np.matmul(w, da).transpose(2, 0, 1)
        return (
            np.ascontiguousarray(dx).reshape(x.shape),
            np.ascontiguousarray(dh.T),
            *_split_gates(
                _weight_grad(xs_t, da),
                _weight_grad(hs[:-1], dhu),
                dhu.sum(axis=(0, 2)),
            ),
        )

    saved = [hs] + [array for state in states for array in state]
    return _record("gru_scan", out, parents, saved, grads)


def gru_rollout(
    current: Tensor,
    h0: Tensor,
    feedback: Sequence[Tensor],
    weights: Sequence[Tensor],
    horizon: int,
) -> Tensor:
    """The inherent block's sliding auto-regression (Sec. 5.2) as one op.

    Starting from the last hidden output ``current`` (B, H) and the GRU
    state ``h0`` (B, H), each of ``horizon`` steps feeds
    ``current W_f + b_f`` (``feedback = (W_f, b_f)``) to one Eq. 10 step and
    makes the new state the next ``current``.  Returns the states
    (B, horizon, H).

    From the second step on ``current`` is the state itself, so the
    feedback and both Eq. 10 projections of a step are one GEMM with
    ``[W_f W | U]`` in the forward and one in the backward.
    """
    f_w, f_b = (p.data for p in feedback)
    w, u, b = _fuse_gates(weights)
    batch, hidden = h0.shape
    through = f_w @ w  # current -> input projection
    bias = f_b @ w
    bias[: 2 * hidden] += b[: 2 * hidden]
    bias, b_h = bias[:, None], b[2 * hidden :, None]
    both = np.concatenate([through, u], axis=1)
    both_t = np.ascontiguousarray(both.T)
    hs = np.empty((horizon + 1, hidden, batch), u.dtype)
    hs[0] = h0.data.T
    parents = (current, h0, *feedback, *weights)
    record = _recording(parents)
    states = []
    for t in range(horizon):
        if t:
            proj = both_t @ hs[t]  # [a; U^T h]
        else:
            proj = np.empty((6 * hidden, batch), u.dtype)
            np.matmul(through.T, current.data.T, out=proj[: 3 * hidden])
            np.matmul(u.T, hs[0], out=proj[3 * hidden :])
        a = proj[: 3 * hidden]
        a += bias
        c = _gru_step(a, proj[3 * hidden :], hs[t], b_h, hs[t + 1])
        if record:
            states.append((proj, c))
    out = np.ascontiguousarray(hs[1:].transpose(2, 0, 1))
    if not record:
        return Tensor(out)

    def grads(grad: np.ndarray):
        g = _feature_major(grad, batch, horizon)
        d = np.empty((horizon, 6 * hidden, batch), u.dtype)  # [dL/da; dL/dhu]
        da, dhu = d[:, : 3 * hidden], d[:, 3 * hidden :]
        dh = g[horizon - 1]
        for t in reversed(range(horizon)):
            proj, c = states[t]
            dh = _gru_step_backward(dh, hs[t], proj[3 * hidden :], c, da[t], dhu[t])
            if t:
                dh += both @ d[t]
                dh += g[t - 1]
        d_current = through @ da[0]
        dh += u @ dhu[0]
        currents = np.concatenate([current.data.T[None], hs[1:horizon]])
        inputs = np.matmul(f_w.T, currents)
        inputs += f_b[:, None]
        d_inputs = np.matmul(w, da)
        return (
            np.ascontiguousarray(d_current.T),
            np.ascontiguousarray(dh.T),
            _weight_grad(currents, d_inputs),
            d_inputs.sum(axis=(0, 2)),
            *_split_gates(
                _weight_grad(inputs, da),
                _weight_grad(hs[:-1], dhu),
                dhu.sum(axis=(0, 2)),
            ),
        )

    saved = [hs] + [array for state in states for array in state]
    return _record("gru_rollout", out, parents, saved, grads)


# ----------------------------------------------------------------------
# Diffusion-block auto-regression (Sec. 5.1)
# ----------------------------------------------------------------------
def mlp_rollout(window: Tensor, layers: Sequence[Tensor], horizon: int) -> Tensor:
    """The diffusion block's sliding auto-regression (Sec. 5.1) as one op.

    ``window`` (B, k, N, d) holds the last ``k`` hidden states, oldest
    first.  Each of ``horizon`` steps concatenates the newest ``k`` states
    on the feature axis, maps them through the 2-layer MLP
    ``relu(s W_1 + b_1) W_2 + b_2`` (``layers = (W_1, b_1, W_2, b_2)``) and
    appends the result to the window.  Returns the new states
    (B, horizon, N, d).
    """
    w1, b1, w2, b2 = (p.data for p in layers)
    batch, k, nodes, dim = window.shape
    rows, width = batch * nodes, w1.shape[1]
    w1_t, w2_t, b1, b2 = w1.T, w2.T, b1[:, None], b2[:, None]
    # Feature-major states (step, d, B*N): any k consecutive steps are one
    # contiguous (k*d, B*N) slab, the MLP input of one step.
    seq = np.empty((k + horizon, dim, rows), w1.dtype)
    seq[:k] = window.data.transpose(1, 3, 0, 2).reshape(k, dim, rows)
    hidden = np.empty((horizon, width, rows), seq.dtype)
    for t in range(horizon):
        layer = hidden[t]
        np.matmul(w1_t, seq[t : t + k].reshape(k * dim, rows), out=layer)
        layer += b1
        np.maximum(layer, 0.0, out=layer)
        np.matmul(w2_t, layer, out=seq[k + t])
        seq[k + t] += b2
    out = seq[k:].reshape(horizon, dim, batch, nodes).transpose(2, 0, 3, 1)
    out = np.ascontiguousarray(out)
    parents = (window, *layers)
    if not _recording(parents):
        return Tensor(out)

    def grads(grad: np.ndarray):
        d_seq = np.zeros_like(seq)
        d_seq[k:] = grad.transpose(1, 3, 0, 2).reshape(horizon, dim, rows)
        d_hidden = np.empty_like(hidden)
        for t in reversed(range(horizon)):
            # d_seq[k + t] is complete here: only later steps read it.
            np.matmul(w2, d_seq[k + t], out=d_hidden[t])
            d_hidden[t] *= hidden[t] > 0
            d_seq[t : t + k] += (w1 @ d_hidden[t]).reshape(k, dim, rows)
        windows = np.stack([seq[t : t + k].reshape(k * dim, rows) for t in range(horizon)])
        d_window = d_seq[:k].reshape(k, dim, batch, nodes).transpose(2, 0, 3, 1)
        return (
            np.ascontiguousarray(d_window),
            _weight_grad(windows, d_hidden),
            d_hidden.sum(axis=(0, 2)),
            _weight_grad(hidden, d_seq[k:]),
            d_seq[k:].sum(axis=(0, 2)),
        )

    return _record("mlp_rollout", out, parents, [seq, hidden], grads)


# ----------------------------------------------------------------------
# Scaled dot-product attention (Eq. 11)
# ----------------------------------------------------------------------
def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """``softmax(Q K^T / sqrt(d)) V`` on the trailing (length, dim) axes.

    ``mask`` (broadcastable to the score shape) marks *disallowed*
    positions with True; their scores are pushed to -1e9 before the
    softmax.  Only the probabilities are saved for backward.
    """
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1])).astype(np.float32)
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    scores = scores * scale
    if mask is not None:
        scores = scores + np.where(mask, -1e9, 0.0).astype(np.float32)
    scores -= np.max(scores, axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v.data
    parents = (q, k, v)
    if not _recording(parents):
        return Tensor(out)

    def grads(grad: np.ndarray):
        dp = grad @ np.swapaxes(v.data, -1, -2)
        dv = np.swapaxes(p, -1, -2) @ grad
        # Softmax backward, then the 1/sqrt(d) scale.
        ds = dp - (dp * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dq = ds @ k.data
        dk = np.swapaxes(ds, -1, -2) @ q.data
        return (
            _unbroadcast(dq, q.shape),
            _unbroadcast(dk, k.shape),
            _unbroadcast(dv, v.shape),
        )

    return _record("attention", out, parents, [p], grads)
