"""The fused kernels of :mod:`repro.tensor.kernels`.

Three kinds of evidence:

* a float64 finite-difference gradcheck of every kernel's hand-written
  backward (the engine runs in float64 for these tests only);
* allclose agreement, forward and backward, with the primitive-op
  composite each kernel replaced — written out here as the reference,
  kernel by kernel and for whole D²STGNN models (ablations included);
* the instruments see the kernels: the profiler records their forward and
  backward, ``detect_anomaly`` names them, the memory watermark and the
  tape IR count the buffers they save.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.check import AnomalyError, detect_anomaly
from repro.check.tape import record_program
from repro.core import D2STGNN, D2STGNNConfig, DiffusionBlock
from repro.faults import ActivationFault
from repro.obs import MemoryWatermark, Profiler
from repro.tensor import Tensor, functional as F, gradcheck, inference_mode, kernels
from repro.tensor import tensor as tensor_module
from repro.tensor.ops_registry import KERNEL_OPS, OP_NAMES
from repro.utils.seed import set_seed


# ----------------------------------------------------------------------
# The primitive-op composites the kernels replaced (the reference).
# ----------------------------------------------------------------------
def composite_gru_step(x, h, weights):
    w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h = weights
    z = (x @ w_z + h @ u_z + b_z).sigmoid()
    r = (x @ w_r + h @ u_r + b_r).sigmoid()
    candidate = (x @ w_h + r * (h @ u_h + b_h)).tanh()
    return (1.0 - z) * h + z * candidate


def composite_gru_scan(x, h0, weights):
    if x.ndim == 2:
        return composite_gru_step(x, h0, weights)
    h, outputs = h0, []
    for t in range(x.shape[1]):
        h = composite_gru_step(x[:, t, :], h, weights)
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


def composite_gru_rollout(current, h0, feedback, weights, horizon):
    f_w, f_b = feedback
    state, outputs = h0, []
    for _ in range(horizon):
        state = composite_gru_step(current @ f_w + f_b, state, weights)
        current = state
        outputs.append(state)
    return Tensor.stack(outputs, axis=1)


def composite_mlp_rollout(window, layers, horizon):
    w1, b1, w2, b2 = layers
    k = window.shape[1]
    states = [window[:, t] for t in range(k)]
    outputs = []
    for _ in range(horizon):
        stacked = Tensor.concatenate(states[-k:], axis=-1)
        nxt = (stacked @ w1 + b1).relu() @ w2 + b2
        outputs.append(nxt)
        states.append(nxt)
    return Tensor.stack(outputs, axis=1)


def composite_attention(q, k, v, mask=None):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, -1e9, 0.0).astype(np.float32))
    return F.softmax(scores, axis=-1) @ v


COMPOSITES = {
    "gru_scan": composite_gru_scan,
    "gru_rollout": composite_gru_rollout,
    "mlp_rollout": composite_mlp_rollout,
    "attention": composite_attention,
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def leaf(rng, *shape, scale=1.0):
    data = rng.normal(scale=scale, size=shape)
    # Keep relu inputs off the kink so central differences stay smooth.
    data = np.where(np.abs(data) < 0.05, data + 0.1, data)
    tensor = Tensor(np.zeros(shape), requires_grad=True)
    tensor.data = data.astype(tensor_module.DEFAULT_DTYPE)
    return tensor


def gru_weights(rng, in_dim, hidden):
    shapes = [(in_dim, hidden)] * 3 + [(hidden, hidden)] * 3 + [(hidden,)] * 3
    return [leaf(rng, *shape, scale=0.5) for shape in shapes]


def cases(rng):
    """name -> (kernel call, inputs) at tiny sizes."""
    x, h0 = leaf(rng, 2, 4, 3), leaf(rng, 2, 5)
    w = gru_weights(rng, 3, 5)
    step_x = leaf(rng, 2, 3)
    current, state = leaf(rng, 2, 5), leaf(rng, 2, 5)
    feedback = [leaf(rng, 5, 3, scale=0.5), leaf(rng, 3)]
    window = leaf(rng, 2, 3, 2, 2)
    mlp = [leaf(rng, 6, 4, scale=0.5), leaf(rng, 4), leaf(rng, 4, 2, scale=0.5), leaf(rng, 2)]
    q, k, v = leaf(rng, 2, 3, 4), leaf(rng, 2, 3, 4), leaf(rng, 2, 3, 4)
    causal = np.triu(np.ones((3, 3), dtype=bool), k=1)
    return {
        "gru_scan": (lambda fn, *t: fn(t[0], t[1], t[2:]), [x, h0, *w]),
        "gru_cell": (lambda fn, *t: fn(t[0], t[1], t[2:]), [step_x, h0, *w]),
        "gru_rollout": (
            lambda fn, *t: fn(t[0], t[1], t[2:4], t[4:], 3),
            [current, state, *feedback, *w],
        ),
        "mlp_rollout": (lambda fn, *t: fn(t[0], t[1:], 4), [window, *mlp]),
        "attention": (lambda fn, *t: fn(*t), [q, k, v]),
        "attention_masked": (lambda fn, *t: fn(*t, mask=causal), [q, k, v]),
    }


KERNEL_OF = {
    "gru_scan": "gru_scan",
    "gru_cell": "gru_scan",
    "gru_rollout": "gru_rollout",
    "mlp_rollout": "mlp_rollout",
    "attention": "attention",
    "attention_masked": "attention",
}


@pytest.fixture()
def float64_engine(monkeypatch):
    monkeypatch.setattr(tensor_module, "DEFAULT_DTYPE", np.float64)


# ----------------------------------------------------------------------
class TestGradcheck:
    @pytest.mark.parametrize("case", sorted(KERNEL_OF))
    def test_float64_gradcheck(self, float64_engine, rng, case):
        call, inputs = cases(rng)[case]
        kernel = getattr(kernels, KERNEL_OF[case])
        assert call(kernel, *inputs).dtype == np.float64
        gradcheck(lambda *t: call(kernel, *t), inputs, eps=1e-6, atol=1e-7, rtol=1e-5)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_diffusion_forecast_pads_short_inputs(self, float64_engine, rng, steps):
        """k_t > history: the window repeats the oldest state before the kernel."""
        block = DiffusionBlock(hidden_dim=2, num_supports=1, k_s=1, k_t=3, horizon=2)
        for param in block.parameters():
            param.data = param.data.astype(np.float64)
        hidden = leaf(rng, 1, steps, 2, 2)
        gradcheck(lambda h, *params: block._forecast(h), [hidden, *block.ar_step.parameters()],
                  eps=1e-6, atol=1e-7, rtol=1e-5)


class TestMatchesComposite:
    @pytest.mark.parametrize("case", sorted(KERNEL_OF))
    def test_forward_and_grads_allclose(self, rng, case):
        call, inputs = cases(rng)[case]
        grads = []
        for fn in (getattr(kernels, KERNEL_OF[case]), COMPOSITES[KERNEL_OF[case]]):
            for tensor in inputs:
                tensor.zero_grad()
            out = call(fn, *inputs)
            (out * Tensor(np.linspace(-1, 1, out.size).reshape(out.shape))).sum().backward()
            grads.append((out.numpy().copy(), [t.grad.copy() for t in inputs]))
        (out_k, grads_k), (out_c, grads_c) = grads
        np.testing.assert_allclose(out_k, out_c, rtol=1e-5, atol=1e-6)
        for got, want in zip(grads_k, grads_c):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("mask", [False, True])
    def test_attention_forward_is_bit_identical(self, rng, mask):
        q, k, v = (Tensor(rng.normal(size=(2, 2, 5, 4)).astype(np.float32)) for _ in range(3))
        causal = np.triu(np.ones((5, 5), dtype=bool), k=1) if mask else None
        fused = kernels.attention(q, k, v, causal).numpy()
        assert fused.tobytes() == composite_attention(q, k, v, causal).numpy().tobytes()

    def test_no_graph_outside_grad_mode(self, rng):
        call, inputs = cases(rng)["gru_scan"]
        with inference_mode():
            out = call(kernels.gru_scan, *inputs)
        assert out._backward is None and not out.requires_grad


# ----------------------------------------------------------------------
N = 5
ADJACENCY = (np.eye(N) + np.roll(np.eye(N), 1, axis=1) + np.roll(np.eye(N), -1, axis=1)).astype(
    np.float32
)
ABLATIONS = {
    "full": {},
    "w/o gru": {"use_gru": False},
    "w/o msa": {"use_msa": False},
    "w/o ar": {"autoregressive": False},
    "k_t > history": {"k_t": 3, "history": 2},
}


def _model_grads(flags):
    """Parameter gradients of one D²STGNN train step at a fixed dropout seed."""
    set_seed(0)
    history = flags.get("history", 6)
    config = D2STGNNConfig(
        num_nodes=N, steps_per_day=288, hidden_dim=8, embed_dim=4, num_heads=2,
        horizon=3, **{"history": history, **flags},
    )
    model = D2STGNN(config, ADJACENCY)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, history, N, 1)).astype(np.float32)
    tod = rng.integers(0, 288, size=(3, history))
    dow = rng.integers(0, 7, size=(3, history))
    y = rng.normal(size=(3, 3, N, 1)).astype(np.float32)
    F.mae_loss(model(x, tod, dow), Tensor(y)).backward()
    return {name: p.grad for name, p in model.named_parameters() if p.grad is not None}


class TestD2STGNN:
    @pytest.mark.parametrize("variant", sorted(ABLATIONS))
    def test_grads_allclose_to_composite(self, monkeypatch, variant):
        fused = _model_grads(ABLATIONS[variant])
        for name, fn in COMPOSITES.items():
            monkeypatch.setattr(kernels, name, fn)
        reference = _model_grads(ABLATIONS[variant])
        assert fused.keys() == reference.keys()
        for name, grad in fused.items():
            assert np.isfinite(grad).all(), name
            scale = max(np.abs(reference[name]).max(), 1e-3)
            worst = np.abs(grad - reference[name]).max() / scale
            assert worst < 1e-4, (variant, name, worst)


# ----------------------------------------------------------------------
class TestInstruments:
    def test_registry_lists_every_kernel(self):
        assert set(KERNEL_OPS) == set(kernels.__all__) <= OP_NAMES
        ActivationFault(step=0, op="gru_scan")  # accepted as a known op

    def test_profiler_records_forward_and_backward(self, rng):
        originals = {name: getattr(kernels, name) for name in KERNEL_OPS}
        set_seed(0)
        config = D2STGNNConfig(num_nodes=N, steps_per_day=288, hidden_dim=8, embed_dim=4,
                               num_heads=2, history=4, horizon=2)
        model = D2STGNN(config, ADJACENCY)
        x = rng.normal(size=(2, 4, N, 1)).astype(np.float32)
        tod = np.zeros((2, 4), dtype=int)
        with Profiler() as prof:
            model(x, tod, tod).sum().backward()
        for name in KERNEL_OPS:
            assert prof.ops[(name, "forward")].count > 0, name
            assert prof.ops[(name, "backward")].count > 0, name
        assert {name: getattr(kernels, name) for name in KERNEL_OPS} == originals

    @pytest.mark.parametrize("case", ["gru_scan", "gru_rollout", "mlp_rollout", "attention"])
    def test_detect_anomaly_names_the_kernel(self, rng, case):
        call, inputs = cases(rng)[case]
        inputs[0].data[0] = np.nan
        with pytest.raises(AnomalyError, match=f"op '{case}'"):
            with detect_anomaly():
                call(getattr(kernels, case), *inputs)

    def test_saved_buffers_are_counted(self, rng):
        call, inputs = cases(rng)["gru_scan"]
        with MemoryWatermark() as watermark:
            out = call(kernels.gru_scan, *inputs)
        saved = out._backward.saved
        assert saved and watermark.total_bytes == out.data.nbytes + sum(a.nbytes for a in saved)

        program = record_program(lambda: call(kernels.gru_scan, *inputs).sum())
        kept = [v for v in program.values if v.name == "gru_scan.saved"]
        assert len(kept) == len(saved)
        forward = next(i for i in program.instructions if i.op == "gru_scan")
        assert {vid for vid, _ in forward.saved} >= {v.vid for v in kept}
