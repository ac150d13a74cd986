"""Bit-identity of the engine fast paths and the vectorized batch gather.

The in-place / fast-scatter backward closures and the sliding-window-view
gather are pure performance work: they must produce *exactly* the same
bytes as their reference implementations.  ``allclose`` is not good enough
here — the kill-and-resume equivalence contract compares training histories
bit-for-bit, so any reordered float summation would surface as a spurious
resume mismatch.

The fused matmul path stays enabled on both legs of every comparison
(``reference_backward(fused_matmul=True)``): it is an allclose-only rewrite
by design (documented in docs/performance.md), so flipping it would compare
different numerics rather than different code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import build_forecasting_data, load_dataset
from repro.data.windows import BatchIterator, WindowDataset
from repro.models import build_model
from repro.obs import MemoryWatermark
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, functional as F, reference_backward
from repro.utils.seed import set_seed

# Models chosen to cover the structures that stress the fast paths: the
# paper model (gated graph convolutions + attention), a pure RNN
# encoder-decoder (whose decoder loop exposed grad-buffer layout bugs), a
# dilated-conv stack and a diffusion RNN.
MODELS = ("D2STGNN", "FC-LSTM", "GraphWaveNet", "DCRNN")


def _train_steps(name, data, batch_sizes=(16, 16)):
    """Run one deterministic optimisation step per entry of ``batch_sizes``.

    Consecutive training windows feed the steps, so a changing batch size
    changes every shape in the graph between steps.  Returns (grads,
    params) as raw bytes; both must match across engine configurations for
    the fast paths to be safe.
    """
    set_seed(0)
    model, _ = build_model(name, data, hidden=8, layers=1)
    optimizer = Adam(model.parameters(), lr=1e-3)
    scaler = data.scaler
    start = 0
    for size in batch_sizes:
        batch = data.train.gather(np.arange(start, start + size))
        start += size
        optimizer.zero_grad()
        prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
        loss = F.masked_mae_loss(prediction, Tensor(batch.y))
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
    grads = [p.grad.tobytes() for p in model.parameters()]
    params = [p.data.tobytes() for p in model.parameters()]
    return grads, params


def _assert_fast_matches_reference(name, data, batch_sizes=(16, 16)):
    fast = _train_steps(name, data, batch_sizes)
    with reference_backward(fused_matmul=True):
        reference = _train_steps(name, data, batch_sizes)
    assert fast[0] == reference[0], f"{name} {batch_sizes}: gradients diverged"
    assert fast[1] == reference[1], f"{name} {batch_sizes}: parameter updates diverged"


class TestBackwardFastPaths:
    @pytest.mark.parametrize("name", MODELS)
    def test_grads_and_updates_bit_identical(self, name, tiny_data):
        _assert_fast_matches_reference(name, tiny_data)

    @given(
        name=st.sampled_from(MODELS),
        batch_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_shape_sequences_bit_identical(self, tiny_data, name, batch_sizes):
        """Randomised oracle: shapes change from step to step."""
        _assert_fast_matches_reference(name, tiny_data, tuple(batch_sizes))


class TestBackwardMemory:
    def test_only_leaf_grads_outlive_backward(self):
        """After backward, the engine holds no op-node gradient buffer."""
        data = build_forecasting_data(load_dataset("metr-la-sim", num_nodes=6, num_steps=420))
        set_seed(0)
        model, _ = build_model("D2STGNN", data, hidden=8, layers=1)
        scaler = data.scaler

        def step(indices):
            model.zero_grad()
            batch = data.train.gather(indices)
            prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
            F.masked_mae_loss(prediction, Tensor(batch.y)).backward()

        with MemoryWatermark() as watermark:
            step(np.arange(8))
            step(np.arange(8, 16))
            live = watermark.live_bytes
        leaf_bytes = sum(p.grad.nbytes for p in model.parameters() if p.grad is not None)
        assert live == leaf_bytes


class TestVectorizedGather:
    @pytest.mark.parametrize("preset", ["metr-la-sim", "pems08-sim"])
    def test_bitwise_equal_to_loop(self, preset):
        data = build_forecasting_data(load_dataset(preset, num_nodes=6, num_steps=200))
        dataset = data.windows
        assert dataset._views is not None
        rng = np.random.default_rng(3)
        indices = rng.integers(0, len(dataset), size=40)
        fast = dataset.gather(indices)
        loop = dataset.gather_loop(indices)
        for field in ("x", "y", "tod", "dow"):
            a, b = getattr(fast, field), getattr(loop, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), field
            assert a.flags.c_contiguous

    def test_time_channel_inputs(self, tiny_dataset):
        data = build_forecasting_data(tiny_dataset, time_channels=True)
        indices = np.arange(10)
        fast = data.windows.gather(indices)
        loop = data.windows.gather_loop(indices)
        assert fast.x.tobytes() == loop.x.tobytes()
        assert fast.x.shape[-1] == 3

    def test_subset_offsets(self, tiny_data):
        subset = tiny_data.val
        indices = np.arange(len(subset))[:8]
        fast = subset.gather(indices)
        loop = subset.dataset.gather_loop(indices + subset.start)
        assert fast.x.tobytes() == loop.x.tobytes()
        assert fast.y.tobytes() == loop.y.tobytes()

    def test_out_of_range_raises(self, tiny_data):
        dataset = tiny_data.windows
        with pytest.raises(IndexError):
            dataset.gather(np.array([len(dataset)]))
        with pytest.raises(IndexError):
            dataset.gather(np.array([-1]))

    def test_fallback_path_matches(self, tiny_data):
        """With views unavailable, gather must fall back to the loop."""
        dataset = tiny_data.windows
        indices = np.arange(12)
        expected = dataset.gather(indices)
        views, dataset._views = dataset._views, None
        try:
            fallback = dataset.gather(indices)
        finally:
            dataset._views = views
        assert fallback.x.tobytes() == expected.x.tobytes()
        assert fallback.y.tobytes() == expected.y.tobytes()

    def test_short_time_index_disables_views(self):
        """Time indices shorter than the series cannot be windowed."""
        values = np.arange(60.0, dtype=np.float32).reshape(30, 2)
        dataset = WindowDataset(
            values_scaled=values,
            values_raw=values,
            time_of_day=np.arange(5),
            day_of_week=np.arange(30),
            history=3,
            horizon=3,
        )
        assert dataset._views is None


class TestBatchIteratorRNG:
    def test_default_rng_streams_are_independent(self, tiny_data):
        set_seed(11)
        first = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        second = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        assert first.x.tobytes() != second.x.tobytes()

    def test_default_rng_is_seed_reproducible(self, tiny_data):
        set_seed(11)
        first = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        set_seed(11)
        replay = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        assert first.x.tobytes() == replay.x.tobytes()

    def test_explicit_rng_still_wins(self, tiny_data):
        a = next(iter(BatchIterator(
            tiny_data.train, batch_size=16, shuffle=True, rng=np.random.default_rng(5)
        )))
        b = next(iter(BatchIterator(
            tiny_data.train, batch_size=16, shuffle=True, rng=np.random.default_rng(5)
        )))
        assert a.x.tobytes() == b.x.tobytes()
