"""repro.utils.blas: resizing the loaded OpenBLAS pool after ``fork``."""

import multiprocessing as mp

import pytest

from repro.utils import blas

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy is not linked against OpenBLAS"
)


def _size_to_one(conn) -> None:
    conn.send(blas.set_blas_threads(1))
    conn.close()


@needs_openblas
def test_forked_child_sizes_its_own_pool_only():
    before = blas.blas_threads()
    ctx = mp.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_size_to_one, args=(child_end,))
    process.start()
    child_end.close()
    try:
        assert parent_end.recv() == 1
    finally:
        process.join(timeout=10.0)
    assert process.exitcode == 0
    assert blas.blas_threads() == before


@needs_openblas
def test_no_mapped_openblas_returns_none_and_does_nothing(monkeypatch):
    before = blas.blas_threads()
    monkeypatch.setattr(blas, "_mapped_libraries", lambda: ["/usr/lib/libm.so.6"])
    assert blas.set_blas_threads(1) is None
    assert blas.blas_threads() is None
    monkeypatch.undo()
    assert blas.blas_threads() == before


@pytest.mark.parametrize("cpus, num_shards, expected", [
    (2, 1, 2), (2, 2, 1), (2, 4, 1), (8, 2, 4), (8, 3, 2),
])
def test_shard_blas_threads_splits_the_affinity_set(monkeypatch, cpus, num_shards, expected):
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    assert blas.shard_blas_threads(num_shards) == expected
