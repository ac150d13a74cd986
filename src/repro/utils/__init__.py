"""Seeding, timing, atomic persistence, BLAS sizing and reporting utilities."""

from .ascii_plot import bar_chart, side_by_side, sparkline
from .atomic import atomic_savez, atomic_write
from .blas import blas_threads, set_blas_threads, shard_blas_threads
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_training_checkpoint,
    save_checkpoint,
    save_training_checkpoint,
)
from .seed import get_rng, set_seed, spawn_rng
from .timer import StopwatchStats, Timer, now

__all__ = [
    "CheckpointError",
    "atomic_savez",
    "atomic_write",
    "bar_chart",
    "blas_threads",
    "side_by_side",
    "sparkline",
    "StopwatchStats",
    "Timer",
    "get_rng",
    "load_checkpoint",
    "load_training_checkpoint",
    "now",
    "save_checkpoint",
    "save_training_checkpoint",
    "set_blas_threads",
    "set_seed",
    "shard_blas_threads",
    "spawn_rng",
]
