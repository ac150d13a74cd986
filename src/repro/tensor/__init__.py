"""Reverse-mode autodiff substrate (the repository's stand-in for PyTorch)."""

from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    reference_backward,
)
from . import functional, kernels
from .gradcheck import gradcheck, numerical_gradient
from .trace import GraphTracer, TraceListener

__all__ = [
    "DEFAULT_DTYPE",
    "GraphTracer",
    "Tensor",
    "TraceListener",
    "functional",
    "kernels",
    "gradcheck",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "no_grad",
    "numerical_gradient",
    "reference_backward",
]
