"""Registry of the engine's op surface: primitive methods and fused kernels.

One table, shared by every tool that instruments the tensor engine by
swapping its ops while active (the method-swap pattern, zero overhead when
nothing is instrumented):

* the op-level profiler (:mod:`repro.obs.profiler`) wraps each entry in a
  timed closure;
* the anomaly sanitizer (:mod:`repro.check.sanitizers`) wraps each entry in
  a NaN/Inf check that names the offending op;
* the activation fault (:mod:`repro.faults.injectors`) poisons one op's
  output.

:data:`TENSOR_OPS` entries are ``(attribute on Tensor, recorded op name,
is_staticmethod)``.  Reflexive dunders (``__radd__`` etc.) alias the same
underlying function but are looked up as distinct class attributes, so they
are listed separately.  :data:`KERNEL_OPS` names the functions of
:mod:`repro.tensor.kernels`; each is recorded under its own name.
:func:`swap_ops` and :func:`restore_ops` do the swapping for all of them.
"""

from __future__ import annotations

from typing import Callable

from . import kernels
from .tensor import Tensor

__all__ = ["TENSOR_OPS", "KERNEL_OPS", "OP_NAMES", "swap_ops", "restore_ops"]

TENSOR_OPS: tuple[tuple[str, str, bool], ...] = (
    ("__add__", "add", False),
    ("__radd__", "add", False),
    ("__sub__", "sub", False),
    ("__rsub__", "sub", False),
    ("__mul__", "mul", False),
    ("__rmul__", "mul", False),
    ("__truediv__", "div", False),
    ("__rtruediv__", "div", False),
    ("__neg__", "neg", False),
    ("__pow__", "pow", False),
    ("__matmul__", "matmul", False),
    ("__rmatmul__", "matmul", False),
    ("__getitem__", "getitem", False),
    ("exp", "exp", False),
    ("log", "log", False),
    ("sqrt", "sqrt", False),
    ("tanh", "tanh", False),
    ("sigmoid", "sigmoid", False),
    ("relu", "relu", False),
    ("abs", "abs", False),
    ("leaky_relu", "leaky_relu", False),
    ("clip", "clip", False),
    ("softplus", "softplus", False),
    ("gelu", "gelu", False),
    ("sum", "sum", False),
    ("mean", "mean", False),
    ("max", "max", False),
    ("min", "min", False),
    ("reshape", "reshape", False),
    ("transpose", "transpose", False),
    ("swapaxes", "swapaxes", False),
    ("expand_dims", "expand_dims", False),
    ("squeeze", "squeeze", False),
    ("broadcast_to", "broadcast", False),
    ("pad_axis", "pad", False),
    ("split", "split", False),
    ("concatenate", "concat", True),
    ("stack", "stack", True),
    ("where", "where", True),
)

KERNEL_OPS: tuple[str, ...] = tuple(kernels.__all__)

OP_NAMES = frozenset(name for _attr, name, _static in TENSOR_OPS) | frozenset(KERNEL_OPS)

Swapped = list[tuple[object, str, object]]


def swap_ops(wrap: Callable[[Callable, str], Callable], only: str | None = None) -> Swapped:
    """Replace every registered op by ``wrap(fn, op_name)``.

    ``only`` restricts the swap to the entries recorded under that op name.
    Returns the ``(owner, attribute, original)`` triples that
    :func:`restore_ops` puts back.
    """
    swapped: Swapped = []
    for attr, op_name, is_static in TENSOR_OPS:
        if only is None or op_name == only:
            original = Tensor.__dict__[attr]
            wrapped = wrap(original.__func__ if is_static else original, op_name)
            swapped.append((Tensor, attr, original))
            setattr(Tensor, attr, staticmethod(wrapped) if is_static else wrapped)
    for name in KERNEL_OPS:
        if only is None or name == only:
            swapped.append((kernels, name, getattr(kernels, name)))
            setattr(kernels, name, wrap(getattr(kernels, name), name))
    return swapped


def restore_ops(swapped: Swapped) -> None:
    """Undo :func:`swap_ops` (last swap first) and empty ``swapped``."""
    for owner, attr, original in reversed(swapped):
        setattr(owner, attr, original)
    swapped.clear()
