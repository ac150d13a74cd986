"""Live-buffer memory watermark for the autodiff engine.

:class:`MemoryWatermark` measures what the engine actually allocates during
a traced region: every buffer *owned* by a tracked op node (forward
activations), kept by a fused kernel for its backward (``saved``), or
owned by a gradient, deduplicated by root buffer so views cost nothing.
It records three numbers:

* ``total_bytes`` — bytes allocated over the region (each owned buffer
  counted once);
* ``peak_bytes`` — the high-water mark of simultaneously *live* owned
  bytes, observed via weak references that fire the moment numpy frees a
  buffer;
* ``live_bytes`` — owned bytes still reachable right now.

The accounting deliberately mirrors the static tape-IR model in
:mod:`repro.check.tape`: leaf payloads (parameters, inputs) are excluded,
leaf gradients are included, and aliases are attributed to their root
buffer.  That makes ``total_bytes`` directly comparable to the IR's owned
byte count (the T001 consistency check) and ``peak_bytes`` the honest
"what the engine holds today" baseline that the arena plan's projected
peak is judged against.

Like :class:`repro.obs.Profiler` it is a method-swap instrument — active
only inside the ``with`` block, chaining the backward hook so it composes
with other instruments.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..tensor import tensor as _tensor_mod
from ..tensor.tensor import Tensor

__all__ = ["MemoryWatermark"]


class MemoryWatermark:
    """Track allocated / live / peak bytes of op and gradient buffers.

    Usage::

        with MemoryWatermark() as mem:
            loss = model(x, tod, dow).sum()
            loss.backward()
        print(mem.total_bytes, mem.peak_bytes)

    Only one watermark may be active at a time.  Buffers are registered
    when the engine defines them (op outputs via ``Tensor._make``,
    gradients via the backward hook) and released when numpy frees the
    underlying root buffer — CPython's refcounting makes that immediate,
    so the peak is deterministic.
    """

    _active = False

    def __init__(self) -> None:
        self.total_bytes = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.buffers = 0
        self._refs: dict[int, weakref.ref] = {}
        self._external: dict[int, np.ndarray] = {}
        self._closed = False
        self._original_make = None
        self._previous_hook = None

    # -- registration ---------------------------------------------------

    def _register(self, array: object) -> None:
        """Count the buffer under ``array`` if it was not seen before.

        A view counts its root buffer (``array.base`` chain): numpy's
        copy behind a reshape of a non-contiguous array is new storage
        even though the result is a view of it.  Roots already registered,
        and leaf/external payloads (:meth:`_exclude`), are skipped.
        """
        if self._closed or not isinstance(array, np.ndarray):
            return
        while isinstance(array.base, np.ndarray):
            array = array.base
        key = id(array)
        if key in self._refs or key in self._external:
            return
        nbytes = int(array.nbytes)

        def _released(_ref, *, _self=self, _key=key, _nbytes=nbytes):
            if not _self._closed:
                _self.live_bytes -= _nbytes
            _self._refs.pop(_key, None)

        self._refs[key] = weakref.ref(array, _released)
        self.buffers += 1
        self.total_bytes += nbytes
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    def _exclude(self, array: object) -> None:
        """Mark the root buffer of an op input nobody registered (a leaf,
        an input, a constant, a value made before the region) as external,
        so views of it are never counted.  Held until exit, so its id
        cannot be reused by a new buffer."""
        if not isinstance(array, np.ndarray):
            return
        while isinstance(array.base, np.ndarray):
            array = array.base
        if id(array) not in self._refs:
            self._external.setdefault(id(array), array)

    # -- instrumentation ------------------------------------------------

    def __enter__(self) -> "MemoryWatermark":
        if MemoryWatermark._active:
            raise RuntimeError("a MemoryWatermark is already active")
        MemoryWatermark._active = True
        register, exclude = self._register, self._exclude

        self._original_make = Tensor.__dict__["_make"]
        original_make_fn = self._original_make.__func__

        def watching_make(data, parents, backward, op):
            out = original_make_fn(data, parents, backward, op)
            if out._backward is not None:
                for parent in parents:
                    exclude(parent.data)
                register(out.data)
                # A fused kernel's saved buffers (repro.tensor.kernels).
                for array in getattr(out._backward, "saved", ()):
                    register(array)
            return out

        Tensor._make = staticmethod(watching_make)

        previous = _tensor_mod._BACKWARD_OP_HOOK
        self._previous_hook = previous

        def hook(node):
            register(node.grad)  # covers the root's seed gradient
            if previous is None:
                node._backward(node.grad)
            else:
                previous(node)
            for parent in node._parents:
                if parent.grad is not None:
                    register(parent.grad)

        _tensor_mod._set_backward_op_hook(hook)
        return self

    def __exit__(self, *exc_info) -> None:
        _tensor_mod._set_backward_op_hook(self._previous_hook)
        Tensor._make = self._original_make
        MemoryWatermark._active = False
        self._closed = True  # freeze the numbers; late weakref callbacks no-op
        self._external.clear()

    # -- reporting ------------------------------------------------------

    def to_dict(self) -> dict:
        """Summary dict (schema ``repro.obs.memory/v1``)."""
        return {
            "schema": "repro.obs.memory/v1",
            "total_bytes": self.total_bytes,
            "peak_bytes": self.peak_bytes,
            "live_bytes": self.live_bytes,
            "buffers": self.buffers,
        }
