"""Factorization counters and layer spans, installed by swapping bindings.

Nothing here edits kframekit's source. ``FactorCounter`` wraps numpy's
LAPACK entry points; ``Tracer`` wraps every public function of each layer
module at every binding that refers to it: the defining module's globals,
the ``from .x import y`` copies in other modules, the package namespace,
and methods or staticmethods on the layer's classes. ``install()`` and
``uninstall()`` swap the bindings, so an op run between them pays for the
wrappers and an op run outside them executes the original code unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "frames", "duality", "multipliers", "io", "cli")
KINDS = ("svd", "svd_norm", "eigh", "eigvalsh")
OUTSIDE = "outside"  # factorizations made while no layer span is open


class Patches:
    """Bindings to swap: (owner, name, original object, replacement)."""

    def __init__(self):
        self._items = []

    def add(self, owner, name, replacement):
        self._items.append((owner, name, vars(owner)[name], replacement))

    def install(self):
        for owner, name, _, new in self._items:
            setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old, _ in reversed(self._items):
            setattr(owner, name, old)


class FactorCounter:
    """Counts svd / eigh / eigvalsh calls, their computed work and repeats.

    ``numpy.linalg.svd`` is the binding kframekit calls directly;
    ``numpy.linalg._linalg.svd`` is the one ``norm(., 2)`` reaches, counted
    as ``svd_norm``. Each call is attributed to ``layer()``, which the tracer
    points at its innermost open span. With ``hash_inputs`` every input is
    hashed so that byte-equal repeats within one op can be counted.
    """

    def __init__(self, hash_inputs: bool = False):
        self.hash_inputs = hash_inputs
        self.layer = lambda: OUTSIDE
        self.patches = Patches()
        inner = np.linalg._linalg
        self.patches.add(np.linalg, "svd", self._wrap(np.linalg.svd, "svd"))
        self.patches.add(inner, "svd", self._wrap(inner.svd, "svd_norm"))
        self.patches.add(np.linalg, "eigh", self._wrap(np.linalg.eigh, "eigh"))
        self.patches.add(np.linalg, "eigvalsh", self._wrap(np.linalg.eigvalsh, "eigvalsh"))
        self.reset()

    def reset(self):
        self.counts: dict[tuple[str, str], int] = {}
        self.lapack_s: dict[str, float] = {}
        self.work = 0
        self.repeats = 0
        self._seen: set = set()

    def total(self) -> int:
        return sum(self.counts.values())

    def _wrap(self, fn, kind):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            layer = self.layer()
            self.counts[(layer, kind)] = self.counts.get((layer, kind), 0) + 1
            arr = np.asarray(a)
            m, n = arr.shape[-2:]
            self.work += m * n * min(m, n)
            if self.hash_inputs:
                key = (arr.shape, arr.dtype.str,
                       hashlib.blake2b(np.ascontiguousarray(arr).data).digest())
                if key in self._seen:
                    self.repeats += 1
                self._seen.add(key)
            t0 = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.lapack_s[layer] = self.lapack_s.get(layer, 0.0) + perf_counter() - t0

        return counted


class HostSpeed:
    """Host-speed probe: fixed plain-Python and numpy work, timed between ops.

    On a shared host the same op runs tens of percent slower for minutes at a
    time while neighbours are busy. The probe slows down with it, so the
    end-to-end times are reported scaled to the probe's reference duration:
    a run on a slow host and a run on a quiet one of the same code give the
    same figures, while a change to kframekit, which the probe never calls,
    moves them as it moves the raw times. A LAPACK-bound workload gets a probe
    of one large SVD, since small-matrix and interpreter work react more
    strongly to a busy host than large factorizations do.
    """

    EVERY_S = 0.5

    def __init__(self, lapack_bound: bool):
        rng = np.random.default_rng(0)
        self.lapack_bound = lapack_bound
        self.ref_s = 0.04 if lapack_bound else 0.02
        shape = (256, 384) if lapack_bound else (128, 192)
        self.big = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        self.small = rng.normal(size=(16, 24)) + 1j * rng.normal(size=(16, 24))
        self.samples: list[float] = []
        self._last = perf_counter()

    def sample(self):
        t0 = perf_counter()
        if self.lapack_bound:
            np.linalg.svd(self.big, full_matrices=False)
        else:
            total = 0
            for i in range(30000):
                total += i * i
            for _ in range(100):
                np.linalg.svd(self.small)
            np.linalg.svd(self.big)
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self):
        """One probe per ``EVERY_S`` passed since the last one, at most ten at once."""
        for _ in range(min(int((perf_counter() - self._last) / self.EVERY_S), 10)):
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return self.ref_s / float(np.median(self.samples))


def _public_callables(module):
    """(owner, name, function, is_static) for the module's own public API."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, False))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                if isinstance(raw, staticmethod):
                    out.append((obj, attr, raw.__func__, True))
                elif inspect.isfunction(raw):
                    out.append((obj, attr, raw, False))
    return out


class Tracer:
    """Spans around every call into a layer's public functions.

    A span is (name, start, end, parent, op id), kept in compact arrays in
    memory and written by ``save``. Factorizations and exceptions are
    attributed to the innermost open span's layer; an exception is counted
    once, by the span it first leaves.
    """

    def __init__(self, package, counter: FactorCounter):
        self.counter = counter
        counter.layer = self._innermost
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.errors = {layer: 0 for layer in LAYERS}
        self.bytes_in = 0
        self.op_id = -1
        self._stack: list[tuple[int, str]] = []
        self._last_exc = None
        self.patches = Patches()
        self._wrap_layers(package)

    def _wrap_layers(self, package):
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for owner, name, fn, is_static in _public_callables(module):
                label = name if owner is module else f"{owner.__name__}.{name}"
                wrapped = self._wrap(fn, layer, f"{layer}.{label}")
                if owner is module:
                    wrappers[id(fn)] = (fn, wrapped)
                else:
                    self.patches.add(owner, name, staticmethod(wrapped) if is_static else wrapped)
        for module in modules:
            for name, obj in vars(module).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.add(module, name, hit[1])

    def _innermost(self) -> str:
        return self._stack[-1][1] if self._stack else OUTSIDE

    def _wrap(self, fn, layer, name):
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        counts_bytes = name == "io.parse_file"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_bytes:
                self.bytes_in += os.path.getsize(args[0])
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append((idx, layer))
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[layer] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self, op_id: int):
        self.op_id = op_id
        self._last_exc = None
        self.counter.patches.install()
        self.patches.install()

    def uninstall(self):
        self.patches.uninstall()
        self.counter.patches.uninstall()

    def layer_times(self):
        """Per-layer (calls, self seconds) and io's outermost inclusive seconds."""
        n = len(self.start)
        if n == 0:
            zeros = np.zeros(len(LAYERS))
            return zeros, zeros, 0.0
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer = np.asarray(self.name_layer, dtype=np.int64)[np.frombuffer(self.name_id, dtype=np.int32)]
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(layer, minlength=len(LAYERS)).astype(float)
        self_total = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        io = LAYERS.index("io")
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        io_outer = (layer == io) & (parent_layer != io)
        return calls, self_total, float(dur[io_outer].sum())

    def save(self, path):
        np.savez(
            path,
            names=np.asarray(self.names),
            name_layer=np.asarray([LAYERS[i] for i in self.name_layer]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
