"""Span tracing of toa_sim from outside the library.

``Tracer.installed()`` replaces the public functions of the traced modules
(and the named ``ConditionalPropagator`` methods) with wrappers that
record one span per call: name, start, end, parent span and operation.
Each function is replaced wherever a caller looks it up: in every
``toa_sim`` module namespace that holds it (``from x import f`` copies
included) and in module-level dispatch dicts such as the CLI command
table.  Leaving the context restores every original object, so an
untraced call pays nothing.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "scattering", "transfer", "wavepacket", "distributions", "regimes", "cli")

# ConditionalPropagator methods traced besides its public ones, with the
# span name each gets.
_PRIVATE_METHODS = {"__init__": "propagator_init", "_quadratic": "quadratic"}


def _overlap_pairs(prop, channels_of, x_min=-math.inf, x_max=math.inf) -> int:
    """Mode pairs one overlap-matrix build integrates, read from prop.regions."""
    pairs = 0
    for region in prop.regions:
        if min(x_max, region.x2) <= max(x_min, region.x1):
            continue
        for ch in channels_of:
            pairs += len(region.channel_modes[ch]) ** 2
    return pairs


def _count_detection(args, kwargs):
    prop = args[0]
    if prop._detection_matrix is not None or prop.config.gamma <= 0.0:
        return {}
    pairs = _overlap_pairs(prop, (1,))
    return {"mode_pairs": pairs, "elements": pairs * prop.k.shape[0] ** 2}


def _count_norm(args, kwargs):
    prop, x_min, x_max = args[:3]
    if (round(x_min, 12), round(x_max, 12)) in prop._norm_matrix_cache:
        return {}
    pairs = _overlap_pairs(prop, (0, 1), x_min, x_max)
    return {"mode_pairs": pairs, "elements": pairs * prop.k.shape[0] ** 2}


def _count_quadratic(args, kwargs):
    prop, _matrix, times = args[:3]
    return {"macs": prop.k.shape[0] ** 2 * len(times)}


def _count_sharp(args, kwargs):
    return {"k_points": len(args[0])}


def _count_transfer(args, kwargs):
    return {"slice_k": len(args[0]) * len(args[2])}


def _count_deconvolve(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "fourier")
    return {"fft_len": 4 * len(args[0]) if method == "fourier" else 0}


# Pre-call counters: span name -> f(args, kwargs) -> {counter: value}.
COUNTERS = {
    "kernels.sharp_edge_solve": _count_sharp,
    "kernels.transfer_solve": _count_transfer,
    "wavepacket.detection_matrix": _count_detection,
    "wavepacket.norm_matrix": _count_norm,
    "wavepacket.quadratic": _count_quadratic,
    "distributions.deconvolve": _count_deconvolve,
}


def _traced_functions():
    """(span name, original function) for every public function traced."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"toa_sim.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__
            # Functions a module re-exports from another toa_sim module are
            # traced under their own module; kernels owns its reference twin.
            if home == module.__name__ or home.startswith(module.__name__ + "."):
                out.append((f"{layer}.{name}", obj))
    return out


def _traced_methods():
    """(span name, attribute name) for the traced ConditionalPropagator methods."""
    cls = sys.modules["toa_sim.wavepacket"].ConditionalPropagator
    out = []
    for attr, obj in vars(cls).items():
        if not inspect.isfunction(obj):
            continue
        if attr in _PRIVATE_METHODS:
            out.append((f"wavepacket.{_PRIVATE_METHODS[attr]}", attr))
        elif not attr.startswith("_"):
            out.append((f"wavepacket.{attr}", attr))
    return out


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent_index, op_id, counters]``; spans
    are appended in start order, and a parent always precedes its
    children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def current_layer(self) -> str | None:
        return self.spans[self._stack[-1]][0].split(".")[0] if self._stack else None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter is not None else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op_id, counts]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Trace every call made inside the block as part of operation ``op_id``."""
        self.op_id = op_id
        patches = []  # (namespace, key, original)
        wrappers = {}
        for name, fn in _traced_functions():
            wrappers.setdefault(id(fn), (fn, self.wrap(name, fn)))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "toa_sim" or key.startswith("toa_sim."))]
        for module in modules:
            ns = vars(module)
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((ns, key, value))
                    ns[key] = hit[1]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dval in list(value.items()):
                        hit = wrappers.get(id(dval))
                        if hit is not None and hit[0] is dval:
                            patches.append((value, dkey, dval))
                            value[dkey] = hit[1]
        cls = sys.modules["toa_sim.wavepacket"].ConditionalPropagator
        for name, attr in _traced_methods():
            original = vars(cls)[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for target, key, original in reversed(patches):
                if isinstance(target, type):
                    setattr(target, key, original)
                else:
                    target[key] = original
            self.op_id = -1


def summarize(spans) -> dict:
    """Per-name busy/self time, calls and counters, plus per-layer self time.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(float)
    layer_self = defaultdict(float)
    min_self = math.inf
    for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        min_self = min(min_self, own)
        busy[name] += dur
        self_time[name] += own
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
        if counts:
            for key, value in counts.items():
                counters[f"{name}.{key}"] += value
    return {
        "busy": dict(busy),
        "self": dict(self_time),
        "calls": dict(calls),
        "counters": dict(counters),
        "layer_self": dict(layer_self),
        "min_self": min_self if spans else 0.0,
        "root_time": sum(end - start for _n, start, end, parent, _o, _c in spans if parent < 0),
    }
