"""Outside-in tracer: spans around the public functions of repro's layers.

The tracer wraps each function at the binding site its callers look up at
call time (a module attribute or a class attribute), records one span per
call in memory with integer-nanosecond timestamps, and puts every
original back on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` is
edited: the program runs its own code, only the names it resolves are
swapped for the duration of the traced window.

A span's *self time* is its duration minus the durations of the wrapped
calls it made.  Integer clocks make the accounting close exactly: the
self times of all spans sum to the durations of the root spans, and the
window's wall time minus that sum is the unattributed remainder (driver
loop, trainer glue, anything not wrapped).
"""

from __future__ import annotations

import inspect
import json
import time
import types
from array import array


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # One entry per span, in opening order.
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.root_ns = 0
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        return lid

    def add(self, counter: str, amount: float) -> None:
        """Accumulate a count measured at a layer boundary."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def call(self, layer: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``layer``."""
        lid = self._layer_id(layer)
        stack = self._stack
        idx = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        frame = [idx, 0]
        stack.append(frame)
        t0 = self.clock()
        self.span_start.append(t0)
        self.span_end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            self.span_end[idx] = t1
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += dur
            else:
                self.root_ns += dur

    # -- patching -----------------------------------------------------------
    def wrap(self, owner, attr: str, layer, on_return=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``layer`` is a span name, or a callable ``(tracer, args) -> name``
        that classifies the call before it runs.  ``on_return(tracer,
        args, out)`` records counts from the call's inputs and output.
        """
        fn = _binding(owner, attr)
        tracer = self
        classify = layer if callable(layer) else None

        def wrapper(*args, **kwargs):
            name = classify(tracer, args) if classify is not None else layer
            out = tracer.call(name, fn, args, kwargs)
            if on_return is not None:
                on_return(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` (restored on uninstall)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> list[str]:
        """Restore every original; returns the bindings that failed the
        identity check (empty when all originals are back)."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        bad = []
        for owner, attr, original in patches:
            if _binding(owner, attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    @property
    def installed(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- results ------------------------------------------------------------
    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def root_duration_ns(self) -> int:
        """Sum of root-span durations recomputed from the stored spans."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )

    def save(self, path) -> None:
        """Write the spans as JSON: a layer-name table plus parallel
        arrays (layer id, parent index, start ns, end ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": self.layers,
                "layer": self.span_layer.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "counters": self.counters,
            }, fh, separators=(",", ":"))


def _binding(owner, attr: str):
    """The object stored at ``owner.attr`` (a class's own function, not
    a bound method)."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


# -- repro's layer boundaries -------------------------------------------------

#: Span name of each ``repro.nn.functional`` kernel, forward and backward.
KERNELS = ("gelu", "linear", "softmax", "layer_norm", "cross_entropy",
           "dropout", "causal_mask")


def _kernel_layer(fn_name: str) -> str:
    for kernel in KERNELS:
        if fn_name.startswith(kernel):
            return f"nn.{kernel}"
    raise ValueError(f"unclassified kernel {fn_name}")


def _linear_flops(tracer, args, out) -> None:
    """GEMM FLOPs computed from tensor shapes (2·rows·in·out forward,
    twice that backward: dx and dW)."""
    if len(args) == 3:  # linear_forward(x, weight, bias)
        x, weight = args[0], args[1]
        factor = 2
    else:  # linear_backward(dy, cache)
        x, weight = args[1][0], args[1][1]
        factor = 4
    rows = x.size // x.shape[-1]
    tracer.add("nn.linear.flops", factor * rows * weight.shape[0] * weight.shape[1])


def _gather_bytes(tracer, args, out) -> None:
    tracer.add("kv.gather.bytes", sum(k.nbytes + v.nbytes for k, v in out))


def _decode_kind(tracer, args) -> str:
    """A ``DecodeSession.step`` holding no cache blocks prefills its
    whole context (first step, resume after preemption, or the
    over-window recompute path); otherwise it decodes one token."""
    session = args[0]
    if session.live_blocks == 0:
        tracer.add("serve.prefill_tokens", min(len(session.tokens), session.window))
        return "serve.prefill"
    return "serve.decode"


def _after_tick(tracer, args, out) -> None:
    engine = args[0]
    tracer.add("serve.ticks", 1)
    tracer.add("kv.occupancy.sum", engine.cache.live_blocks / engine.cache.capacity)


def _worker_busy(tracer, args, out) -> None:
    busy = [seconds for (_, _, _, seconds) in out]
    tracer.add("mp.steps", 1)
    tracer.add("mp.busy_max_s", max(busy))
    tracer.add("mp.busy_min_s", min(busy))


def install_repro(tracer: Tracer) -> None:
    """Wrap the public functions of repro.nn, repro.comm (at the names
    repro.parallel imported), repro.parallel.mp_workers and repro.serve."""
    from repro.nn import functional
    from repro.nn.optim import Adam
    from repro.nn.transformer import GPTModel
    from repro.parallel import (
        data_parallel,
        mp_workers,
        pipeline_parallel,
        tensor_parallel,
    )
    from repro.serve import decode, engine, kv_cache

    for name, fn in vars(functional).items():
        if inspect.isfunction(fn) and fn.__module__ == functional.__name__:
            tracer.wrap(functional, name, _kernel_layer(name),
                        _linear_flops if name.startswith("linear") else None)
    tracer.wrap(Adam, "step", "nn.adam")
    tracer.wrap(GPTModel, "forward_step", "nn.forward_step")
    for module in (tensor_parallel, pipeline_parallel, data_parallel):
        tracer.wrap(module, "ring_all_reduce", "comm.all_reduce")
    tracer.wrap(pipeline_parallel, "send", "comm.send")
    tracer.wrap(mp_workers.ReplicaWorkerGroup, "step", "mp.step", _worker_busy)
    tracer.wrap(decode.DecodeSession, "step", _decode_kind)
    tracer.wrap(decode, "_pick", "serve.sample")
    tracer.wrap(kv_cache.PagedKVCache, "append", "kv.append")
    tracer.wrap(kv_cache.PagedKVCache, "gather", "kv.gather", _gather_bytes)
    tracer.replace(kv_cache, "zlib", types.SimpleNamespace(crc32=kv_cache.zlib.crc32))
    tracer.wrap(kv_cache.zlib, "crc32", "kv.crc")
    tracer.wrap(engine.ServeEngine, "tick", "serve.tick", _after_tick)
