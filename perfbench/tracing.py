"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each simulator layer
(class attributes and one module function) with spans that measure call
counts and *self* time: a span's wall time minus the part covered by the
spans it caused.  Nothing under ``src/`` changes; the wrappers are
installed before the traced kernels are built (several layers pin bound
methods at construction) and removed afterwards.  Spans are aggregated
in memory per ``(profile, layer)`` instead of being kept one by one, so
a traced run's memory stays flat.

Wrappers record only while :attr:`Tracer.active` is set, which the
runner sets around request execution: set-up, warm-up and the reference
checks are not attributed to any layer.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.core.coherence import Coherence, LazySweeper
from repro.core.fastpath import FastLookup
from repro.core.resmemo import ResolutionMemo
from repro.fs.simext import SimExtFs
from repro.sim.costs import CostModel
from repro.vfs import syscalls as vfs_syscalls
from repro.vfs.dcache import Dcache
from repro.vfs.walk import SlowWalk
from repro.workloads import traces

#: layer -> [(owner, attribute)] of the entry points it is measured at.
LAYERS: Dict[str, List[Tuple[object, str]]] = {
    "vfs.syscalls": [(vfs_syscalls.Syscalls, name)
                     for name, value in vars(vfs_syscalls.Syscalls).items()
                     if callable(value) and not name.startswith("_")
                     and name != "batch"],
    "vfs.walk": [(SlowWalk, "resolve")],
    "core.fastpath": [(FastLookup, "resolve")],
    "core.resmemo": [(ResolutionMemo, "resolve")],
    "core.coherence": [(Coherence, "shootdown_subtree"),
                       (Coherence, "shootdown_single"),
                       (LazySweeper, "poll"), (LazySweeper, "sweep_once"),
                       (LazySweeper, "sweep_all")],
    "vfs.dcache": [(Dcache, name)
                   for name in ("d_lookup", "d_alloc", "d_move", "evict")],
    "fs.simext": [(SimExtFs, name) for name in
                  ("lookup", "create", "write", "rename", "unlink")],
    "sim.costs": [(CostModel, name) for name in
                  ("charge", "charge_in", "charge_many", "charge_in_many",
                   "charge_ns")],
    "workloads.traces": [(traces, "replay_compiled")],
}


class Tracer:
    """Span aggregation for one traced phase."""

    def __init__(self):
        self.active = False
        self.profile = None
        #: Child time accumulators of the open spans, innermost last.
        self._stack: List[int] = []
        self.self_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.memo_flushes: Counter = Counter()
        self.gc_collections: Counter = Counter()
        self.gc_pause_ns: Dict[str, int] = defaultdict(int)
        self._gc_start = None
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`; :meth:`uninstall`
        puts the originals back."""
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span(layer, attr,
                                                    getattr(owner, attr)))
        batch_getattr = vfs_syscalls.SyscallBatch.__getattr__
        self._patch(vfs_syscalls.SyscallBatch, "__getattr__",
                    self._batch_getattr(batch_getattr))
        self._patch(ResolutionMemo, "flush",
                    self._counting_flush(ResolutionMemo.flush))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- spans --------------------------------------------------------------

    def _span(self, layer: str, op: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = (tracer.profile, layer)
                tracer.self_ns[key] += elapsed - child
                tracer.calls[key] += 1
                tracer.op_calls[(tracer.profile, layer, op)] += 1

        return traced

    def _batch_getattr(self, original):
        """``Syscalls.batch`` entries: the hand-specialized fd ops never
        reach the ``Syscalls`` methods, so wrap them where the batch
        hands them out.  Other ops are partials over the (already
        wrapped) facade methods and are left alone."""
        tracer = self

        def __getattr__(batch, op):
            entry = original(batch, op)
            if op in vfs_syscalls._FAST_ENTRIES:
                entry = tracer._span("vfs.syscalls", op, entry)
                batch.__dict__[op] = entry
            return entry

        return __getattr__

    def _counting_flush(self, original):
        tracer = self

        @functools.wraps(original)
        def flush(memo):
            if tracer.active and len(memo):
                tracer.memo_flushes[tracer.profile] += 1
            return original(memo)

        return flush

    def _on_gc(self, phase: str, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns() if self.active else None
        elif self._gc_start is not None:
            self.gc_collections[self.profile] += 1
            self.gc_pause_ns[self.profile] += (time.perf_counter_ns()
                                               - self._gc_start)
            self._gc_start = None
