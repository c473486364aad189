"""Layer-boundary span tracing, from outside the program.

A traced repetition wraps public callables at the boundary of each
layer (and the ``pickle`` functions ``repro.exec.incremental`` calls
for checkpoint encode and decode) with functions that record one span
each: name, start, end and parent span. The wrappers delegate with the
same arguments and return the same values, so a traced run passes the
same fingerprint gate as an untraced one. The only change they make is
to turn on the simulator's existing per-event-kind kernel timers, which
report into ``result.observability`` only.

Spans are kept in flat arrays in memory and written once, at exit. A
layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

import repro.cluster.simulator as cluster_simulator
import repro.core.baselines as core_baselines
import repro.core.policy as core_policy
import repro.exec.incremental as exec_incremental
from repro.cluster.core import SimulationCore
from repro.cluster.loadbalancer import LoadBalancer
from repro.cluster.policy_base import PowerPolicy
from repro.control.actuator import Actuator
from repro.exec import traces
from repro.exec.cache import RunCache
from repro.exec.engine import SweepEngine
from repro.exec.runspec import RunSpec
from repro.obs.collect import TraceJob
from repro.powerfail.protection import ProtectionRuntime

#: The benchmark's own root span around one traced repetition. It is not
#: a layer: the part of it no layer span covers is the residual.
REP_SPAN = "bench.rep"

#: Spans whose self time is program time no layer accounts for: the
#: root, and the engine batch, which encloses every run of a repetition
#: (policy builds, trace lookups and result assembly land there).
UNATTRIBUTED = (REP_SPAN, "exec.engine")

#: Kernel-timer event kinds reported on their own; the rest are summed.
KERNEL_KINDS = ("arrival", "tick", "phase")


class SpanRecorder:
    """Flat in-memory span store with a parent stack (one thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Spans opened while an opaque span is open are not recorded,
        # so the opaque span's self time is all of its time.
        self._opaque = [0]
        self.counts: Dict[str, float] = {}
        # Gaps: intervals that count toward no span's self time (the
        # host-speed kernel, sampled from a signal handler).
        self.gap_parent = array("i")
        self.gap_start = array("d")
        self.gap_end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, opaque: bool = False) -> Callable:
        """``fn`` recording one ``name`` span per call.

        An ``opaque`` span records no spans opened inside it.
        """
        nid = self.name_id(name)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack, hidden = self._stack, self._opaque
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if hidden[0]:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            if opaque:
                hidden[0] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                if opaque:
                    hidden[0] -= 1
                stack.pop()

        return traced

    def gap(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` timed as a gap in whichever span it interrupts.

        Safe inside a signal handler that may interrupt ``wrap``'s span
        bookkeeping: it writes only the gap arrays, and the span that
        holds each gap is resolved afterwards by time containment.
        """
        stack = self._stack
        parents, starts, ends = self.gap_parent, self.gap_start, self.gap_end
        clock = time.perf_counter

        def timed() -> Any:
            parent = stack[-1]
            start = clock()
            value = fn()
            end = clock()
            parents.append(parent)
            starts.append(start)
            ends.append(end)
            return value

        return timed

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[int]:
        """A benchmark span enclosing a block; yields its index."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield index
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    @contextlib.contextmanager
    def patched(patches: List[Tuple[Any, str, Any]]) -> Iterator[None]:
        """Set ``owner.attr = value`` for each patch; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-span (name id, duration, self time) arrays."""
        names = np.frombuffer(self.name, dtype=np.int32).copy()
        parents = np.frombuffer(self.parent, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.float64)
        ends = np.frombuffer(self.end, dtype=np.float64)
        duration = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        for parent, start, end in zip(self.gap_parent, self.gap_start,
                                      self.gap_end):
            # The stack top seen by the handler may be a span not yet
            # started or already ended; the gap belongs to the innermost
            # span that contains it.
            while parent >= 0 and not (
                    starts[parent] <= start and end <= ends[parent]):
                parent = parents[parent]
            if parent >= 0:
                covered[parent] += end - start
        return names, duration, duration - covered

    def layer_totals(
        self, lo: int, hi: int
    ) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over spans ``lo:hi``."""
        names, _, self_s = self.self_times()
        ids = names[lo:hi]
        seconds = np.bincount(ids, weights=self_s[lo:hi],
                              minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {
            name: (float(seconds[i]), int(calls[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def residual(self, root: int, hi: int) -> float:
        """Share of root span ``root`` that no layer accounts for.

        That is the root's own self time plus the self time of the
        ``UNATTRIBUTED`` spans among spans ``root:hi``.
        """
        totals = self.layer_totals(root, hi)
        duration = self.end[root] - self.start[root]
        unattributed = sum(totals.get(name, (0.0, 0))[0]
                           for name in UNATTRIBUTED)
        return unattributed / duration if duration else 0.0

    def write(self, path: Path, header: Dict[str, Any]) -> None:
        """Write every span (compressed ``.npz``) at exit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            header=np.array(repr(header)),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            gap_parent=np.frombuffer(self.gap_parent, dtype=np.int32),
            gap_start=np.frombuffer(self.gap_start, dtype=np.float64),
            gap_end=np.frombuffer(self.gap_end, dtype=np.float64),
        )


def _policy_classes() -> List[type]:
    """The concrete policies in ``repro.core`` that define a decision."""
    classes = []
    for module in (core_policy, core_baselines):
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, PowerPolicy)
                    and value.__module__ == module.__name__):
                classes.append(value)
    return classes


def synthesis_patches(spans: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Trace synthesis (set-up): ``requests_for`` on each ``TraceKey``."""
    synth = spans.wrap("traces.synth", traces.requests_for)

    def requests_for(key: Any) -> Any:
        requests = synth(key)
        spans.count("traces.requests", len(requests))
        return requests

    return [(traces, "requests_for", requests_for)]


def run_patches(spans: SpanRecorder) -> List[Tuple[Any, str, Any]]:
    """Every layer boundary a timed repetition crosses."""
    wrap = spans.wrap
    patches: List[Tuple[Any, str, Any]] = []

    def method(owner: type, attr: str, name: str, **kw: Any) -> None:
        patches.append((owner, attr, wrap(name, owner.__dict__[attr], **kw)))

    # repro.exec: engine batches, digests, the memo cache, checkpoints.
    method(SweepEngine, "run_specs", "exec.engine")
    method(RunSpec, "digest", "exec.digest")
    patches.append((exec_incremental, "family_digest",
                    wrap("exec.digest", exec_incremental.family_digest)))
    for attr in ("get", "put"):
        method(RunCache, attr, "exec.cache")
    put_blob = wrap("exec.cache", RunCache.__dict__["put_blob"])
    get_blob = wrap("exec.cache", RunCache.__dict__["get_blob"])

    def put_blob_counted(self: RunCache, digest: str, blob: bytes) -> None:
        if "-ckpt-" in digest:
            spans.count("exec.ckpt_count")
            spans.count("exec.ckpt_bytes", len(blob))
        put_blob(self, digest, blob)

    def get_blob_counted(self: RunCache, digest: str) -> Any:
        blob = get_blob(self, digest)
        if blob is not None and "-ckpt-" in digest:
            spans.count("exec.ckpt_restores")
        return blob

    patches += [(RunCache, "put_blob", put_blob_counted),
                (RunCache, "get_blob", get_blob_counted)]
    patches.append((exec_incremental, "pickle", types.SimpleNamespace(
        dumps=wrap("exec.ckpt_encode", pickle.dumps),
        loads=wrap("exec.ckpt_restore", pickle.loads),
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
    )))
    patches.append((exec_incremental, "first_divergence",
                    wrap("exec.divergence_probe",
                         exec_incremental.first_divergence, opaque=True)))

    # repro.cluster: construction, the event loop, routing, finalize.
    simulator_cls = cluster_simulator.ClusterSimulator
    init = wrap("cluster.start", simulator_cls.__dict__["__init__"])

    def init_timed(self: Any, config: Any, policy: Any,
                   recorder: Any = None, kernel_timers: bool = False) -> None:
        init(self, config, policy, recorder, True)

    patches.append((simulator_cls, "__init__", init_timed))
    method(simulator_cls, "start", "cluster.start")
    loop = wrap("cluster.loop", SimulationCore.__dict__["run_all"])

    def run_all(self: SimulationCore, *args: Any, **kwargs: Any) -> None:
        # The kernel timers live in the core (and in its checkpoints), so
        # a resumed run counts only the events it processes itself.
        if self.timers is None:
            return loop(self, *args, **kwargs)
        before = {k: tuple(v) for k, v in self.timers.counters.items()}
        loop(self, *args, **kwargs)
        for kind, (calls, seconds) in self.timers.counters.items():
            calls0, seconds0 = before.get(kind, (0, 0.0))
            spans.count("cluster.events", calls - calls0)
            label = kind if kind in KERNEL_KINDS else "other"
            spans.count(f"cluster.kernel.{label}_s", seconds - seconds0)

    patches.append((SimulationCore, "run_all", run_all))
    method(SimulationCore, "finalize", "cluster.finalize")
    method(LoadBalancer, "route", "cluster.route")

    # repro.core policies + repro.control: decisions and commands.
    for attr in ("wants_brake", "brake_release_ok"):
        method(PowerPolicy, attr, "control.decide")
    for cls in _policy_classes():
        for attr in ("desired_caps", "wants_brake", "brake_release_ok"):
            if attr in cls.__dict__:
                method(cls, attr, "control.decide")
    method(Actuator, "issue", "control.issue")

    # repro.powerfail: the protection hierarchy.
    method(ProtectionRuntime, "update_server_power", "powerfail.update")
    method(ProtectionRuntime, "on_projection", "powerfail.projection")

    # repro.obs: the head of each spooled run's recorder chain.
    open_job = TraceJob.__dict__["open"]

    def open_traced(self: TraceJob) -> Any:
        recorder = open_job(self)
        recorder.emit = wrap("obs.emit", recorder.emit)
        return recorder

    patches.append((TraceJob, "open", open_traced))
    return patches
