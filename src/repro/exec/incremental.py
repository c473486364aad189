"""Checkpointed incremental re-simulation for controller sweeps.

The paper's evaluation (Figs 13-18) is a dense grid over *controller
parameters*: most sweep points share the cluster configuration and
request trace and differ only in policy thresholds. A policy influences
the simulation through exactly three calls per control step —
``wants_brake``, ``brake_release_ok``, ``desired_caps`` — so two
policies that answer those calls identically produce bit-identical
trajectories. This module exploits that:

* every *full* simulation of a *family* (same :class:`~repro.cluster
  .simulator.ClusterConfig` + duration + trace, policy excluded — see
  :func:`family_digest`) runs under a :class:`TapePolicy`, which
  appends every control step's inputs and answers to a columnar
  :class:`Tape`, and writes compact
  :meth:`~repro.cluster.core.SimulationCore.checkpoint` blobs at epoch
  boundaries into the :class:`~repro.exec.cache.RunCache` blob layer.
  The run's tape, checkpoint times, final append-only series and result
  digest join the family's list of tapes. A checkpoint holds only the
  state the run changed, at a size that does not grow with simulated
  time: the trace, the per-server specs and the static event schedule
  are rebuilt from a freshly started template core on restore, and the
  latency and power series are sliced back out of the tape's final
  series;
* a later sweep point probes its *own* policy against each of the
  family's tapes. If one matches entirely, its result is reused
  outright. Otherwise the point restores the latest checkpoint that any
  tape's matching prefix covers, replays that prefix into a fresh
  policy instance to rebuild its hysteresis state, and simulates only
  the suffix;
* a point that no checkpoint serves (it diverges before every tape's
  first checkpoint) runs in full and leaves a tape of its own, so the
  grid's later points can match it instead.

The replay is sound because the recorded inputs (utilization, time,
which brake call fires) are functions of the simulator trajectory,
which is identical while the outputs match: the first divergence found
against a tape is the first divergence of a real run. Checkpoints
restore bit-identically (every mutable object of the core round-trips,
RNG streams included), so suffix replay equals straight-through
simulation — the parity tests assert this exactly, adversarial fault
plans included.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.cluster.core import SimulationCore
from repro.cluster.metrics import SimulationResult
from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.errors import ConfigurationError
from repro.exec import traces
from repro.exec.cache import RunCache
from repro.exec.runspec import DIGEST_VERSION, RunSpec, _canonical
from repro.obs.recorder import MemoryRecorder, TraceRecorder

#: Bump when the tape/checkpoint blob layout changes incompatibly;
#: embedded in :func:`family_digest`, so stale blobs become unreachable
#: rather than mis-read. Schema 2: recorded base runs store the family
#: event tape (the full trace, per-checkpoint event counts, and
#: pickled metrics registries) so resumed runs can replay the
#: checkpointed prefix's events and record traces identical to a cold
#: run's. Schema 3: checkpoints are compact
#: :meth:`~repro.cluster.core.SimulationCore.checkpoint` blobs, and the
#: decision tape is stored as columns. Schema 4: the protection
#: runtime's energy ledger, pickled into checkpoints of protected runs,
#: holds scaled integers instead of ``Fraction``\ s. Schema 5:
#: checkpoints hold the event queue as a cursor into the static
#: schedule plus the dynamic heap, the load balancer carries its
#: routing index, and the per-server numpy mirror is gone. Schema 6: a
#: family keeps one tape per full simulation (``<family>-tapes``, with
#: checkpoints ``<family>-ckpt-<tape>-<index>``); checkpoints record
#: the append-only series by length, servers by their run state, and
#: the tape stores the final series.
INCREMENTAL_SCHEMA = 6


def family_digest(spec: RunSpec) -> str:
    """The digest of everything the spec's *simulation* shares.

    Policy is deliberately excluded: all sweep points with the same
    config, duration, and trace source replay the same trace through
    the same cluster and may share checkpoints up to their first
    controller divergence. The trace source *is* included — a replayed
    CSV and the synthetic pipeline are different simulations even under
    identical configs.
    """
    payload = json.dumps(
        {
            "digest_version": DIGEST_VERSION,
            "incremental_schema": INCREMENTAL_SCHEMA,
            "config": _canonical(spec.config),
            "duration_s": repr(spec.duration_s),
            "trace": _canonical(spec.trace),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StepRecord:
    """One control step as the policy saw it.

    Attributes:
        now: Simulation time of the telemetry delivery.
        utilization: Row utilization handed to the policy.
        brake_call: Which brake predicate the simulator consulted this
            step — ``"want"``, ``"release"``, or ``None`` (neither: the
            brake was engaged but still inside its hold window).
        brake_result: The predicate's answer (``None`` iff no call).
        caps: The caps the policy asked for.
    """

    now: float
    utilization: float
    brake_call: Optional[str]
    brake_result: Optional[bool]
    caps: GroupCaps


#: ``StepRecord.brake_call``/``brake_result`` values by their code in
#: the tape's ``brake_call``/``brake_result`` columns.
_BRAKE_CALLS = (None, "want", "release")
_BRAKE_RESULTS = (None, False, True)
_WANT, _RELEASE = 1, 2


class Tape:
    """The control-step tape, one column per :class:`StepRecord` field.

    Steps are appended in place; the caps column holds indices into
    ``caps_table``, the distinct :class:`GroupCaps` in first-seen order.
    Indexing yields :class:`StepRecord`\\ s, slicing a shorter tape, and
    a tape compares equal to the list of its records.
    """

    __slots__ = ("now", "utilization", "brake_call", "brake_result",
                 "caps", "caps_table", "_caps_index")

    def __init__(self) -> None:
        self.now = array("d")
        self.utilization = array("d")
        self.brake_call = array("b")
        self.brake_result = array("b")
        self.caps = array("i")
        self.caps_table: List[GroupCaps] = []
        self._caps_index: Dict[GroupCaps, int] = {}

    @classmethod
    def of(cls, records: Iterable[StepRecord]) -> "Tape":
        tape = cls()
        for r in records:
            tape.append(
                r.now, r.utilization, _BRAKE_CALLS.index(r.brake_call),
                _BRAKE_RESULTS.index(r.brake_result), r.caps,
            )
        return tape

    def append(
        self, now: float, utilization: float, call: int, result: int,
        caps: GroupCaps,
    ) -> None:
        """Append one step (``call``/``result`` are column codes)."""
        self.now.append(now)
        self.utilization.append(utilization)
        self.brake_call.append(call)
        self.brake_result.append(result)
        index = self._caps_index.get(caps)
        if index is None:
            index = self._caps_index[caps] = len(self.caps_table)
            self.caps_table.append(caps)
        self.caps.append(index)

    def __len__(self) -> int:
        return len(self.now)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, slice):
            tape = Tape()
            for name in ("now", "utilization", "brake_call",
                         "brake_result", "caps"):
                setattr(tape, name, getattr(self, name)[key])
            tape.caps_table = list(self.caps_table)
            tape._caps_index = dict(self._caps_index)
            return tape
        return StepRecord(
            self.now[key], self.utilization[key],
            _BRAKE_CALLS[self.brake_call[key]],
            _BRAKE_RESULTS[self.brake_result[key]],
            self.caps_table[self.caps[key]],
        )

    def __iter__(self) -> Iterator[StepRecord]:
        return (self[index] for index in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Tape, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class TapePolicy(PowerPolicy):
    """Forwarding wrapper that records the control-step tape.

    Wraps any :class:`~repro.cluster.policy_base.PowerPolicy` without
    changing its behavior: every call is forwarded verbatim (so the
    wrapped run stays bit-identical), and each ``desired_caps`` call —
    the unconditional last policy call of a control step — appends one
    step to :attr:`tape`.
    """

    def __init__(self, inner: PowerPolicy) -> None:
        self.inner = inner
        self.tape = Tape()
        self._call = 0
        self._result = 0
        # Shadow the PowerPolicy *class* attributes with the wrapped
        # policy's values — class attributes resolve before
        # ``__getattr__``, which only covers names the base class does
        # not define.
        self.name = inner.name
        self.brake_threshold = inner.brake_threshold
        self.brake_release = inner.brake_release

    def __getattr__(self, name: str) -> Any:
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def wants_brake(self, utilization: float) -> bool:
        result = self.inner.wants_brake(utilization)
        self._call = _WANT
        self._result = 2 if result else 1
        return result

    def brake_release_ok(self, utilization: float) -> bool:
        result = self.inner.brake_release_ok(utilization)
        self._call = _RELEASE
        self._result = 2 if result else 1
        return result

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        caps = self.inner.desired_caps(utilization, now)
        self.tape.append(now, utilization, self._call, self._result, caps)
        self._call = self._result = 0
        return caps

    def reset(self) -> None:
        self.inner.reset()
        self.tape = Tape()
        self._call = self._result = 0


def _replay(policy: PowerPolicy, tape: Tape, stop: int) -> Optional[int]:
    """Drive the tape's first ``stop`` steps through ``policy``.

    Returns the index of the first step ``policy`` answers differently,
    or ``None``. Each step issues exactly the calls the recorded run's
    policy received — ``desired_caps`` even after a divergent brake
    answer, since the simulator calls it unconditionally — so the
    policy's hysteresis state tracks a real run step for step.
    """
    wants_brake = policy.wants_brake
    release_ok = policy.brake_release_ok
    desired_caps = policy.desired_caps
    table = tape.caps_table
    steps = zip(tape.now, tape.utilization, tape.brake_call,
                tape.brake_result, tape.caps)
    for index, (now, utilization, call, result, caps) in enumerate(steps):
        if index == stop:
            break
        if call == _WANT:
            answer = 2 if wants_brake(utilization) else 1
        elif call == _RELEASE:
            answer = 2 if release_ok(utilization) else 1
        else:
            answer = result
        if desired_caps(utilization, now) != table[caps] \
                or answer != result:
            return index
    return None


def first_divergence(
    tape: Union[Tape, Sequence[StepRecord]], policy: PowerPolicy
) -> Optional[int]:
    """Index of the first step where ``policy`` answers differently.

    ``None`` means the policy matches the entire tape (and would
    reproduce the recorded run bit-for-bit). The probe policy is
    consumed: its state afterwards is only meaningful up to the returned
    index.
    """
    if not isinstance(tape, Tape):
        tape = Tape.of(tape)
    return _replay(policy, tape, len(tape))


@dataclass
class IncrementalStats:
    """What the incremental executor actually did (cumulative).

    Attributes:
        base_runs: Family-first runs (for a recorded run: the first with
            an event tape) simulated in full while recording the tape
            and checkpoints.
        resumed_runs: Runs restored from a checkpoint and replayed only
            past it.
        reused_results: Full-tape matches answered with the tape's
            result, no simulation at all.
        cold_runs: Later runs of a family simulated in full (divergence
            before every tape's first checkpoint, or evicted blobs);
            each leaves a tape and checkpoints like a base run.
        saved_s: Total simulated seconds skipped via restores.
        replayed_s: Total simulated seconds actually re-run on resumes.
    """

    base_runs: int = 0
    resumed_runs: int = 0
    reused_results: int = 0
    cold_runs: int = 0
    saved_s: float = 0.0
    replayed_s: float = 0.0


class IncrementalExecutor:
    """Executes :class:`~repro.exec.runspec.RunSpec`\\ s incrementally.

    Attributes:
        cache: The :class:`~repro.exec.cache.RunCache` holding tape and
            checkpoint blobs (and, through the engine, results).
        checkpoint_epoch_s: Simulation-time spacing of checkpoints
            recorded during each full simulation.
        stats: Cumulative :class:`IncrementalStats`.
    """

    def __init__(
        self, cache: RunCache, checkpoint_epoch_s: float = 600.0
    ) -> None:
        if checkpoint_epoch_s <= 0:
            raise ConfigurationError("checkpoint_epoch_s must be positive")
        self.cache = cache
        self.checkpoint_epoch_s = checkpoint_epoch_s
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------
    def execute(
        self,
        spec: RunSpec,
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """Run one spec, reusing the family's prefix when possible.

        With an enabled ``recorder``, the run's full trace lands in it
        — identical to a cold recorded run — regardless of how the
        result was produced: full simulations store their event stream
        with their tape, resumed runs replay the checkpointed prefix's
        events from the tape and record the suffix live (the restored
        core re-arms via ``attach_recorder``), and full-tape reuses
        replay the whole tape. Recording never perturbs results. Only
        tapes with an event stream serve a recorded run.
        """
        if recorder is not None and not recorder.enabled:
            recorder = None
        family = family_digest(spec)
        tapes = self._load_tapes(family)
        if not any(recorder is None or meta["events"] is not None
                   for meta in tapes):
            self.stats.base_runs += 1
            return self._full_run(spec, family, tapes, recorder)
        return self._variant_run(spec, family, tapes, recorder)

    # ------------------------------------------------------------------
    def _load_tapes(self, family: str) -> List[Dict[str, Any]]:
        """The family's tapes, oldest first (none if stale/unreadable)."""
        blob = self.cache.get_blob(f"{family}-tapes")
        if blob is None:
            return []
        try:
            stored = pickle.loads(blob)
        except Exception:
            return []
        if not isinstance(stored, dict) \
                or stored.get("schema") != INCREMENTAL_SCHEMA:
            return []
        return stored["tapes"]

    def _full_run(
        self,
        spec: RunSpec,
        family: str,
        tapes: List[Dict[str, Any]],
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """Full run under the tape recorder, checkpointing each epoch.

        Appends the run's tape to the family's ``tapes``: the columnar
        control-step tape, the checkpoint times, the run's final
        :class:`~repro.cluster.core.RunSeries` (checkpoints record the
        series by length) and its result digest. When recording, the
        run spools its events into an internal buffer that becomes the
        tape's *event tape*: the full stream, plus — aligned with each
        checkpoint — the number of events emitted strictly before it
        and the metrics registry as of it (checkpoint blobs themselves
        exclude both; see ``SimulationCore.checkpoint``). The caller's
        recorder gets the spooled stream replayed at the end.
        """
        policy = TapePolicy(spec.policy.build())
        requests = traces.requests_for(spec.trace_key())
        spool = MemoryRecorder() if recorder is not None else None
        simulator = ClusterSimulator(spec.config, policy, recorder=spool)
        core = simulator.start(requests, spec.duration_s)
        prefix = f"{family}-ckpt-{len(tapes)}-"
        epochs: List[float] = []
        event_counts: List[int] = []
        registries: List[bytes] = []

        def checkpoint(when: float, live_core: SimulationCore) -> None:
            self.cache.put_blob(
                f"{prefix}{len(epochs)}", live_core.checkpoint()
            )
            epochs.append(when)
            if spool is not None:
                event_counts.append(len(spool.events))
                registries.append(pickle.dumps(
                    live_core.obs, protocol=pickle.HIGHEST_PROTOCOL
                ))

        core.run_all(self.checkpoint_epoch_s, checkpoint)
        result = core.finalize()
        tapes.append({
            "tape": policy.tape,
            "epochs": epochs,
            "series": core.series(),
            "result_digest": spec.digest(),
            "events": list(spool.events) if spool is not None else None,
            "event_counts": event_counts if spool is not None else None,
            "registries": registries if spool is not None else None,
        })
        self.cache.put_blob(f"{family}-tapes", pickle.dumps(
            {"schema": INCREMENTAL_SCHEMA, "tapes": tapes},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        if recorder is not None:
            for event in spool.events:
                recorder.emit(event)
            recorder.finalize(spec.duration_s)
        return result

    def _variant_run(
        self,
        spec: RunSpec,
        family: str,
        tapes: List[Dict[str, Any]],
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """Reuse a fully matching tape's result, or resume from the
        latest checkpoint any tape's matching prefix covers."""
        candidates: List[Tuple[float, int, int]] = []
        for position, meta in enumerate(tapes):
            if recorder is not None and meta["events"] is None:
                continue
            probe = spec.policy.build()
            probe.reset()
            divergence = first_divergence(meta["tape"], probe)
            if divergence is None:
                base = self.cache.get(meta["result_digest"])
                if base is not None:
                    # The policy matches the tape's every answer: the
                    # trajectory (hence the result and its trace) is
                    # identical.
                    self.stats.reused_results += 1
                    if recorder is not None:
                        for event in meta["events"]:
                            recorder.emit(event)
                        recorder.finalize(spec.duration_s)
                    return base
                horizon = math.inf  # result lost: resume at the end
            else:
                horizon = meta["tape"].now[divergence]
            # Checkpoints taken at or before the divergent step (its
            # control event is >= the boundary, so it has not run yet
            # in the restored core).
            candidates += [
                (when, position, index)
                for index, when in enumerate(meta["epochs"])
                if when <= horizon
            ]
        # The latest first; evicted blobs degrade to earlier checkpoints,
        # then to a full run that leaves a tape of its own.
        for when, position, index in sorted(candidates, reverse=True):
            blob = self.cache.get_blob(f"{family}-ckpt-{position}-{index}")
            if blob is not None:
                return self._resume(
                    spec, tapes[position], blob, when, index, recorder
                )
        self.stats.cold_runs += 1
        return self._full_run(spec, family, tapes, recorder)

    def _resume(
        self,
        spec: RunSpec,
        meta: Dict[str, Any],
        blob: bytes,
        when: float,
        index: int,
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        policy = spec.policy.build()
        # The template supplies what the checkpoint references. Its
        # ``start()`` resets the policy, so build it before the replay.
        template = ClusterSimulator(spec.config, policy).start(
            traces.requests_for(spec.trace_key()), spec.duration_s
        )
        # Rebuild the policy's hysteresis state as of the checkpoint:
        # replay every control step strictly before it (the step at the
        # boundary, if any, has not been processed by the restored
        # core). All of these matched during divergence probing, so the
        # state equals a real run's.
        tape = meta["tape"]
        _replay(policy, tape, bisect_left(tape.now, when))
        core = SimulationCore.restore(blob, template, meta["series"])
        if recorder is not None:
            # The tape's run and this variant are bit-identical up to
            # the checkpoint (the prefix matched), so the tape's first
            # ``event_counts[index]`` events are exactly the events the
            # restored core will not re-emit. Replay them, then re-arm
            # recording with the registry pickled at the checkpoint —
            # the suffix continues counters and events exactly where a
            # cold recorded run would be at this point.
            for event in meta["events"][:meta["event_counts"][index]]:
                recorder.emit(event)
            core.attach_recorder(
                recorder, pickle.loads(meta["registries"][index])
            )
        core.run_all()
        self.stats.resumed_runs += 1
        self.stats.saved_s += when
        self.stats.replayed_s += spec.duration_s - when
        return core.finalize()
