"""The simulation core behind :class:`ClusterSimulator`.

:class:`SimulationCore` owns every piece of mutable state of one run —
what used to live in the locals and closures of ``ClusterSimulator.run``
— without changing a single simulated outcome (the golden-parity suite
pins bit-identity to the original simulator):

* **A cheap event.** The static schedule the constructor knows up front
  (arrivals, telemetry ticks, churn, initial protection projections;
  over half of a run's events) is one presorted list read through a
  cursor, and a heap holds only the events pushed at run time
  (:class:`~repro.cluster.events.EventQueue`). :meth:`SimulationCore.
  run_all` merges the two heads on the same ``(time, seq)`` key and
  integrates energy inline. Routing reads the load balancer's
  per-occupancy bitmasks, which the power refresh after every occupancy
  change keeps current, and server power comes from one scalar kernel
  memoized on (activity, effective clock ratio). Row power updates in
  per-index order, so the exact energy integral's float summation
  order is fixed.

* **Checkpointing.** Because all mutable state hangs off one object,
  :meth:`SimulationCore.checkpoint` can encode a mid-flight run and
  :meth:`SimulationCore.restore` rebuild it, so
  :mod:`repro.exec.incremental` can resume it under a different
  controller. A checkpoint holds only what the run has changed, and
  its size does not grow with simulated time: the immutables every
  core of one config, trace and duration shares (requests, config,
  power model, per-server specs, the policy) are left out or written
  as indices and resolved against a freshly started template core,
  the static event schedule is written as the cursor into the
  template's copy, and the append-only series (latencies, power
  samples) as their lengths, sliced back out of the final series of
  a run that shares the prefix (:class:`RunSeries`). Cores also
  pickle whole (``__getstate__`` re-keys the id-keyed maps).

Per-event-kind kernel timing (:class:`KernelTimers`) is opt-in and
surfaces in ``result.observability["sim_core"]`` so hot-path regressions
show up in traces.
"""

from __future__ import annotations

import copyreg
import io
import math
import pickle
from array import array
from dataclasses import dataclass
from heapq import heappop
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import TimeSeries
from repro.cluster.events import EventQueue
from repro.cluster.metrics import PriorityMetrics, SimulationResult
from repro.cluster.policy_base import GroupCaps
from repro.cluster.server_sim import ServerSim, power_memo
from repro.control.actions import ActionKind, ControlAction
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, TelemetryFate
from repro.faults.plan import FaultPlan
from repro.faults.report import OverBudgetTracker, RobustnessReport
from repro.gpu.specs import A100_80GB
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.powerfail.protection import ProtectionRuntime
from repro.powerfail.topology import PowerTopology
from repro.telemetry.base import SampledInterface
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority


#: Core attributes every core of one config, trace and duration shares
#: (equal objects, or the very same ones): a checkpoint leaves them out
#: and :meth:`SimulationCore.restore` takes them from its template.
_TEMPLATE_STATE = (
    "config", "policy", "power_model", "requests", "reliability",
    "protection", "emergency", "_index_by_priority", "_ids_by_priority",
    "_all_ids", "server_index",
)


@dataclass(frozen=True)
class RunSeries:
    """The append-only series of a run, as of when they were taken.

    At any point of a run each series is a prefix of its final value, so
    a checkpoint records only their lengths and
    :meth:`SimulationCore.restore` slices them back out of the series
    of any run whose trajectory equals the checkpointed one up to the
    checkpoint (in particular, the checkpointed run's own final series).

    Attributes:
        latencies: Per-priority latency lists (``metrics``).
        workload_latencies: Per-workload latency lists
            (``workload_metrics``).
        power_samples: The row power samples taken.
        util_samples: The utilizations a recorded run observed.
    """

    latencies: Dict[Priority, array]
    workload_latencies: Dict[str, array]
    power_samples: np.ndarray
    util_samples: array


#: Every event kind; ``SimulationCore._on_<kind>`` handles it.
EVENT_KINDS = (
    "arrival", "phase", "tick", "obs",
    "cap", "verify_cap", "reissue_cap",
    "brake_on", "brake_off", "verify_brake", "reissue_brake",
    "server_fail", "server_recover", "prot", "prot_restore",
)


class _Handlers(dict):
    """Event kind -> bound handler; an unknown kind is an error."""

    def __missing__(self, kind: str) -> None:
        raise SimulationError(f"unknown event kind {kind!r}")


class KernelTimers:
    """Per-event-kind call/latency counters for the hot path.

    Opt-in: the default simulator runs the untimed loop, so disabled
    runs pay nothing (not even a clock read per event).
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, List[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        cell = self.counters.get(kind)
        if cell is None:
            self.counters[kind] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {"calls": n, "seconds": s}}``, sorted by cost."""
        return {
            kind: {"calls": int(calls), "seconds": seconds}
            for kind, (calls, seconds) in sorted(
                self.counters.items(), key=lambda kv: -kv[1][1]
            )
        }


class SimulationCore:
    """All mutable state and event handlers of one simulation run.

    Built by :meth:`ClusterSimulator.start`; callers normally just
    ``run_all()`` then ``finalize()``. The attribute layout is the
    former ``run()`` local-variable set, verbatim — see the module
    docstring for why it is an object now.
    """

    def __init__(
        self,
        simulator: Any,
        requests: Sequence[SampledRequest],
        duration_s: float,
    ) -> None:
        config = simulator.config
        self.config = config
        self.policy = simulator.policy
        self.power_model = simulator.power_model
        self.servers = simulator.servers
        self._index_by_priority = simulator._index_by_priority
        self._ids_by_priority = simulator._ids_by_priority
        self._all_ids = simulator._all_ids
        self.balancer = simulator.balancer
        self.requests = requests
        self.duration_s = duration_s
        self.timers: Optional[KernelTimers] = (
            KernelTimers() if simulator.kernel_timers else None
        )

        reliability = config.reliability
        self.reliability = reliability
        plan = config.fault_plan if config.fault_plan is not None \
            else FaultPlan.none()
        self.injector = FaultInjector(
            plan, duration_s=duration_s, n_servers=config.n_servers
        )
        self.interface = SampledInterface(
            name="row-telemetry",
            interval=config.telemetry_interval_s,
            in_band=False,
            delay=plan.telemetry.delay_s,
            noise_std=plan.telemetry.noise_std,
            seed=plan.seed,
        )
        self.actuator = simulator._build_actuator(plan)
        # With a perfect actuation path every command provably lands by
        # its spec latency, so the verify deadline would always pass:
        # elide it. This also keeps the event stream — and hence the
        # float summation order of the exact energy integral —
        # bit-identical to the original fault-free simulator.
        self.verify_commands = (
            plan.actuation.silent_failure_rate > 0.0
            or plan.actuation.delay_prob > 0.0
        )
        self.report = RobustnessReport(
            duration_s=duration_s,
            telemetry_dropout_windows=self.injector.dropout_window_count,
        )
        self.tracker = OverBudgetTracker(budget_w=config.provisioned_power_w)
        self.protection = config.protection
        self.peak_server_w = self.power_model.server_power(1.0, 1.0)

        # Observability. ``recording`` guards every hook point, so with
        # the default NullRecorder no event payload or metric update
        # ever happens and the run is bit-identical to an
        # uninstrumented one. Recorders observe only: they never touch
        # simulator state, RNG streams, or the float summation order.
        recorder = simulator.recorder
        self.recorder = recorder
        recording = recorder.enabled
        self.recording = recording
        self._set_kind_gates()
        self.obs: Optional[MetricsRegistry] = None
        self.util_hist = None
        self.latency_hists: Optional[Dict[Priority, Any]] = None
        self.request_ids: Dict[int, int] = {}
        # The checkpoint pickler's dispatch table, built at the first
        # checkpoint (see :meth:`_reducers`).
        self._checkpoint_reducers: Optional[Dict[type, Callable]] = None
        # Per-tick utilization observations, batched into the
        # control.utilization histogram at finalize (appending a float
        # is far cheaper than a per-tick histogram update). Carried
        # through checkpoints so a resumed run finalizes the full list.
        self._util_samples: List[float] = []
        self._ctr_served = None
        self._ctr_dropped = None
        self._ctr_dropped_shed = None
        self._ctr_deferred = None
        self._wl_hists: Dict[str, Any] = {}
        if recording:
            obs = MetricsRegistry()
            self.obs = obs
            # Pre-register the counters cross_check compares so they
            # are present in the snapshot even when they end at zero.
            for _name in (
                "requests.served",
                "requests.dropped",
                "requests.lost_to_churn",
                "brake.engagements",
                "commands.cap_actions",
                "commands.issued",
                "commands.reissues",
                "fallback.entries",
                "telemetry.faults",
                "churn.failures",
                "churn.recoveries",
            ):
                obs.counter(_name)
            if self.protection is not None:
                for _name in (
                    "prot.trips",
                    "prot.reenergizations",
                    "shed.engagements",
                    "requests.lost_to_trips",
                    "requests.dropped_shed",
                    "requests.deferred",
                ):
                    obs.counter(_name)
            self.util_hist = obs.histogram("control.utilization")
            self.latency_hists = {
                p: obs.histogram(
                    f"latency.priority.{p.value}", LATENCY_BUCKETS
                )
                for p in Priority
            }
            self._cache_metric_handles()
            # Requests are identified in the trace by arrival order;
            # SampledRequest is frozen and id-stable for the run.
            self.request_ids = {id(r): i for i, r in enumerate(requests)}
            recorder.emit({
                "t": 0.0, "kind": "run_meta",
                "duration_s": duration_s,
                "n_servers": config.n_servers,
                "concurrency": self.servers[0].concurrency,
                "provisioned_power_w": config.provisioned_power_w,
                "idle_server_power_w":
                    self.power_model.server_power(0.0, 1.0),
                "brake_ratio": self.power_model.brake_ratio,
                "servers": {
                    s.server_id: s.priority.value for s in self.servers
                },
            })

        self.queue = EventQueue()
        self.metrics = {p: PriorityMetrics() for p in Priority}
        self.workload_metrics: Dict[str, PriorityMetrics] = {}

        # Running row power; server powers are piecewise constant, which
        # also makes the energy integral exact: accumulate power x dt at
        # every event boundary. Per-index scalar updates of the
        # ``server_power`` list keep the energy integral's float
        # summation order fixed.
        self.server_power = [s.current_power() for s in self.servers]
        self.row_power = sum(self.server_power)
        self.total_energy = 0.0
        self.last_event_time = 0.0
        # ``power_model.server_power`` memoized on (activity, effective
        # ratio), shared with every run of an equal power model. Never
        # checkpointed.
        self._power_memo = power_memo(self.power_model)

        # The power-delivery protection layer. ``prot is None`` (the
        # default) models infinite breaker capacity: no accumulator is
        # ever touched, no event is ever enqueued, and the run is
        # bit-identical to the unprotected simulator.
        self.prot: Optional[ProtectionRuntime] = None
        self.emergency = None
        self.pf_report = None
        self.shed_active = False
        self.shed_since = 0.0
        self.defer_counts: Dict[int, int] = {}
        if self.protection is not None:
            topology = PowerTopology.build(
                n_servers=config.n_servers,
                provisioned_power_w=config.provisioned_power_w,
                peak_server_w=self.peak_server_w,
                spec=self.protection,
            )
            self.prot = ProtectionRuntime(
                topology, self.protection, duration_s, self.server_power
            )
            self.emergency = self.protection.emergency
            self.pf_report = self.prot.report
            pushes = self.prot.initial_events()
            self.queue.extend_static(
                [time for time, _ in pushes], [event for _, event in pushes]
            )

        # Actuation bookkeeping. Cap commands are generation-stamped per
        # priority group and brake commands version-stamped, so verify
        # and re-issue events can tell whether they have been superseded
        # — and so a utilization spike during a pending brake release
        # can cancel the release outright.
        self.commanded = GroupCaps.uncapped()
        self.cap_generation: Dict[Priority, int] = {p: 0 for p in Priority}
        self.capping_actions = 0
        self.brake_state = "off"  # off | pending_on | on | pending_off
        self.brake_version = 0
        self.brake_engaged_at = -float("inf")
        self.brake_events = 0

        # Telemetry-health state for graceful degradation.
        self.stale_ticks = 0
        self.identical_run = 0
        self.last_observed: Optional[float] = None
        self.in_fallback = False
        self.fallback_entered_at = 0.0

        self.server_index = {
            s.server_id: i for i, s in enumerate(self.servers)
        }
        self.clock_denominator = A100_80GB.max_sm_clock_mhz

        queue = self.queue
        arriving = [r for r in requests if r.arrival_time < duration_s]
        queue.extend_static(
            [r.arrival_time for r in arriving],
            [("arrival", r) for r in arriving],
        )
        # Integer-indexed tick schedule: i * interval carries no
        # accumulated float error on long traces (unlike a +=-style or
        # np.arange cursor).
        interval = config.telemetry_interval_s
        ticks = [
            i * interval for i in range(int(math.ceil(duration_s / interval)))
        ]
        ticks = [tick for tick in ticks if tick < duration_s]
        queue.extend_static(ticks, [("tick",)] * len(ticks))
        scheduled_ticks = len(ticks)
        self.scheduled_ticks = scheduled_ticks
        # The tick count is known up front: accumulate power samples
        # into a preallocated array instead of growing a list.
        self.power_samples = np.empty(scheduled_ticks, dtype=np.float64)
        self.sample_cursor = 0
        churn_times: List[float] = []
        churn_events: List[Tuple[str, int]] = []
        for churn in self.injector.churn_events:
            churn_times.append(churn.fail_at_s)
            churn_events.append(("server_fail", churn.server_index))
            if churn.recover_at_s is not None \
                    and churn.recover_at_s < duration_s:
                churn_times.append(churn.recover_at_s)
                churn_events.append(("server_recover", churn.server_index))
        queue.extend_static(churn_times, churn_events)
        # The static schedule follows from the config, trace and
        # duration alone; checkpoints store only the cursor into it
        # (see :meth:`checkpoint`).
        queue.seal()
        self.n_static = queue.n_static

    def _cache_metric_handles(self) -> None:
        """Bind the per-request counters and histograms once.

        The request lifecycle touches these on every arrival and
        completion; resolving them through the registry (a dotted-name
        dict lookup, and an f-string for the per-workload histograms)
        tens of thousands of times per run is measurable, so the hot
        sites go through these handles instead.
        """
        obs = self.obs
        self._ctr_served = obs.counter("requests.served")
        self._ctr_dropped = obs.counter("requests.dropped")
        self._wl_hists = {}
        if self.protection is not None:
            self._ctr_dropped_shed = obs.counter("requests.dropped_shed")
            self._ctr_deferred = obs.counter("requests.deferred")

    def _workload_hist(self, name: str):
        """The (cached) latency histogram for one workload."""
        hist = self._wl_hists.get(name)
        if hist is None:
            hist = self._wl_hists[name] = self.obs.histogram(
                f"latency.workload.{name}", LATENCY_BUCKETS
            )
        return hist

    def _set_kind_gates(self) -> None:
        """Precompute per-kind recording gates for the high-rate kinds.

        The serve-plane kinds fire tens of thousands of times per run;
        when the attached recorder chain has no use for one of them
        (:meth:`~repro.obs.recorder.TraceRecorder.wants` is ``False``
        all the way down) the hook point skips payload construction
        entirely. Metric updates are unaffected — they stay gated on
        ``recording`` alone, so the observability snapshot is identical
        whatever the recorder filters.
        """
        recording = self.recording
        recorder = self.recorder
        self._rec_phase_start = recording and recorder.wants("phase_start")
        self._rec_control = recording and recorder.wants("control")
        self._rec_req_arrival = recording and recorder.wants("req_arrival")
        self._rec_serve = recording and recorder.wants("serve")

    # ------------------------------------------------------------------
    # Pickling and checkpoints. Id-keyed maps are re-keyed by request
    # index across the dump; the recorder never travels (restored cores
    # replay unrecorded until ``attach_recorder``).
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["recorder"] = None
        state["recording"] = False
        state["_rec_phase_start"] = False
        state["_rec_control"] = False
        state["_rec_req_arrival"] = False
        state["_rec_serve"] = False
        state["_ctr_served"] = None
        state["_ctr_dropped"] = None
        state["_ctr_dropped_shed"] = None
        state["_ctr_deferred"] = None
        state["_wl_hists"] = {}
        state["obs"] = None
        state["util_hist"] = None
        state["latency_hists"] = None
        state["request_ids"] = None
        state["_checkpoint_reducers"] = None
        state["_power_memo"] = None
        if self.defer_counts:
            index_of = self._request_index()
            state["defer_counts"] = {
                index_of[key]: count
                for key, count in self.defer_counts.items()
            }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._power_memo = power_memo(self.power_model)
        self.recorder = NULL_RECORDER
        self.request_ids = {}
        self._checkpoint_reducers = None
        if self.defer_counts:
            self.defer_counts = {
                id(self.requests[i]): count
                for i, count in self.defer_counts.items()
            }

    def attach_recorder(
        self, recorder: TraceRecorder, registry: MetricsRegistry
    ) -> None:
        """Re-arm recording on a restored checkpoint core.

        Checkpoint blobs deliberately exclude the recorder and the
        metrics registry (see ``__getstate__``), so restored cores
        normally replay unrecorded. An incremental resume that wants
        the full trace replays the prefix events from the family tape
        into ``recorder`` and then calls this with the registry pickled
        at the checkpoint: counters and histograms continue from their
        prefix values, and the suffix emits exactly the events a cold
        recorded run would.
        """
        self.recorder = recorder
        self.recording = recorder.enabled
        self._set_kind_gates()
        self.obs = registry
        self.util_hist = registry.histogram("control.utilization")
        self.latency_hists = {
            p: registry.histogram(
                f"latency.priority.{p.value}", LATENCY_BUCKETS
            )
            for p in Priority
        }
        self._cache_metric_handles()
        self._request_index()

    def _request_index(self) -> Dict[int, int]:
        """``id(request) -> arrival index``, built once per core.

        Recording identifies requests by it; checkpoints write requests
        as it.
        """
        if not self.request_ids:
            self.request_ids = {
                id(r): i for i, r in enumerate(self.requests)
            }
        return self.request_ids

    def _reducers(self) -> Dict[type, Callable]:
        """The checkpoint pickler's dispatch table (built once per core).

        A request is written as its arrival index and a server as its
        row index plus :meth:`~repro.cluster.server_sim.ServerSim
        .run_state`; the unpickler resolves both against the template
        core. A numpy ``Generator`` is written as its bit generator's
        state (a fifth of the cost of its own pickling). Everything
        else pickles as usual, with no per-object Python call.
        """
        table = self._checkpoint_reducers
        if table is None:
            index_of = self._request_index()
            server_index = self.server_index

            def reduce_request(request: SampledRequest) -> Tuple:
                return _request_at, (index_of[id(request)],)

            def reduce_server(server: ServerSim) -> Tuple:
                return _server_at, (
                    server_index[server.server_id], server.run_state()
                )

            table = dict(copyreg.dispatch_table)
            table[SampledRequest] = reduce_request
            table[ServerSim] = reduce_server
            table[np.random.Generator] = _reduce_generator
            self._checkpoint_reducers = table
        return table

    def series(self) -> RunSeries:
        """Copies of this run's append-only series as they are now."""
        return RunSeries(
            latencies={
                p: array("d", tier.latencies)
                for p, tier in self.metrics.items()
            },
            workload_latencies={
                name: array("d", tier.latencies)
                for name, tier in self.workload_metrics.items()
            },
            power_samples=self.power_samples[:self.sample_cursor].copy(),
            util_samples=array("d", self._util_samples),
        )

    def checkpoint(self) -> bytes:
        """Encode this mid-flight run as a compact checkpoint blob.

        The blob holds only what the run has changed, and its size does
        not grow with simulated time: the shared immutables
        (``_TEMPLATE_STATE``, each server's model and tables) are left
        out, requests are written as their arrival index, the static
        event schedule as the cursor into it, and the append-only
        series (:class:`RunSeries`) as their lengths. Like a plain
        pickle of the core, it excludes the recorder and the metrics
        registry. :meth:`restore` rebuilds the core.
        """
        state = self.__getstate__()
        for name in _TEMPLATE_STATE:
            del state[name]
        state["queue"] = self.queue.snapshot()
        state["power_samples"] = None  # ``sample_cursor`` long
        state["metrics"] = _tier_lengths(self.metrics)
        state["workload_metrics"] = _tier_lengths(self.workload_metrics)
        state["_util_samples"] = len(self._util_samples)
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = self._reducers()
        pickler.dump(state)
        return buffer.getvalue()

    @classmethod
    def restore(
        cls, blob: bytes, template: "SimulationCore", series: RunSeries
    ) -> "SimulationCore":
        """Rebuild the core a :meth:`checkpoint` blob encodes.

        ``template`` is a freshly started core of the same config,
        trace and duration, ``ClusterSimulator(config, policy).start(
        requests, duration_s)``. It supplies the shared immutables and
        the static event schedule and is left unmodified; the restored
        core runs under the template's policy and replays unrecorded.
        ``series`` holds the append-only series the blob records by
        length: :meth:`series` of the checkpointed run taken at or after
        the checkpoint, or of a run that matches it up to there.

        Raises:
            SimulationError: If the template has started running, its
                static schedule differs from the checkpointed run's, or
                ``series`` is shorter than the checkpointed run's.
        """
        state = _CheckpointUnpickler(io.BytesIO(blob), template).load()
        n_static = template.n_static
        if len(template.queue) != n_static or n_static != state["n_static"]:
            raise SimulationError(
                "restore needs a freshly started template of the "
                "checkpointed run's config, trace and duration"
            )
        for name in _TEMPLATE_STATE:
            state[name] = getattr(template, name)
        state["queue"] = EventQueue.resume(template.queue, state["queue"])
        cursor = state["sample_cursor"]
        samples = np.empty(state["scheduled_ticks"], dtype=np.float64)
        samples[:cursor] = _prefix(series.power_samples, cursor)
        state["power_samples"] = samples
        state["metrics"] = _sliced_tiers(state["metrics"], series.latencies)
        state["workload_metrics"] = _sliced_tiers(
            state["workload_metrics"], series.workload_latencies
        )
        state["_util_samples"] = _prefix(
            series.util_samples, state["_util_samples"]
        ).tolist()
        core = cls.__new__(cls)
        core.__setstate__(state)
        return core

    # ------------------------------------------------------------------
    # Power refresh kernels
    # ------------------------------------------------------------------
    def _power(self, server: ServerSim) -> float:
        """A server's power now (memoized power-model evaluation)."""
        if server.failed:
            return 0.0
        return self._power_memo[
            server.current_activity(), server.effective_ratio
        ]

    def _refresh_power(self, now: float, index: int) -> None:
        """Re-evaluate one server after its occupancy or state changed."""
        new_power = self._power(self.servers[index])
        self.row_power += new_power - self.server_power[index]
        self.server_power[index] = new_power
        self.balancer.sync(index)
        if self.prot is not None:
            for push in self.prot.update_server_power(now, index, new_power):
                self.queue.push(*push)

    def _refresh_group(self, now: float, indices: Sequence[int]) -> None:
        """Refresh many servers at once (cap/brake landings).

        Occupancy is unchanged, so the routing index needs no update.
        Row power updates in per-index order, and every server's power
        is settled before the protection runtime sees any of them.
        """
        servers = self.servers
        server_power = self.server_power
        for index in indices:
            power = self._power(servers[index])
            self.row_power += power - server_power[index]
            server_power[index] = power
        if self.prot is not None:
            for index in indices:
                for push in self.prot.update_server_power(
                    now, index, server_power[index]
                ):
                    self.queue.push(*push)

    def _row_power_at(self, _now: float) -> float:
        """The row power as a telemetry signal (it is current already)."""
        return self.row_power

    def _workload_tier(self, name: str) -> PriorityMetrics:
        tier = self.workload_metrics.get(name)
        if tier is None:
            tier = PriorityMetrics()
            self.workload_metrics[name] = tier
        return tier

    # ------------------------------------------------------------------
    # Request lifecycle helpers
    # ------------------------------------------------------------------
    def _schedule_slot(self, index: int, slot: int) -> None:
        active = self.servers[index].slots.get(slot)
        if active is None:
            return
        self.queue.push(
            active.phase_end, ("phase", index, slot, active.version)
        )

    def _start_on(self, now: float, index: int, request: SampledRequest
                  ) -> None:
        slot = self.servers[index].start_request(now, request)
        self._refresh_power(now, index)
        self._schedule_slot(index, slot)
        if self._rec_phase_start:
            self._emit_phase_start(now, index, slot)

    # ------------------------------------------------------------------
    # Span lifecycle emission (observe-only; every call is guarded by
    # ``recording``, so unrecorded runs never reach these).
    # ------------------------------------------------------------------
    def _emit_phase_start(self, now: float, index: int, slot: int) -> None:
        server = self.servers[index]
        active = server.slots.get(slot)
        if active is None:
            return
        payload = server.slot_snapshot(slot)
        payload["t"] = now
        payload["kind"] = "phase_start"
        payload["request_id"] = self.request_ids[id(active.request)]
        self.recorder.emit(payload)

    def _emit_rescales(
        self,
        now: float,
        index: int,
        rescheduled: Dict[int, float],
        old_ratio: float,
        cause: str,
        stamp: Dict[str, Any],
    ) -> None:
        server = self.servers[index]
        new_ratio = server.effective_ratio
        for slot, new_end in rescheduled.items():
            active = server.slots[slot]
            event = {
                "t": now, "kind": "phase_rescale",
                "request_id": self.request_ids[id(active.request)],
                "server": server.server_id, "slot": slot,
                "phase": active.segments[active.phase_index].phase,
                "old_ratio": old_ratio, "new_ratio": new_ratio,
                "new_end": new_end, "cause": cause,
            }
            event.update(stamp)
            self.recorder.emit(event)

    # ------------------------------------------------------------------
    # The reliable-command layer: every issue schedules a landing
    # (unless the interface silently drops it) plus a verify event;
    # failed verifies re-issue with capped exponential backoff.
    # ------------------------------------------------------------------
    def _issue_cap(
        self,
        now: float,
        priority: Priority,
        clock_mhz: Optional[float],
        generation: int,
        attempts: int,
    ) -> None:
        targets = self._ids_by_priority[priority]
        if clock_mhz is None:
            action = ControlAction.frequency_unlock(targets)
        else:
            action = ControlAction.frequency_lock(targets, clock_mhz)
        record = self.actuator.dispatch(now, action)
        self.report.commands_issued += 1
        extra = self.injector.actuation_extra_delay()
        if self.recording:
            self.obs.counter("commands.issued").inc()
            self.recorder.emit({
                "t": now, "kind": "cap_issue",
                "priority": priority.value, "clock_mhz": clock_mhz,
                "generation": generation, "attempts": attempts,
                "silent": record.failed_silently,
            })
        if record.failed_silently:
            self.report.silent_actuation_failures += 1
        else:
            self.queue.push(
                record.effective_at + extra,
                ("cap", priority, clock_mhz, generation),
            )
        if self.verify_commands:
            self.queue.push(
                now + self.actuator.latency_for(action.kind)
                + self.reliability.verify_margin_s,
                ("verify_cap", priority, clock_mhz, generation, attempts),
            )

    def _issue_brake(
        self, now: float, want_on: bool, version: int, attempts: int
    ) -> None:
        kind = ActionKind.POWER_BRAKE if want_on \
            else ActionKind.BRAKE_RELEASE
        record = self.actuator.dispatch(
            now, ControlAction(kind, self._all_ids)
        )
        self.report.commands_issued += 1
        extra = self.injector.actuation_extra_delay()
        if self.recording:
            self.obs.counter("commands.issued").inc()
            self.recorder.emit({
                "t": now, "kind": "brake_issue",
                "want_on": want_on, "version": version,
                "attempts": attempts,
                "silent": record.failed_silently,
            })
        if record.failed_silently:
            self.report.silent_actuation_failures += 1
        else:
            self.queue.push(
                record.effective_at + extra,
                ("brake_on" if want_on else "brake_off", version),
            )
        if self.verify_commands:
            self.queue.push(
                now + self.actuator.latency_for(kind)
                + self.reliability.verify_margin_s,
                ("verify_brake", want_on, version, attempts),
            )

    def _engage_brake(self, now: float, source: str = "policy") -> None:
        self.brake_state = "pending_on"
        self.brake_version += 1
        if self.recording:
            self.obs.counter("brake.engagements").inc()
            self.recorder.emit({
                "t": now, "kind": "brake_request",
                "source": source, "version": self.brake_version,
            })
        self._issue_brake(now, True, self.brake_version, 0)

    def _command_caps(self, now: float, desired: GroupCaps) -> None:
        commanded = self.commanded
        if desired.low_clock_mhz != commanded.low_clock_mhz:
            self.cap_generation[Priority.LOW] += 1
            self._issue_cap(
                now, Priority.LOW, desired.low_clock_mhz,
                self.cap_generation[Priority.LOW], 0,
            )
            self.capping_actions += 1
            if self.recording:
                self.obs.counter("commands.cap_actions").inc()
        if desired.high_clock_mhz != commanded.high_clock_mhz:
            self.cap_generation[Priority.HIGH] += 1
            self._issue_cap(
                now, Priority.HIGH, desired.high_clock_mhz,
                self.cap_generation[Priority.HIGH], 0,
            )
            self.capping_actions += 1
            if self.recording:
                self.obs.counter("commands.cap_actions").inc()
        self.commanded = desired

    # ------------------------------------------------------------------
    # Emergency response to power-delivery incidents (only reachable
    # when a ProtectionSpec is attached): shed low-priority load and
    # clamp survivors to safe caps while any device is tripped or
    # carrying a trip-risk flag.
    # ------------------------------------------------------------------
    def _emit_capacity_status(self, now: float) -> None:
        offline_w, offline_frac = self.prot.offline_stats(self.peak_server_w)
        self.recorder.emit({
            "t": now, "kind": "capacity_status",
            "offline_capacity_w": offline_w,
            "offline_fraction": offline_frac,
        })

    def _update_shed(self, now: float) -> None:
        emergency = self.emergency
        if emergency is None or not emergency.enabled:
            return
        want = self.prot.in_emergency
        if want and not self.shed_active:
            self.shed_active = True
            self.shed_since = now
            self.pf_report.shed_engagements += 1
            if self.recording:
                self.obs.counter("shed.engagements").inc()
                self.recorder.emit({"t": now, "kind": "shed_engage"})
            self._command_caps(now, emergency.clamp(self.commanded))
        elif not want and self.shed_active:
            self.shed_active = False
            self.pf_report.time_shedding_s += max(
                0.0,
                min(now, self.duration_s) - min(self.shed_since,
                                                self.duration_s),
            )
            if self.recording:
                self.recorder.emit({"t": now, "kind": "shed_release"})

    # ------------------------------------------------------------------
    # The control plane: policy evaluation on each delivered telemetry
    # observation.
    # ------------------------------------------------------------------
    def _control_step(self, now: float, observed_power: float) -> None:
        utilization = observed_power / self.config.provisioned_power_w
        if self.recording:
            self._util_samples.append(utilization)
            if self._rec_control:
                self.recorder.emit({
                    "t": now, "kind": "control",
                    "utilization": utilization,
                    "observed_power_w": observed_power,
                    "brake_state": self.brake_state,
                })
        # --- Brake safety logic (all policies carry the brake).
        if self.brake_state in ("off", "pending_off") \
                and self.policy.wants_brake(utilization):
            if self.brake_state == "pending_off":
                # A spike while the release is in flight: cancel the
                # pending release (the stamped brake_off event is now
                # stale) — the brake never disengages, so this is not a
                # new engagement.
                self.brake_version += 1
                self.brake_state = "on"
                if self.recording:
                    self.recorder.emit({
                        "t": now, "kind": "brake_cancel_release",
                        "version": self.brake_version,
                    })
            else:
                self.brake_events += 1
                self._engage_brake(now)
        elif (
            self.brake_state == "on"
            and now - self.brake_engaged_at >= self.config.brake_hold_s
            and self.policy.brake_release_ok(utilization)
        ):
            self.brake_state = "pending_off"
            self.brake_version += 1
            if self.recording:
                self.recorder.emit({
                    "t": now, "kind": "brake_release_request",
                    "version": self.brake_version,
                })
            self._issue_brake(now, False, self.brake_version, 0)
        # --- Frequency-capping policy.
        desired = self.policy.desired_caps(utilization, now)
        if self.prot is not None and self.shed_active:
            # Safe-mode caps outrank the policy while shedding.
            desired = self.emergency.clamp(desired)
        self._command_caps(now, desired)

    def _deliver_observation(self, now: float, value: float) -> None:
        reliability = self.reliability
        if reliability.detect_frozen and self.last_observed is not None \
                and value == self.last_observed:
            self.identical_run += 1
        else:
            self.identical_run = 0
        self.last_observed = value
        if reliability.detect_frozen \
                and self.identical_run >= reliability.frozen_after_ticks:
            # A sensor repeating itself verbatim is as good as dark.
            self.stale_ticks += 1
            return
        self.stale_ticks = 0
        if self.in_fallback:
            self.in_fallback = False
            if self.recording:
                self.recorder.emit({"t": now, "kind": "fallback_exit"})
        self._control_step(now, value)

    def _group_cap_applied(
        self, priority: Priority, clock_mhz: Optional[float]
    ) -> bool:
        ratio = 1.0 if clock_mhz is None \
            else clock_mhz / self.clock_denominator
        return all(
            math.isclose(self.servers[i].clock_ratio, ratio)
            for i in self._index_by_priority[priority]
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run_all(
        self,
        checkpoint_epoch_s: Optional[float] = None,
        checkpoint_cb: Optional[
            Callable[[float, "SimulationCore"], None]
        ] = None,
    ) -> None:
        """Process every event (arrivals, ticks, landings, the drain).

        With ``checkpoint_epoch_s``, ``checkpoint_cb(T, self)`` fires
        whenever the head of the queue first reaches an epoch boundary
        ``T = k * checkpoint_epoch_s`` — i.e. with every event strictly
        before ``T`` processed and none at or after it, which is exactly
        the state an incremental resume at ``T`` needs.
        """
        # The queue's merge of static cursor and dynamic heap, inlined:
        # this loop runs once per event. Energy and breaker exposure
        # integrate over [0, duration_s] only: in-flight requests still
        # drain after duration_s (and their latencies count), but that
        # drain is outside the reported window, so the integral clamps.
        # Cursor and energy live in locals and are written back before
        # every checkpoint and on exit.
        queue = self.queue
        static, heap = queue._static, queue._heap
        n_static = len(static)
        cursor = queue._cursor
        handlers = _Handlers(
            (kind, getattr(self, f"_on_{kind}")) for kind in EVENT_KINDS
        )
        timers = self.timers
        account = self.tracker.account
        duration_s = self.duration_s
        total_energy = self.total_energy
        last = self.last_event_time
        next_cp = math.inf if checkpoint_epoch_s is None \
            else checkpoint_epoch_s
        try:
            while True:
                if cursor < n_static:
                    entry = static[cursor]
                    if heap and heap[0] < entry:
                        entry = None
                elif heap:
                    entry = None
                else:
                    break
                now = (heap[0] if entry is None else entry)[0]
                if now >= next_cp:
                    queue._cursor = cursor
                    self.total_energy = total_energy
                    self.last_event_time = last
                    while now >= next_cp:
                        checkpoint_cb(next_cp, self)
                        next_cp += checkpoint_epoch_s
                        if next_cp > duration_s:
                            next_cp = math.inf
                if entry is None:
                    entry = heappop(heap)
                else:
                    cursor += 1
                queue._last_popped = now
                if now <= duration_s:
                    dt = now - last
                elif last < duration_s:
                    dt = duration_s - last
                else:
                    dt = 0.0
                if dt > 0.0:
                    row_power = self.row_power
                    total_energy += row_power * dt
                    account(row_power, dt)
                last = now
                event = entry[2]
                if timers is None:
                    handlers[event[0]](now, event)
                else:
                    t0 = perf_counter()
                    handlers[event[0]](now, event)
                    timers.add(event[0], perf_counter() - t0)
        finally:
            queue._cursor = cursor
            self.total_energy = total_energy
            self.last_event_time = last

    def _on_arrival(self, now: float, event: Tuple) -> None:
        recording = self.recording
        metrics = self.metrics
        request: SampledRequest = event[1]
        if self.prot is not None and self.shed_active:
            prior = self.defer_counts.get(id(request), 0)
            action = self.emergency.shed_action(
                request.priority.value, request.workload.name, prior,
            )
            if action == "defer":
                self.defer_counts[id(request)] = prior + 1
                self.queue.push(
                    now + self.emergency.defer_s, ("arrival", request)
                )
                self.pf_report.requests_deferred += 1
                if recording:
                    self._ctr_deferred.inc()
                    self.recorder.emit({
                        "t": now, "kind": "shed_defer",
                        "request_id": self.request_ids[id(request)],
                        "priority": request.priority.value,
                        "workload": request.workload.name,
                        "delay_s": self.emergency.defer_s,
                        "deferrals": prior + 1,
                    })
                return
            if action == "drop":
                metrics[request.priority].dropped += 1
                self._workload_tier(request.workload.name).dropped += 1
                self.pf_report.requests_dropped_shed += 1
                if recording:
                    self._ctr_dropped.inc()
                    self._ctr_dropped_shed.inc()
                    if self._rec_req_arrival:
                        self.recorder.emit({
                            "t": now, "kind": "req_arrival",
                            "request_id":
                                self.request_ids[id(request)],
                            "priority": request.priority.value,
                            "workload": request.workload.name,
                            "input_tokens": request.input_tokens,
                            "output_tokens": request.output_tokens,
                            "server": None, "queued": False,
                        })
                    self.recorder.emit({
                        "t": now, "kind": "drop",
                        "request_id": self.request_ids[id(request)],
                        "priority": request.priority.value,
                        "workload": request.workload.name,
                        "reason": "shed",
                    })
                return
        server = self.balancer.route(request.priority)
        if server is None:
            metrics[request.priority].dropped += 1
            self._workload_tier(request.workload.name).dropped += 1
            if recording:
                self._ctr_dropped.inc()
                if self._rec_req_arrival:
                    self.recorder.emit({
                        "t": now, "kind": "req_arrival",
                        "request_id": self.request_ids[id(request)],
                        "priority": request.priority.value,
                        "workload": request.workload.name,
                        "input_tokens": request.input_tokens,
                        "output_tokens": request.output_tokens,
                        "server": None, "queued": False,
                    })
                self.recorder.emit({
                    "t": now, "kind": "drop",
                    "request_id": self.request_ids[id(request)],
                    "priority": request.priority.value,
                    "workload": request.workload.name,
                    "reason": "saturated",
                })
            return
        index = self.server_index[server.server_id]
        if self._rec_req_arrival:
            self.recorder.emit({
                "t": now, "kind": "req_arrival",
                "request_id": self.request_ids[id(request)],
                "priority": request.priority.value,
                "workload": request.workload.name,
                "input_tokens": request.input_tokens,
                "output_tokens": request.output_tokens,
                "server": server.server_id,
                "queued": not server.has_free_slot,
            })
        if server.has_free_slot:
            self._start_on(now, index, request)
        else:
            server.buffered = request
            self.balancer.sync(index)

    def _on_phase(self, now: float, event: Tuple) -> None:
        recording = self.recording
        metrics = self.metrics
        index, slot, version = event[1], event[2], event[3]
        server = self.servers[index]
        active = server.slots.get(slot)
        if active is None or active.version != version:
            return  # superseded by a clock change
        finished = active.request
        next_end = server.advance_phase(now, slot)
        if next_end is not None:
            self._refresh_power(now, index)
            self._schedule_slot(index, slot)
            if self._rec_phase_start:
                self._emit_phase_start(now, index, slot)
            return
        # Request complete; the slot is free again.
        tier = metrics[finished.priority]
        tier.served += 1
        tier.latencies.append(now - finished.arrival_time)
        by_workload = self._workload_tier(finished.workload.name)
        by_workload.served += 1
        by_workload.latencies.append(now - finished.arrival_time)
        if recording:
            # Latency histograms batch-populate at finalize from
            # the tier latency lists appended above.
            self._ctr_served.inc()
            if self._rec_serve:
                self.recorder.emit({
                    "t": now, "kind": "serve",
                    "request_id": self.request_ids[id(finished)],
                    "priority": finished.priority.value,
                    "workload": finished.workload.name,
                    "latency_s": now - finished.arrival_time,
                    "server": server.server_id,
                })
        queued = server.take_buffered()
        if queued is not None:
            self._start_on(now, index, queued)
        else:
            self._refresh_power(now, index)

    def _on_tick(self, now: float, event: Tuple) -> None:
        recording = self.recording
        self.power_samples[self.sample_cursor] = self.row_power
        self.sample_cursor += 1
        sample = self.interface.read(now, self._row_power_at)
        fate = self.injector.telemetry_fate(now)
        if recording and fate is not TelemetryFate.OK:
            self.obs.counter("telemetry.faults").inc()
            self.recorder.emit({
                "t": now, "kind": "telemetry_fault",
                "fate": fate.value,
            })
        if fate is TelemetryFate.DROPPED:
            self.stale_ticks += 1
        elif fate is TelemetryFate.FROZEN and self.last_observed is None:
            self.stale_ticks += 1  # nothing to repeat yet: a dropout
        else:
            if fate is TelemetryFate.FROZEN:
                value = self.last_observed
            else:
                value = self.injector.perturb_sample(sample.value)
            if sample.time <= now:
                self._deliver_observation(now, value)
            else:
                self.queue.push(sample.time, ("obs", value))
        # --- Graceful degradation on persistent staleness.
        if self.stale_ticks > self.report.max_missed_ticks:
            self.report.max_missed_ticks = self.stale_ticks
        if self.stale_ticks >= self.reliability.fallback_after_ticks:
            if not self.in_fallback:
                self.in_fallback = True
                self.fallback_entered_at = now
                self.report.fallback_entries += 1
                if recording:
                    self.obs.counter("fallback.entries").inc()
                    self.recorder.emit({
                        "t": now, "kind": "fallback_enter",
                        "stale_ticks": self.stale_ticks,
                    })
                self._command_caps(now, GroupCaps(
                    low_clock_mhz=self.reliability.safe_low_clock_mhz,
                    high_clock_mhz=self.reliability.safe_high_clock_mhz,
                ))
            elif (
                self.brake_state == "off"
                and now - self.fallback_entered_at
                >= self.reliability.brake_after_stale_s
            ):
                self.brake_events += 1
                self.report.fallback_brakes += 1
                self._engage_brake(now, source="fallback")

    def _on_obs(self, now: float, event: Tuple) -> None:
        self._deliver_observation(now, event[1])

    def _on_cap(self, now: float, event: Tuple) -> None:
        recording = self.recording
        priority, clock_mhz = event[1], event[2]
        ratio = 1.0
        if clock_mhz is not None:
            ratio = clock_mhz / self.clock_denominator
        indices = self._index_by_priority[priority]
        old_ratios: Optional[List[float]] = None
        if recording:
            self.recorder.emit({
                "t": now, "kind": "cap_land",
                "priority": priority.value, "clock_mhz": clock_mhz,
                "generation": event[3], "ratio": ratio,
            })
            old_ratios = [
                self.servers[i].effective_ratio for i in indices
            ]
        group_rescheduled = [
            self.servers[index].apply_clock(now, ratio)
            for index in indices
        ]
        self._refresh_group(now, indices)
        for pos, (index, rescheduled) in enumerate(
            zip(indices, group_rescheduled)
        ):
            for slot in rescheduled:
                self._schedule_slot(index, slot)
            if recording and rescheduled:
                self._emit_rescales(
                    now, index, rescheduled, old_ratios[pos],
                    cause="cap", stamp={
                        "priority": priority.value,
                        "generation": event[3],
                    },
                )

    def _on_verify_cap(self, now: float, event: Tuple) -> None:
        recording = self.recording
        priority, clock_mhz, generation, attempts = event[1:]
        if generation != self.cap_generation[priority]:
            return  # superseded by a newer command
        if self._group_cap_applied(priority, clock_mhz):
            self.report.commands_verified += 1
            if attempts > 0:
                self.report.commands_recovered += 1
            if recording:
                self.recorder.emit({
                    "t": now, "kind": "cap_verify",
                    "priority": priority.value,
                    "generation": generation,
                    "attempts": attempts,
                    "ok": True, "abandoned": False,
                })
            return
        self.report.failures_detected += 1
        abandoned = attempts >= self.reliability.max_retries
        if recording:
            self.recorder.emit({
                "t": now, "kind": "cap_verify",
                "priority": priority.value,
                "generation": generation, "attempts": attempts,
                "ok": False, "abandoned": abandoned,
            })
        if abandoned:
            self.report.commands_unrecovered += 1
            return
        self.queue.push(
            now + self.reliability.backoff_s(attempts + 1),
            ("reissue_cap", priority, clock_mhz, generation,
             attempts + 1),
        )

    def _on_reissue_cap(self, now: float, event: Tuple) -> None:
        recording = self.recording
        priority, clock_mhz, generation, attempts = event[1:]
        if generation != self.cap_generation[priority]:
            return
        self.report.reissues += 1
        if recording:
            self.obs.counter("commands.reissues").inc()
            self.recorder.emit({
                "t": now, "kind": "cap_reissue",
                "priority": priority.value, "clock_mhz": clock_mhz,
                "generation": generation, "attempts": attempts,
            })
        self._issue_cap(now, priority, clock_mhz, generation, attempts)

    def _on_brake_on(self, now: float, event: Tuple) -> None:
        if self.brake_state != "pending_on" \
                or event[1] != self.brake_version:
            return
        self.brake_state = "on"
        self.brake_engaged_at = now
        self._apply_brake_landing(now, True, event[1])

    def _on_brake_off(self, now: float, event: Tuple) -> None:
        if self.brake_state != "pending_off" \
                or event[1] != self.brake_version:
            return
        self.brake_state = "off"
        self._apply_brake_landing(now, False, event[1])

    def _on_verify_brake(self, now: float, event: Tuple) -> None:
        recording = self.recording
        want_on, version, attempts = event[1], event[2], event[3]
        if version != self.brake_version:
            return  # superseded (including cancelled releases)
        if all(s.braked == want_on for s in self.servers):
            self.report.commands_verified += 1
            if attempts > 0:
                self.report.commands_recovered += 1
            if recording:
                self.recorder.emit({
                    "t": now, "kind": "brake_verify",
                    "want_on": want_on, "version": version,
                    "attempts": attempts,
                    "ok": True, "abandoned": False,
                })
            return
        self.report.failures_detected += 1
        abandoned = attempts >= self.reliability.max_retries
        if recording:
            self.recorder.emit({
                "t": now, "kind": "brake_verify",
                "want_on": want_on, "version": version,
                "attempts": attempts,
                "ok": False, "abandoned": abandoned,
            })
        if abandoned:
            self.report.commands_unrecovered += 1
            return
        self.queue.push(
            now + self.reliability.backoff_s(attempts + 1),
            ("reissue_brake", want_on, version, attempts + 1),
        )

    def _on_reissue_brake(self, now: float, event: Tuple) -> None:
        recording = self.recording
        want_on, version, attempts = event[1], event[2], event[3]
        if version != self.brake_version:
            return
        self.report.reissues += 1
        if recording:
            self.obs.counter("commands.reissues").inc()
            self.recorder.emit({
                "t": now, "kind": "brake_reissue",
                "want_on": want_on, "version": version,
                "attempts": attempts,
            })
        self._issue_brake(now, want_on, version, attempts)

    def _on_server_fail(self, now: float, event: Tuple) -> None:
        recording = self.recording
        metrics = self.metrics
        index = event[1]
        server = self.servers[index]
        if server.failed:
            return
        dropped_requests = server.fail(now)
        for request in dropped_requests:
            metrics[request.priority].dropped += 1
            self._workload_tier(request.workload.name).dropped += 1
            self.report.requests_lost_to_churn += 1
            if recording:
                self._ctr_dropped.inc()
                self.obs.counter("requests.lost_to_churn").inc()
                self.recorder.emit({
                    "t": now, "kind": "drop",
                    "request_id": self.request_ids[id(request)],
                    "priority": request.priority.value,
                    "workload": request.workload.name,
                    "reason": "churn",
                    "server": server.server_id,
                })
        self.report.server_failures += 1
        if recording:
            self.obs.counter("churn.failures").inc()
            self.recorder.emit({
                "t": now, "kind": "server_fail",
                "server": server.server_id, "index": index,
                "dropped": len(dropped_requests),
            })
        self._refresh_power(now, index)

    def _on_server_recover(self, now: float, event: Tuple) -> None:
        recording = self.recording
        index = event[1]
        server = self.servers[index]
        if not server.failed:
            return
        if self.prot is not None and self.prot.is_deenergized(index):
            # The churn recovery raced a breaker trip: the server
            # has no feed until its protection device re-energizes,
            # which subsumes this recovery.
            return
        server.recover(now)
        self.report.server_recoveries += 1
        if recording:
            self.obs.counter("churn.recoveries").inc()
            self.recorder.emit({
                "t": now, "kind": "server_recover",
                "server": server.server_id, "index": index,
            })
        self._refresh_power(now, index)

    def _on_prot(self, now: float, event: Tuple) -> None:
        recording = self.recording
        metrics = self.metrics
        if now > self.duration_s:
            # Breaker exposure is modeled over the reported window
            # only. Dropping late projections also guarantees
            # termination: a breaker overloaded even at idle would
            # otherwise trip/restore forever and the post-horizon
            # drain would never empty the queue.
            return
        device_id, target, epoch = event[1], event[2], event[3]
        outcome = self.prot.on_projection(now, device_id, target, epoch)
        if outcome is None:
            return  # superseded by a later rate change
        fired, info, pushes = outcome
        for push in pushes:
            self.queue.push(*push)
        if fired in ("risk", "clear"):
            if recording:
                self.recorder.emit({
                    "t": now, "kind": "trip_risk",
                    "device": device_id,
                    "device_level": info["device_level"],
                    "accumulator": info["accumulator"],
                    "overload": info["overload"],
                    "at_risk": 1.0 if fired == "risk" else 0.0,
                })
            self._update_shed(now)
            return
        # The breaker opens: fail the subtree mid-flight. The load
        # balancer redistributes subsequent arrivals onto
        # survivors, which can push a sibling domain over its own
        # limit — the cascade needs no special code.
        covered = self.prot.begin_trip(device_id, now)
        dropped_count = 0
        for index in covered:
            server = self.servers[index]
            if server.failed:
                self._refresh_power(now, index)
                continue
            for request in server.fail(now):
                metrics[request.priority].dropped += 1
                self._workload_tier(request.workload.name).dropped += 1
                self.pf_report.requests_lost_to_trips += 1
                dropped_count += 1
                if recording:
                    self._ctr_dropped.inc()
                    self.obs.counter("requests.lost_to_trips").inc()
                    self.recorder.emit({
                        "t": now, "kind": "drop",
                        "request_id": self.request_ids[id(request)],
                        "priority": request.priority.value,
                        "workload": request.workload.name,
                        "reason": "trip",
                        "server": server.server_id,
                        "device": device_id,
                    })
            self._refresh_power(now, index)
        record, restore_push = self.prot.commit_trip(
            device_id, now, dropped_count
        )
        self.queue.push(*restore_push)
        if recording:
            self.obs.counter("prot.trips").inc()
            offline_w, offline_frac = self.prot.offline_stats(
                self.peak_server_w
            )
            payload = dict(record)
            payload["kind"] = "trip"
            payload["offline_capacity_w"] = offline_w
            payload["offline_fraction"] = offline_frac
            self.recorder.emit(payload)
            self._emit_capacity_status(now)
        self._update_shed(now)

    def _on_prot_restore(self, now: float, event: Tuple) -> None:
        recording = self.recording
        if now > self.duration_s:
            # Servers still dark at the horizon stay dark; the
            # report clamps their offline time to the window.
            return
        device_id, step, version = event[1], event[2], event[3]
        outcome = self.prot.restore_step(device_id, step, version, now)
        if outcome is None:
            return  # superseded by a newer trip
        batch, next_push, done = outcome
        recovered = []
        for index in batch:
            server = self.servers[index]
            if server.failed:
                server.recover(now)
                self._refresh_power(now, index)
                recovered.append(server.server_id)
        if recording:
            self.recorder.emit({
                "t": now, "kind": "reenergize",
                "device": device_id, "step": step,
                "servers": recovered,
            })
        if next_push is not None:
            self.queue.push(*next_push)
        if done:
            self.pf_report.reenergizations += 1
            if recording:
                self.obs.counter("prot.reenergizations").inc()
                self.recorder.emit({
                    "t": now, "kind": "reenergize_done",
                    "device": device_id,
                })
                self._emit_capacity_status(now)
            self._update_shed(now)

    def _apply_brake_landing(
        self, now: float, engaged: bool, version: int
    ) -> None:
        recording = self.recording
        all_indices = range(len(self.servers))
        old_ratios = None
        if recording:
            self.recorder.emit({
                "t": now, "kind": "brake_land",
                "on": engaged, "version": version,
            })
            old_ratios = [
                self.servers[i].effective_ratio for i in all_indices
            ]
        group_rescheduled = [
            self.servers[index].apply_brake(now, engaged)
            for index in all_indices
        ]
        self._refresh_group(now, all_indices)
        for index, rescheduled in zip(all_indices, group_rescheduled):
            for slot in rescheduled:
                self._schedule_slot(index, slot)
            if recording and rescheduled:
                self._emit_rescales(
                    now, index, rescheduled, old_ratios[index],
                    cause="brake", stamp={
                        "version": version, "on": engaged,
                    },
                )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> SimulationResult:
        """Check conservation, settle reports, and build the result."""
        config = self.config
        duration_s = self.duration_s
        # Conservation invariant: every scheduled request is accounted
        # exactly once, per priority AND per workload tier — whether it
        # was served, shed, or lost to churn or a breaker trip taking
        # its server offline mid-request.
        offered_by_priority = {p: 0 for p in Priority}
        offered_by_workload: Dict[str, int] = {}
        for request in self.requests:
            if request.arrival_time < duration_s:
                offered_by_priority[request.priority] += 1
                offered_by_workload[request.workload.name] = \
                    offered_by_workload.get(request.workload.name, 0) + 1
        for priority, tier in self.metrics.items():
            if tier.served + tier.dropped != offered_by_priority[priority]:
                raise SimulationError(
                    "request accounting violated for priority "
                    f"{priority.value}: served {tier.served} + dropped "
                    f"{tier.dropped} != offered "
                    f"{offered_by_priority[priority]}"
                )
        for name, offered in offered_by_workload.items():
            tier = self.workload_metrics.get(name)
            accounted = 0 if tier is None else tier.served + tier.dropped
            if accounted != offered:
                raise SimulationError(
                    f"request accounting violated for workload {name}: "
                    f"served+dropped {accounted} != offered {offered}"
                )

        powerfail = None
        if self.prot is not None:
            if self.shed_active:
                self.pf_report.time_shedding_s += max(
                    0.0, duration_s - min(self.shed_since, duration_s)
                )
            powerfail = self.prot.finalize(self.last_event_time)

        report = self.report
        report.telemetry_dropped_ticks = self.injector.dropped_ticks
        report.telemetry_frozen_ticks = self.injector.frozen_ticks
        report.telemetry_spikes = self.injector.spikes_injected
        report.delayed_actuations = self.injector.delayed_actuations
        report.time_at_risk_s = self.tracker.time_at_risk_s
        report.longest_overbudget_s = self.tracker.longest_overbudget_s

        series = TimeSeries(
            start=0.0,
            interval=config.telemetry_interval_s,
            values=self.power_samples[:self.sample_cursor],
        )
        observability: Optional[Dict[str, Any]] = None
        if self.recording:
            obs = self.obs
            # Batch-populate the latency and utilization histograms
            # from the lists the hot path appended to. Batch order
            # equals observation order, so the snapshot matches what
            # per-event observes would have produced (the sums up to
            # pairwise-summation ulps).
            self.util_hist.observe_many(self._util_samples)
            for priority, tier in self.metrics.items():
                self.latency_hists[priority].observe_many(tier.latencies)
            for name, wl_tier in self.workload_metrics.items():
                if wl_tier.latencies:
                    self._workload_hist(name).observe_many(
                        wl_tier.latencies
                    )
            obs.counter("telemetry.ticks").inc(self.sample_cursor)
            if self.sample_cursor:
                obs.gauge("power.peak_row_w").set(
                    float(self.power_samples[:self.sample_cursor].max())
                )
            obs.gauge("power.provisioned_w").set(config.provisioned_power_w)
            obs.gauge("energy.total_j").set(self.total_energy)
            observability = obs.snapshot()
            # Live consumers (alert engines, stream monitors — possibly
            # teed with storage sinks) settle their window state at the
            # end of the recorded stream and contribute their own
            # sections (incidents, stream values) next to the metrics
            # snapshot. Plain sinks return None and nothing changes.
            self.recorder.finalize(duration_s)
            extra = self.recorder.observability_snapshot()
            if extra:
                for key, value in extra.items():
                    if key not in observability:
                        observability[key] = value
        if self.timers is not None:
            sim_core = {"kernel_timers": self.timers.snapshot()}
            if observability is None:
                observability = {"sim_core": sim_core}
            else:
                observability["sim_core"] = sim_core
        return SimulationResult(
            per_priority=self.metrics,
            power_series=series,
            provisioned_power_w=config.provisioned_power_w,
            power_brake_events=self.brake_events,
            capping_actions=self.capping_actions,
            duration_s=duration_s,
            per_workload=self.workload_metrics,
            total_energy_j=self.total_energy,
            robustness=report,
            observability=observability,
            powerfail=powerfail,
        )


def _tier_lengths(
    tiers: Dict[Any, PriorityMetrics]
) -> Tuple[Tuple[Any, int, int, int], ...]:
    """Per tier, in order: (key, latencies recorded, served, dropped)."""
    return tuple(
        (key, len(tier.latencies), tier.served, tier.dropped)
        for key, tier in tiers.items()
    )


def _prefix(values: Any, length: int) -> Any:
    if len(values) < length:
        raise SimulationError(
            "restore series are shorter than the checkpointed run's"
        )
    return values[:length]


def _sliced_tiers(
    lengths: Tuple[Tuple[Any, int, int, int], ...],
    latencies: Dict[Any, array],
) -> Dict[Any, PriorityMetrics]:
    """Inverse of :func:`_tier_lengths` over the final latency series."""
    tiers = {}
    for key, length, served, dropped in lengths:
        if key not in latencies:
            raise SimulationError(
                f"restore series lack the {key!r} tier"
            )
        tiers[key] = PriorityMetrics(
            _prefix(latencies[key], length).tolist(), served, dropped
        )
    return tiers


def _reduce_generator(rng: np.random.Generator) -> Tuple:
    return _generator_from_state, (rng.bit_generator.state,)


def _generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """A numpy ``Generator`` whose bit generator is in ``state``."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _request_at(index: int) -> SampledRequest:
    """Checkpoint placeholder for the request at an arrival index."""
    raise SimulationError("checkpoints load only through restore()")


def _server_at(index: int, state: Tuple) -> ServerSim:
    """Checkpoint placeholder for a server at a row index."""
    raise SimulationError("checkpoints load only through restore()")


class _CheckpointUnpickler(pickle.Unpickler):
    """Resolves checkpoint placeholders against a template core."""

    def __init__(self, file: io.BytesIO, template: SimulationCore) -> None:
        super().__init__(file)
        servers = template.servers
        self._placeholders = {
            "_request_at": template.requests.__getitem__,
            "_server_at":
                lambda index, state: servers[index].restored(state),
        }

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name in self._placeholders:
            return self._placeholders[name]
        return super().find_class(module, name)
