"""The benchmark's workloads: what each one runs, built from a seed.

Every workload is a closed loop with one caller. Its runs execute one
after another in this process through a ``SweepEngine`` with
``workers=1``: no threads and no process pool. Each repetition starts
from a fresh ``EvaluationHarness``, so its ``RunCache`` (and, for the
incremental workload, every checkpoint) starts cold, while the
process-wide trace cache filled during set-up stays warm.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.metrics import SimulationResult
from repro.core.policy import PolcaThresholds
from repro.core.sweeps import EvaluationHarness
from repro.exec import (
    ExecutionStats, PolicySpec, RunSpec, SweepEngine, TraceKey, traces,
)
from repro.faults.plan import FaultPlan
from repro.obs import MemoryRecorder, TraceCollector
from repro.powerfail import EmergencyConfig, ProtectionSpec
from repro.units import hours as hours_to_s
from repro.workloads.replay import BurstWindow, FlashCrowdSpec, TraceSource

#: The Fig 13 threshold search: three POLCA (T1, T2) combos times four
#: oversubscription levels, plus the shared No-cap baseline.
FIG13_COMBOS = (
    ("75-85", PolcaThresholds(t1=0.75, t2=0.85)),
    ("80-89", PolcaThresholds(t1=0.80, t2=0.89)),
    ("85-95", PolcaThresholds(t1=0.85, t2=0.95)),
)
FIG13_FRACTIONS = (0.10, 0.20, 0.30, 0.40)

#: The site recording config of the overhead-bounded trace collector, as
#: ``benchmarks/test_perf_sweeps.py`` defines it. Frozen here so that the
#: workload, and the event counts pinned for it, only change when the
#: benchmark itself does.
OBS_KEEP_KINDS = (
    "brake_cancel_release", "brake_issue", "brake_land", "brake_reissue",
    "brake_release_request", "brake_request", "brake_verify",
    "cap_issue", "cap_land", "cap_reissue", "cap_verify",
    "capacity_status", "drop", "fallback_enter", "fallback_exit",
    "phase_rescale", "reenergize", "reenergize_done", "run_meta",
    "serve", "server_fail", "server_recover",
    "shed_defer", "shed_engage", "shed_release",
    "telemetry_fault", "trip_risk",
)
OBS_SERVE_RATE = 0.05

#: Brake storm: 30% added servers drawing 5% more power, with a 6x flash
#: crowd over the middle 40% of the horizon.
STORM_ADDED = 0.30
STORM_POWER_SCALE = 1.05
STORM_BURST_MAGNITUDE = 6.0
STORM_POLICIES = ("POLCA", "No-cap")


@dataclasses.dataclass
class RunOutcome:
    """One simulated run of a repetition, as the caller saw it.

    Attributes:
        host_s: Host seconds of the run, as the engine timed it.
    """

    spec: RunSpec
    result: SimulationResult
    host_s: float
    segment: Optional[Path] = None


@dataclasses.dataclass
class Repetition:
    """Every run of one repetition, and the engine's batch statistics."""

    outcomes: List[RunOutcome]
    stats: ExecutionStats


class Workload:
    """A named set of runs over one seed and horizon.

    Attributes:
        name: The workload's name in ``BENCHMARK.json``.
        seed: Seed of the traces, the load balancer and any fault plan.
        duration_s: Simulated seconds per run.
    """

    name = ""
    incremental = False

    def __init__(self, seed: int, sim_hours: float) -> None:
        self.seed = seed
        self.duration_s = hours_to_s(sim_hours)

    def harness(self, spool: Optional[Path] = None) -> EvaluationHarness:
        """A fresh harness: a cold ``RunCache`` for one repetition."""
        return EvaluationHarness(
            duration_s=self.duration_s, seed=self.seed,
            incremental=self.incremental,
        )

    def specs(self, harness: EvaluationHarness) -> List[RunSpec]:
        raise NotImplementedError

    def trace_keys(self) -> List[TraceKey]:
        """Every request trace the workload's runs replay."""
        keys: List[TraceKey] = []
        for spec in self.specs(self.harness()):
            key = spec.trace_key()
            if key not in keys:
                keys.append(key)
        return keys

    def synthesize(self) -> None:
        """Synthesize every trace the runs replay (fills the trace cache)."""
        for key in self.trace_keys():
            traces.requests_for(key)

    def run_rep(self, spool: Optional[Path] = None) -> Repetition:
        """One repetition: every run, serially, as one engine batch.

        This is the traffic ``threshold_search`` produces. The engine
        records each run's host time in an ``engine_run`` event.
        """
        harness = self.harness(spool)
        engine: SweepEngine = harness.engine(workers=1)
        engine.recorder = MemoryRecorder(kinds=("engine_run",))
        specs = self.specs(harness)
        results = engine.run_specs(specs)
        host_s = {event["digest"]: event["wall_s"]
                  for event in engine.recorder.events}
        outcomes = []
        for spec, result in zip(specs, results):
            digest = spec.digest()
            outcomes.append(RunOutcome(
                spec=spec,
                result=result,
                host_s=host_s[digest],
                segment=(
                    harness.collector.segment_path(digest)
                    if harness.collector is not None else None
                ),
            ))
        return Repetition(outcomes, engine.last_stats)


class Fig13Serial(Workload):
    """The Fig 13 ``threshold_search`` grid, run serially (13 runs)."""

    name = "fig13_serial"

    def specs(self, harness: EvaluationHarness) -> List[RunSpec]:
        # The batch threshold_search builds, in its order.
        return [harness.baseline_spec()] + [
            harness.spec(PolicySpec("POLCA", thresholds),
                         added_fraction=fraction)
            for _, thresholds in FIG13_COMBOS
            for fraction in FIG13_FRACTIONS
        ]


class Fig13Incremental(Fig13Serial):
    """The same 13 specs through the checkpointed incremental executor."""

    name = "fig13_incremental"
    incremental = True


class BrakeStorm(Workload):
    """Protected, fault-injected, recorded runs under a flash crowd."""

    name = "brake_storm"

    def source(self) -> TraceSource:
        return TraceSource(burst=FlashCrowdSpec(
            windows=(BurstWindow(
                start_s=0.3 * self.duration_s,
                duration_s=0.4 * self.duration_s,
                magnitude=STORM_BURST_MAGNITUDE,
            ),),
            seed=self.seed,
        ))

    def harness(self, spool: Optional[Path] = None) -> EvaluationHarness:
        collector = None
        if spool is not None:
            collector = TraceCollector(
                spool, kinds=OBS_KEEP_KINDS,
                sample={"serve": OBS_SERVE_RATE},
            )
        return EvaluationHarness(
            duration_s=self.duration_s, seed=self.seed,
            trace_source=self.source(), collector=collector,
        )

    def specs(self, harness: EvaluationHarness) -> List[RunSpec]:
        protection = ProtectionSpec(emergency=EmergencyConfig(enabled=True))
        specs = []
        for policy in STORM_POLICIES:
            spec = harness.spec(
                PolicySpec(policy),
                added_fraction=STORM_ADDED,
                power_scale=STORM_POWER_SCALE,
                fault_plan=FaultPlan.adversarial(self.seed),
            )
            specs.append(dataclasses.replace(
                spec,
                config=dataclasses.replace(spec.config, protection=protection),
            ))
        return specs


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig13Serial, Fig13Incremental, BrakeStorm)
}


def offered_by_key(
    specs: Sequence[RunSpec],
) -> Dict[TraceKey, Tuple[Dict[str, int], Dict[str, int]]]:
    """Requests offered per priority and per workload tier, per trace.

    Counted from the trace itself (arrivals before the horizon), so the
    conservation check does not trust the simulator's own tallies.
    """
    offered = {}
    for spec in specs:
        key = spec.trace_key()
        if key in offered:
            continue
        by_priority: Dict[str, int] = {}
        by_tier: Dict[str, int] = {}
        for request in traces.requests_for(key):
            if request.arrival_time < spec.duration_s:
                p = request.priority.value
                by_priority[p] = by_priority.get(p, 0) + 1
                w = request.workload.name
                by_tier[w] = by_tier.get(w, 0) + 1
        offered[key] = (by_priority, by_tier)
    return offered
