"""Latency- and reliability-aware actuation of control actions.

The defining constraint of cloud GPU power management (Section 3.3) is that
the provider must act *out of band*: frequency/power capping takes up to
40 s to land (Table 2) while the UPS requires capping within 10 s
(Section 6.2). Only the power brake beats the deadline (5 s), at a severe
performance cost. The :class:`Actuator` models a command pipeline with
per-kind latency and optional silent failures; POLCA's whole design —
conservative thresholds chosen from the worst 40 s power spike — exists to
live within these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.control.actions import ActionKind, ControlAction
from repro.errors import ConfigurationError
from repro.gpu.brake import DEFAULT_BRAKE_LATENCY_S
from repro.telemetry.smbpbi import SMBPBI_ACTUATION_LATENCY_S

#: UPS-imposed deadline for a capping response (Section 3.3 / 6.2).
UPS_CAPPING_DEADLINE_S = 10.0

#: In-band configuration changes land "within a few milliseconds"
#: (Section 3.2); we use 10 ms.
IN_BAND_LATENCY_S = 0.01


@dataclass(frozen=True)
class AppliedAction:
    """An action that has landed (or silently failed).

    Attributes:
        action: The original command.
        issued_at: When the controller dispatched it.
        effective_at: When it took (or would have taken) effect.
        failed_silently: True if the interface dropped it without error.
    """

    action: ControlAction
    issued_at: float
    effective_at: float
    failed_silently: bool = False


@dataclass
class Actuator:
    """A command pipeline with per-action-kind latency.

    Attributes:
        latencies: Seconds from issue to effect, per action kind.
        silent_failure_rate: Probability any single command is dropped
            without an error (Section 3.3's unreliable OOB interfaces).
        seed: RNG seed for the failure process.
    """

    latencies: Dict[ActionKind, float]
    silent_failure_rate: float = 0.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _in_flight: List[AppliedAction] = field(init=False, default_factory=list)
    history: List[AppliedAction] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.silent_failure_rate < 1.0:
            raise ConfigurationError("silent_failure_rate must be in [0, 1)")
        for kind, latency in self.latencies.items():
            if latency < 0:
                raise ConfigurationError(f"{kind.value}: negative latency")
        self._rng = np.random.default_rng(self.seed)

    def latency_for(self, kind: ActionKind) -> float:
        """Actuation latency for an action kind.

        Raises:
            ConfigurationError: If the kind has no configured latency.
        """
        try:
            return self.latencies[kind]
        except KeyError:
            raise ConfigurationError(
                f"no latency configured for {kind.value}"
            ) from None

    def dispatch(self, now: float, action: ControlAction) -> AppliedAction:
        """Dispatch an action without keeping it: one failure draw, and
        the record of when it lands (or that it silently failed).

        For callers that schedule the landing themselves; :meth:`issue`
        adds the history and in-flight bookkeeping.
        """
        latency = self.latency_for(action.kind)
        failed = bool(self._rng.random() < self.silent_failure_rate)
        return AppliedAction(
            action=action,
            issued_at=now,
            effective_at=now + latency,
            failed_silently=failed,
        )

    def issue(self, now: float, action: ControlAction) -> AppliedAction:
        """Dispatch an action; it becomes effective after its latency.

        The returned record notes a silent failure, but — true to the
        paper — the *simulated controller* must not peek at that flag;
        it exists for the experiment harness to count.
        """
        record = self.dispatch(now, action)
        self.history.append(record)
        if not record.failed_silently:
            self._in_flight.append(record)
        return record

    def effective(self, now: float) -> List[AppliedAction]:
        """Pop the actions that have landed by ``now``, in landing order."""
        landed = sorted(
            (a for a in self._in_flight if a.effective_at <= now),
            key=lambda a: a.effective_at,
        )
        self._in_flight = [a for a in self._in_flight if a.effective_at > now]
        return landed

    def next_effective_time(self) -> Optional[float]:
        """Earliest pending landing time, or ``None`` if idle."""
        if not self._in_flight:
            return None
        return min(a.effective_at for a in self._in_flight)

    @property
    def in_flight_count(self) -> int:
        """Commands issued but not yet landed."""
        return len(self._in_flight)

    def meets_ups_deadline(self, kind: ActionKind) -> bool:
        """Whether this action kind can land within the UPS deadline."""
        return self.latency_for(kind) <= UPS_CAPPING_DEADLINE_S


def OobActuator(
    silent_failure_rate: float = 0.0, seed: int = 0
) -> Actuator:
    """The out-of-band actuator available to a cloud provider.

    Frequency/power capping at the 40 s SMBPBI latency (Table 2); only the
    power brake (5 s) meets the 10 s UPS deadline.
    """
    return Actuator(
        latencies={
            ActionKind.FREQUENCY_LOCK: SMBPBI_ACTUATION_LATENCY_S,
            ActionKind.FREQUENCY_UNLOCK: SMBPBI_ACTUATION_LATENCY_S,
            ActionKind.POWER_CAP: SMBPBI_ACTUATION_LATENCY_S,
            ActionKind.POWER_UNCAP: SMBPBI_ACTUATION_LATENCY_S,
            ActionKind.POWER_BRAKE: DEFAULT_BRAKE_LATENCY_S,
            ActionKind.BRAKE_RELEASE: DEFAULT_BRAKE_LATENCY_S,
        },
        silent_failure_rate=silent_failure_rate,
        seed=seed,
    )


def InBandActuator(seed: int = 0) -> Actuator:
    """The in-band actuator available inside a VM (Section 3.2).

    All knobs land within milliseconds and reliably — but a cloud provider
    cannot use this path under fixed-passthrough virtualization.
    """
    return Actuator(
        latencies={kind: IN_BAND_LATENCY_S for kind in ActionKind},
        silent_failure_rate=0.0,
        seed=seed,
    )
