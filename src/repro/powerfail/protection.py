"""The protection runtime: thermal accumulators, trips, re-energization.

:class:`ProtectionRuntime` is the stateful side of
:mod:`repro.powerfail.topology`. The simulator feeds it every server
power change; it maintains, per protection device:

* the device's subtree power (float mirror for trip arithmetic, plus an
  exact scaled-integer mirror for the energy ledger);
* the inverse-time thermal accumulator, settled *lazily*: server powers
  are piecewise constant, so the accumulator is piecewise linear and
  ``A(t) = clamp(A0 + rate * (t - t0), 0, ·)`` is exact — no per-tick
  integration, no drift between replays;
* a projected threshold-crossing event. Whenever a device's heat rate
  changes, the runtime computes the exact time its accumulator would
  cross the next threshold (risk flag, then trip) and hands the
  simulator a ``("prot", device, target, epoch)`` event to enqueue.
  Every rate change bumps the device epoch, so stale projections are
  recognized and dropped on arrival; a run that never overloads any
  device enqueues *nothing*.

A trip de-energizes the device's subtree (the simulator fails those
servers mid-flight), starts the cooldown clock, and schedules staged
re-energization: ``restore_batch`` servers per ``restore_stagger_s``,
beginning once the accumulator has cooled below ``reset_below`` and at
least ``cooldown_s`` has passed. Trips arriving while another device is
down (or within ``cascade_window_s`` of the last trip) are flagged as
cascade members.

The energy ledger accumulates per-device subtree energy exactly. Every
float is a dyadic rational ``n / 2**k``, so the ledger keeps powers as
integers over ``2**power_shift``, times over ``2**time_shift`` and
energies over ``2**(power_shift + time_shift)``. Sums and products of
such integers are exact, and the shared shifts only grow: a value with
more fractional bits than any seen so far rescales every stored
numerator (a left shift, also exact) before it enters the ledger.
Because each server power change applies the *same* integer delta to
the server fuse, its rack PDU, and the row breaker at the same instant,
while every device still integrates its own energy, conservation — row
energy equals the sum of rack energies equals the sum of server
energies, across any pattern of trips — holds as an identity of
integers, and :attr:`PowerFailReport.energy_conserved_exactly` checks
it exactly. The ledger becomes floats only in
:meth:`ProtectionRuntime.finalize`, by correctly rounded integer
division.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.powerfail.topology import (
    PowerTopology,
    ProtectionDevice,
    ProtectionSpec,
)

__all__ = ["ProtectionRuntime", "PowerFailReport"]

# A queued projection or restore event: (fire_time, payload-tuple).
QueuePush = Tuple[float, tuple]


@dataclass
class PowerFailReport:
    """What the protection layer saw and did during one run.

    Mirrors the :class:`~repro.faults.report.RobustnessReport` pattern:
    plain counters a trace cross-check can re-derive independently.
    ``trip_log`` keeps one dict per trip (device, time, overload,
    servers lost, cascade membership) for post-hoc forensics.
    """

    trips: int = 0
    cascade_trips: int = 0
    reenergizations: int = 0
    requests_lost_to_trips: int = 0
    requests_dropped_shed: int = 0
    requests_deferred: int = 0
    shed_engagements: int = 0
    time_shedding_s: float = 0.0
    offline_server_seconds: float = 0.0
    peak_accumulator: float = 0.0
    energy_row_j: float = 0.0
    energy_racks_j: float = 0.0
    energy_servers_j: float = 0.0
    energy_conserved_exactly: bool = True
    trip_log: List[Dict[str, Any]] = field(default_factory=list)


def _dyadic(x: float) -> Tuple[int, int]:
    """``(n, k)`` with ``x == n / 2**k`` exactly."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


class _DeviceState:
    """Mutable per-device state (accumulator, power mirrors, outage).

    ``power_n``, ``energy_n`` and ``energy_t`` are the exact ledger:
    integer numerators over the runtime's shared power, energy and time
    denominators (see :class:`ProtectionRuntime`).
    """

    __slots__ = (
        "device", "power_w", "acc", "acc_t", "rate", "epoch", "tripped",
        "risk_active", "trip_t", "trip_overload", "to_restore",
        "restore_version", "power_n", "energy_n", "energy_t",
    )

    def __init__(self, device: ProtectionDevice) -> None:
        self.device = device
        self.power_w = 0.0
        self.acc = 0.0
        self.acc_t = 0.0
        self.rate = 0.0
        self.epoch = 0
        self.tripped = False
        self.risk_active = False
        self.trip_t: Optional[float] = None
        self.trip_overload = 0.0
        self.to_restore: List[int] = []
        self.restore_version = 0
        self.power_n = 0
        self.energy_n = 0
        self.energy_t = 0


class ProtectionRuntime:
    """Tracks every protection device through one simulation run.

    The exact energy ledger holds every power as an integer over
    ``2**_power_shift``, every ledger time as an integer over
    ``2**_time_shift`` and every energy over ``2**(_power_shift +
    _time_shift)``.
    """

    def __init__(
        self,
        topology: PowerTopology,
        spec: ProtectionSpec,
        duration_s: float,
        initial_powers: Sequence[float],
    ) -> None:
        self.topology = topology
        self.spec = spec
        self.curve = spec.curve
        self.report = PowerFailReport()
        self._duration = duration_s
        self._power_shift = 0
        self._time_shift = 0
        self._states: Dict[str, _DeviceState] = {
            d.device_id: _DeviceState(d) for d in topology.devices
        }
        self._chains: List[Tuple[_DeviceState, ...]] = [
            tuple(self._states[did] for did in chain)
            for chain in topology.chains
        ]
        # index -> (owning tripped device id, de-energized since)
        self._deenergized: Dict[int, Tuple[str, float]] = {}
        self._last_trip_t: Optional[float] = None
        if len(initial_powers) != len(topology.chains):
            raise SimulationError(
                "initial_powers does not match topology server count"
            )
        for state in self._states.values():
            power = sum(initial_powers[i] for i in state.device.servers)
            state.power_w = power
        for chain, power in zip(self._chains, initial_powers):
            power_n = self._power_int(power)
            for state in chain:
                state.power_n += power_n

    # ------------------------------------------------------------------
    # Accumulator settlement and crossing projection
    # ------------------------------------------------------------------
    def _settle(self, state: _DeviceState, t: float) -> None:
        # Clamp to the reported window, like the energy ledger: the
        # simulator discards protection events past the horizon, so
        # heat accumulated during the post-horizon drain is outside the
        # model (it would otherwise inflate ``peak_accumulator`` with
        # overloads no breaker was ever allowed to act on).
        if t > self._duration:
            t = self._duration
        dt = t - state.acc_t
        if dt > 0.0 and state.rate != 0.0:
            acc = state.acc + state.rate * dt
            state.acc = acc if acc > 0.0 else 0.0
            if state.acc > self.report.peak_accumulator:
                self.report.peak_accumulator = state.acc
        if t > state.acc_t:
            state.acc_t = t

    def _reproject(
        self, state: _DeviceState, t: float, pushes: List[QueuePush]
    ) -> None:
        """Recompute the heat rate and (re)project the next crossing."""
        state.epoch += 1
        curve = self.curve
        if state.tripped:
            # An open breaker carries no load; it cools at the floor
            # rate until re-energization (handled by the restore path).
            state.rate = curve.rate(0.0)
            return
        state.rate = curve.rate(state.power_w / state.device.capacity_w)
        if state.rate > 0.0:
            if state.risk_active or state.acc >= curve.risk_at:
                target, value = "trip", 1.0
            else:
                target, value = "risk", curve.risk_at
            dt = (value - state.acc) / state.rate
            pushes.append((
                t + (dt if dt > 0.0 else 0.0),
                ("prot", state.device.device_id, target, state.epoch),
            ))
        elif state.rate < 0.0 and state.risk_active:
            dt = (state.acc - curve.clear_at) / -state.rate
            pushes.append((
                t + (dt if dt > 0.0 else 0.0),
                ("prot", state.device.device_id, "clear", state.epoch),
            ))

    # ------------------------------------------------------------------
    # Simulator-facing API
    # ------------------------------------------------------------------
    def initial_events(self) -> List[QueuePush]:
        """Projections for the initial power state (time 0)."""
        pushes: List[QueuePush] = []
        for state in self._states.values():
            self._reproject(state, 0.0, pushes)
        return pushes

    def update_server_power(
        self, t: float, index: int, new_power_w: float
    ) -> List[QueuePush]:
        """Apply one server's power change to its device chain.

        Returns projection events the simulator must enqueue. A change
        equal to the server's float power returns an empty list and
        leaves the trip state alone.
        """
        chain = self._chains[index]
        server = chain[0]
        old = server.power_w
        new_n = self._power_int(new_power_w)
        delta_n = new_n - server.power_n
        # Clamp to the reported window (see ``_settle``); the ledger
        # settles to the same instant.
        te = t if t <= self._duration else self._duration
        if new_power_w == old:
            # The float mirror accumulates rounded deltas, so it can
            # equal a new power the ledger has not seen yet.
            if delta_n:
                te_n = self._time_int(te)
                for state in chain:
                    self._settle_energy(state, te_n)
                    state.power_n += delta_n
            return []
        delta = new_power_w - old
        te_n = self._time_int(te)
        peak = self.report.peak_accumulator
        pushes: List[QueuePush] = []
        for state in chain:
            # _settle(state, t), inlined.
            dt = te - state.acc_t
            if dt > 0.0:
                if state.rate != 0.0:
                    acc = state.acc + state.rate * dt
                    state.acc = acc if acc > 0.0 else 0.0
                    if state.acc > peak:
                        peak = self.report.peak_accumulator = state.acc
                state.acc_t = te
            # _settle_energy(state, te_n), inlined.
            dt_n = te_n - state.energy_t
            if dt_n > 0:
                state.energy_n += state.power_n * dt_n
                state.energy_t = te_n
            state.power_n += delta_n
            state.power_w += delta
            self._reproject(state, t, pushes)
        return pushes

    def on_projection(
        self, t: float, device_id: str, target: str, epoch: int
    ) -> Optional[Tuple[str, Dict[str, Any], List[QueuePush]]]:
        """Handle a ``("prot", ...)`` event popping from the queue.

        Returns ``None`` for stale projections (superseded epoch or a
        device that tripped meanwhile); otherwise ``(fired, info,
        pushes)`` where ``fired`` is ``"risk"``, ``"clear"``, or
        ``"trip"``. A ``"trip"`` outcome is only *announced* here — the
        simulator must follow up with :meth:`begin_trip` /
        :meth:`commit_trip` so it can fail the subtree in between.
        """
        state = self._states[device_id]
        if state.tripped or epoch != state.epoch:
            return None
        self._settle(state, t)
        curve = self.curve
        pushes: List[QueuePush] = []
        overload = state.power_w / state.device.capacity_w
        if target == "risk":
            # Snap to the exact threshold: the crossing time was solved
            # analytically, so this removes the last float rounding.
            state.acc = curve.risk_at
            state.risk_active = True
            self._reproject(state, t, pushes)
        elif target == "clear":
            state.acc = curve.clear_at
            state.risk_active = False
            self._reproject(state, t, pushes)
        elif target == "trip":
            state.acc = 1.0
            if 1.0 > self.report.peak_accumulator:
                self.report.peak_accumulator = 1.0
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown projection target {target!r}")
        info = {
            "device_level": state.device.level,
            "accumulator": state.acc,
            "overload": overload,
        }
        return target, info, pushes

    # ------------------------------------------------------------------
    # Trip lifecycle
    # ------------------------------------------------------------------
    def begin_trip(self, device_id: str, t: float) -> List[int]:
        """Open the breaker; returns the servers newly de-energized.

        Servers already de-energized under another tripped device stay
        with that device's restore schedule.
        """
        state = self._states[device_id]
        state.tripped = True
        state.trip_t = t
        # Capture the overload now, before the subtree drains to zero
        # through the per-server refresh calls.
        state.trip_overload = state.power_w / state.device.capacity_w
        state.risk_active = False
        state.restore_version += 1
        covered = [
            i for i in state.device.servers if i not in self._deenergized
        ]
        for index in covered:
            self._deenergized[index] = (device_id, t)
        state.to_restore = list(covered)
        # Cooling starts now; the subtree power drains to ~0 through the
        # per-server refresh calls that follow.
        state.rate = self.curve.rate(0.0)
        state.epoch += 1
        return covered

    def commit_trip(
        self, device_id: str, t: float, dropped: int
    ) -> Tuple[Dict[str, Any], QueuePush]:
        """Ledger the trip and schedule the first re-energization step."""
        state = self._states[device_id]
        spec = self.spec
        cascaded = any(
            s.tripped for s in self._states.values()
            if s.device.device_id != device_id
        ) or (
            self._last_trip_t is not None
            and t - self._last_trip_t <= spec.cascade_window_s
        )
        self._last_trip_t = t
        self.report.trips += 1
        if cascaded:
            self.report.cascade_trips += 1
        restore_at = t + max(spec.cooldown_s, self.curve.reset_time_s)
        record = {
            "t": t,
            "device": device_id,
            "device_level": state.device.level,
            "capacity_w": state.device.capacity_w,
            "overload": state.trip_overload,
            "servers_offline": len(state.to_restore),
            "dropped": dropped,
            "cascaded": cascaded,
            "restore_at": restore_at,
        }
        self.report.trip_log.append(record)
        return record, (
            restore_at,
            ("prot_restore", device_id, 0, state.restore_version),
        )

    def restore_step(
        self, device_id: str, step: int, version: int, t: float
    ) -> Optional[Tuple[List[int], Optional[QueuePush], bool]]:
        """One staged re-energization step.

        Returns ``(servers_to_recover, next_push, done)`` or ``None``
        for a stale event. Servers whose subtree is still dark under a
        *different* tripped device are handed to that device's restore
        schedule instead of being re-energized under a dead feed.
        """
        state = self._states[device_id]
        if version != state.restore_version or not state.tripped:
            return None
        if step == 0:
            self._settle(state, t)
            state.risk_active = False
        batch = state.to_restore[:self.spec.restore_batch]
        state.to_restore = state.to_restore[self.spec.restore_batch:]
        restored: List[int] = []
        for index in batch:
            owner, since = self._deenergized[index]
            blocker = self._blocking_device(index, exclude=device_id)
            if blocker is not None:
                self._deenergized[index] = (blocker, since)
                self._states[blocker].to_restore.append(index)
                continue
            del self._deenergized[index]
            self.report.offline_server_seconds += max(
                0.0, min(t, self._duration) - min(since, self._duration)
            )
            restored.append(index)
        done = not state.to_restore
        next_push: Optional[QueuePush] = None
        if done:
            state.tripped = False
            state.trip_t = None
            # Back in service: the rate is recomputed by the refresh
            # calls that re-power the restored servers.
            state.epoch += 1
        else:
            next_push = (
                t + self.spec.restore_stagger_s,
                ("prot_restore", device_id, step + 1, version),
            )
        return restored, next_push, done

    def _blocking_device(
        self, index: int, exclude: str
    ) -> Optional[str]:
        for state in self._chains[index]:
            if state.tripped and state.device.device_id != exclude:
                return state.device.device_id
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_deenergized(self, index: int) -> bool:
        return index in self._deenergized

    @property
    def in_emergency(self) -> bool:
        """Any device tripped or carrying an active trip-risk flag."""
        return any(
            s.tripped or s.risk_active for s in self._states.values()
        )

    def accumulator(self, device_id: str, t: float) -> float:
        """The settled accumulator value at time ``t`` (read-only)."""
        state = self._states[device_id]
        if t > self._duration:
            t = self._duration
        dt = t - state.acc_t
        if dt <= 0.0 or state.rate == 0.0:
            return state.acc
        return max(0.0, state.acc + state.rate * dt)

    def exact_energy_j(self, device_id: str) -> Fraction:
        """The device's exact ledger energy up to its last settlement
        (:meth:`finalize` settles every device to ``duration_s``)."""
        scale = 1 << (self._power_shift + self._time_shift)
        return Fraction(self._states[device_id].energy_n, scale)

    def offline_stats(self, peak_server_w: float) -> Tuple[float, float]:
        """(offline capacity in W, offline fraction of the fleet)."""
        n_total = len(self._chains)
        n_off = len(self._deenergized)
        return n_off * peak_server_w, n_off / n_total

    # ------------------------------------------------------------------
    # Exact energy ledger
    # ------------------------------------------------------------------
    def _power_int(self, power_w: float) -> int:
        """``power_w`` as an exact numerator over ``2**_power_shift``."""
        n, k = _dyadic(power_w)
        if k > self._power_shift:
            self._rescale(k - self._power_shift, 0)
        return n << (self._power_shift - k)

    def _time_int(self, t: float) -> int:
        """``t`` as an exact numerator over ``2**_time_shift``."""
        n, k = _dyadic(t)
        if k > self._time_shift:
            self._rescale(0, k - self._time_shift)
        return n << (self._time_shift - k)

    def _settle_energy(self, state: _DeviceState, te_n: int) -> None:
        """Integrate the device's power up to ledger time ``te_n``."""
        dt_n = te_n - state.energy_t
        if dt_n > 0:
            state.energy_n += state.power_n * dt_n
            state.energy_t = te_n

    def _rescale(self, power_bits: int, time_bits: int) -> None:
        """Refine the shared denominators; every stored value is kept."""
        for state in self._states.values():
            state.power_n <<= power_bits
            state.energy_t <<= time_bits
            state.energy_n <<= power_bits + time_bits
        self._power_shift += power_bits
        self._time_shift += time_bits

    def finalize(self, t_end: float) -> PowerFailReport:
        """Settle everything to the end of the run and fill the report.

        The ledger settles to ``duration_s`` whatever ``t_end``: power
        is constant after the last change, and, like the simulator's
        own energy integral, drain past the horizon is not accounted.
        """
        report = self.report
        for _index, (_owner, since) in self._deenergized.items():
            report.offline_server_seconds += max(
                0.0, self._duration - min(since, self._duration)
            )
        end_n = self._time_int(self._duration)
        states = self._states.values()
        for state in states:
            self._settle_energy(state, end_n)
        row = self._states["row"].energy_n
        racks = sum(s.energy_n for s in states if s.device.level == "rack")
        servers = sum(
            s.energy_n for s in states if s.device.level == "server"
        )
        # int / int is correctly rounded, so each total is the float
        # nearest the exact energy.
        scale = 1 << (self._power_shift + self._time_shift)
        report.energy_row_j = row / scale
        report.energy_racks_j = racks / scale
        report.energy_servers_j = servers / scale
        report.energy_conserved_exactly = (row == racks == servers)
        return report
