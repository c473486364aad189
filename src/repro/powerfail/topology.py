"""The power-delivery topology: server → rack PDU → row breaker.

POLCA's oversubscription argument (Section 3) rests on a hierarchy of
protection devices: every server hangs off a rack PDU, racks share a
row-level breaker, and each device is rated for a *provisioned*
capacity that sustained load must not exceed. "From Servers to Sites"
motivates exactly this server/rack/row decomposition; Table 2 gives the
row budget our :class:`~repro.cluster.simulator.ClusterConfig` already
carries. This module derives the per-level capacities from that config
and attaches an inverse-time trip curve to every device.

The trip curve is the classic :math:`I^2t` dead-band form: a breaker
carrying overload ratio :math:`M` (load / capacity) heats a thermal
accumulator at rate :math:`(M^2 - 1)/\\tau_{trip}` while :math:`M > 1`
and cools at :math:`(1 - M^2)/\\tau_{cool}` below it, tripping when the
accumulator reaches 1. A *constant* overload therefore trips in
:math:`t = \\tau_{trip}/(M^2-1)` — sustained overload trips faster at
higher overload, and brief excursions that POLCA's brake absorbs never
accumulate enough heat to matter. Piecewise-constant server power makes
the accumulator piecewise *linear* in time, so the simulator can settle
it lazily and project threshold crossings exactly (no per-tick
integration error, bit-deterministic across replays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.control.emergency import EmergencyConfig
from repro.errors import ConfigurationError

__all__ = [
    "TripCurve",
    "ProtectionSpec",
    "ProtectionDevice",
    "PowerTopology",
]


@dataclass(frozen=True)
class TripCurve:
    """Inverse-time (:math:`I^2t`) trip characteristic of one device.

    Attributes:
        tau_trip_s: Thermal time constant while overloaded; a constant
            overload ratio ``M`` trips in ``tau_trip_s / (M**2 - 1)``
            seconds (e.g. 2x overload trips in ``tau_trip_s / 3``).
        tau_cool_s: Cooling time constant below capacity; a fully
            unloaded device sheds a full accumulator in ``tau_cool_s``.
        risk_at: Accumulator level that raises the trip-risk flag (the
            emergency shed layer engages here).
        clear_at: Accumulator level that clears the risk flag
            (hysteresis: ``clear_at < risk_at``).
        reset_below: The accumulator must cool below this level before
            a tripped device may re-energize.
    """

    tau_trip_s: float = 20.0
    tau_cool_s: float = 600.0
    risk_at: float = 0.5
    clear_at: float = 0.25
    reset_below: float = 0.1

    def __post_init__(self) -> None:
        if self.tau_trip_s <= 0 or self.tau_cool_s <= 0:
            raise ConfigurationError("trip-curve time constants must be "
                                     "positive")
        if not 0.0 < self.clear_at < self.risk_at < 1.0:
            raise ConfigurationError(
                "need 0 < clear_at < risk_at < 1, got "
                f"clear_at={self.clear_at}, risk_at={self.risk_at}"
            )
        if not 0.0 < self.reset_below <= self.clear_at:
            raise ConfigurationError(
                "need 0 < reset_below <= clear_at, got "
                f"reset_below={self.reset_below}"
            )

    # ------------------------------------------------------------------
    def rate(self, overload: float) -> float:
        """d(accumulator)/dt at a constant load ratio ``overload``.

        Positive above capacity (heating), non-positive at or below it
        (cooling); exactly 0.0 at the capacity boundary.
        """
        if overload > 1.0:
            return (overload * overload - 1.0) / self.tau_trip_s
        return -(1.0 - overload * overload) / self.tau_cool_s

    def time_to_trip(self, overload: float) -> float:
        """Seconds a cold device sustains ``overload`` before tripping."""
        if overload <= 1.0:
            return math.inf
        return self.tau_trip_s / (overload * overload - 1.0)

    @property
    def reset_time_s(self) -> float:
        """Cooling time from a fresh trip (accumulator 1) to re-close."""
        return (1.0 - self.reset_below) * self.tau_cool_s


@dataclass(frozen=True)
class ProtectionSpec:
    """Configuration of the whole protection layer.

    Capacities are derived from the :class:`ClusterConfig` budget: the
    row breaker is rated at the Table 2 provisioned budget times
    ``row_headroom`` (1.0: the budget *is* the breaker), each rack PDU
    at its fair share of the row capacity times ``rack_headroom``
    (tolerating transient load imbalance), and each server fuse at the
    server's physical peak power times ``server_headroom`` (branch
    fuses are rated above the PSU maximum, so they only trip in
    deliberately stressed topologies).

    Attributes:
        servers_per_rack: Rack size used to slice the row.
        row_headroom: Row breaker rating / provisioned row budget.
        rack_headroom: Rack PDU rating / the rack's fair share.
        server_headroom: Server fuse rating / server peak power.
        curve: The shared inverse-time trip curve.
        cooldown_s: Minimum outage after a trip, even if the device
            cools quickly.
        restore_batch: Servers re-energized per re-admission step.
        restore_stagger_s: Delay between re-admission steps (gradual
            re-energization avoids re-tripping on inrush).
        cascade_window_s: A trip within this window of a prior trip is
            counted as part of a cascade.
        emergency: The shed/safe-mode response (see
            :class:`~repro.control.emergency.EmergencyConfig`).
    """

    servers_per_rack: int = 8
    row_headroom: float = 1.0
    rack_headroom: float = 1.25
    server_headroom: float = 1.5
    curve: TripCurve = field(default_factory=TripCurve)
    cooldown_s: float = 120.0
    restore_batch: int = 2
    restore_stagger_s: float = 10.0
    cascade_window_s: float = 60.0
    emergency: EmergencyConfig = field(default_factory=EmergencyConfig)

    def __post_init__(self) -> None:
        if self.servers_per_rack <= 0:
            raise ConfigurationError("servers_per_rack must be positive")
        for name in ("row_headroom", "rack_headroom", "server_headroom"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.cooldown_s < 0:
            raise ConfigurationError("cooldown_s cannot be negative")
        if self.restore_batch <= 0:
            raise ConfigurationError("restore_batch must be positive")
        if self.restore_stagger_s <= 0:
            raise ConfigurationError("restore_stagger_s must be positive")
        if self.cascade_window_s < 0:
            raise ConfigurationError("cascade_window_s cannot be negative")


@dataclass(frozen=True)
class ProtectionDevice:
    """One protection device and the server subtree it energizes."""

    device_id: str
    level: str  # "server" | "rack" | "row"
    capacity_w: float
    servers: Tuple[int, ...]
    parent: Optional[str]

    def __post_init__(self) -> None:
        if self.capacity_w <= 0:
            raise ConfigurationError(
                f"device {self.device_id!r} capacity must be positive"
            )
        if not self.servers:
            raise ConfigurationError(
                f"device {self.device_id!r} must cover at least one server"
            )


@dataclass(frozen=True)
class PowerTopology:
    """The device tree, plus each server's root-ward device chain.

    ``chains[i]`` lists the devices energizing server ``i`` from leaf
    to root (server fuse, rack PDU, row breaker): a power change on
    server ``i`` touches exactly these devices.
    """

    devices: Tuple[ProtectionDevice, ...]
    chains: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate device ids in topology")

    @property
    def by_id(self) -> Dict[str, ProtectionDevice]:
        return {d.device_id: d for d in self.devices}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_servers: int,
        provisioned_power_w: float,
        peak_server_w: float,
        spec: ProtectionSpec,
    ) -> "PowerTopology":
        """Derive the server → rack → row tree from the row budget.

        The row budget covers the *designed* capacity only (it does not
        grow with oversubscribed servers), exactly like
        ``ClusterConfig.provisioned_power_w``; rack shares are
        proportional to deployed rack population.
        """
        if n_servers <= 0:
            raise ConfigurationError("n_servers must be positive")
        row_capacity = provisioned_power_w * spec.row_headroom
        devices: List[ProtectionDevice] = []
        chains: List[Tuple[str, ...]] = [() for _ in range(n_servers)]
        devices.append(ProtectionDevice(
            device_id="row", level="row", capacity_w=row_capacity,
            servers=tuple(range(n_servers)), parent=None,
        ))
        n_racks = math.ceil(n_servers / spec.servers_per_rack)
        for rack in range(n_racks):
            members = tuple(range(
                rack * spec.servers_per_rack,
                min((rack + 1) * spec.servers_per_rack, n_servers),
            ))
            rack_id = f"rack{rack}"
            devices.append(ProtectionDevice(
                device_id=rack_id, level="rack",
                capacity_w=row_capacity * (len(members) / n_servers)
                * spec.rack_headroom,
                servers=members, parent="row",
            ))
            for index in members:
                server_id = f"fuse{index}"
                devices.append(ProtectionDevice(
                    device_id=server_id, level="server",
                    capacity_w=peak_server_w * spec.server_headroom,
                    servers=(index,), parent=rack_id,
                ))
                chains[index] = (server_id, rack_id, "row")
        return cls(devices=tuple(devices), chains=tuple(chains))
