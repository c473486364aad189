"""Cross-module property-based tests on the library's core invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.policy_base import GroupCaps
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.core.policy import DualThresholdPolicy
from repro.gpu.power import GpuPowerModel
from repro.gpu.specs import A100_80GB
from repro.models.inference import InferenceRequest, request_timeline
from repro.models.registry import MODEL_ZOO, get_model
from repro.workloads.requests import RequestSampler


# ---------------------------------------------------------------------------
# Policy invariants
# ---------------------------------------------------------------------------
class TestPolicyProperties:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1,
                    max_size=100))
    def test_level_always_in_range(self, utilizations):
        policy = DualThresholdPolicy()
        for index, utilization in enumerate(utilizations):
            policy.desired_caps(utilization, now=2.0 * index)
            assert 0 <= policy.level <= 3

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1,
                    max_size=100))
    def test_caps_consistent_with_level(self, utilizations):
        policy = DualThresholdPolicy()
        for index, utilization in enumerate(utilizations):
            caps = policy.desired_caps(utilization, now=2.0 * index)
            if policy.level == 0:
                assert caps == GroupCaps.uncapped()
            if policy.level >= 2:
                assert caps.low_clock_mhz == 1110.0
            if policy.level == 3:
                assert caps.high_clock_mhz == 1305.0
            else:
                assert caps.high_clock_mhz is None

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.2), min_size=1,
                    max_size=60))
    def test_deterministic_replay(self, utilizations):
        a, b = DualThresholdPolicy(), DualThresholdPolicy()
        for index, utilization in enumerate(utilizations):
            assert a.desired_caps(utilization, 2.0 * index) == \
                b.desired_caps(utilization, 2.0 * index)

    @settings(max_examples=30)
    @given(st.floats(min_value=0.0, max_value=0.74))
    def test_low_utilization_never_caps(self, utilization):
        policy = DualThresholdPolicy()
        assert policy.desired_caps(utilization, 0.0) == GroupCaps.uncapped()


# ---------------------------------------------------------------------------
# Timeline / power invariants across the model zoo
# ---------------------------------------------------------------------------
class TestTimelineProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(MODEL_ZOO)),
        st.integers(min_value=64, max_value=8192),
        st.integers(min_value=16, max_value=2048),
    )
    def test_timeline_durations_positive_and_phase_ordering(
        self, model_name, inputs, outputs
    ):
        spec = get_model(model_name)
        timeline = request_timeline(
            spec, A100_80GB,
            InferenceRequest(model_name, inputs, outputs),
        )
        prompt, token = timeline.segments
        assert prompt.duration_seconds > 0
        assert token.duration_seconds > 0
        assert prompt.activity > token.activity  # Insight 4, always

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(MODEL_ZOO)),
        st.floats(min_value=0.3, max_value=1.0),
    )
    def test_locking_never_speeds_up_or_raises_power(self, model_name, ratio):
        spec = get_model(model_name)
        timeline = request_timeline(
            spec, A100_80GB, InferenceRequest(model_name, 1024, 128),
        )
        assert timeline.total_seconds(ratio) >= \
            timeline.total_seconds(1.0) - 1e-12
        power_model = GpuPowerModel(A100_80GB)
        clock = ratio * A100_80GB.max_sm_clock_mhz
        for segment in timeline.segments:
            assert power_model.power(segment.activity, clock) <= \
                power_model.power(segment.activity,
                                  A100_80GB.max_sm_clock_mhz) + 1e-9


# ---------------------------------------------------------------------------
# Simulator conservation laws
# ---------------------------------------------------------------------------
def _poisson_requests(rate, duration, seed):
    rng = np.random.default_rng(seed)
    sampler = RequestSampler(seed=seed)
    t, arrivals = 0.0, []
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            break
        arrivals.append(t)
    return sampler.sample_many(arrivals)


class TestSimulatorConservation:
    @settings(max_examples=8, deadline=None)
    @given(st.floats(min_value=0.05, max_value=2.0),
           st.integers(min_value=0, max_value=1000))
    def test_requests_conserved(self, rate, seed):
        """Every offered request is either served or dropped."""
        requests = _poisson_requests(rate, 240.0, seed)
        config = ClusterConfig(n_base_servers=6, seed=seed)
        result = ClusterSimulator(config, NoCapPolicy()).run(requests, 240.0)
        accounted = sum(
            m.served + m.dropped for m in result.per_priority.values()
        )
        assert accounted == len(requests)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_power_within_physical_bounds(self, seed):
        requests = _poisson_requests(0.5, 240.0, seed)
        config = ClusterConfig(n_base_servers=6, seed=seed)
        simulator = ClusterSimulator(config, NoCapPolicy())
        result = simulator.run(requests, 240.0)
        model = simulator.servers[0].power_model
        floor = config.n_servers * model.server_power(0.0, 1.0)
        ceiling = config.n_servers * model.server_power(1.0, 1.0)
        assert result.power_series.trough() >= floor - 1e-6
        assert result.power_series.peak() <= ceiling + 1e-6

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_latencies_nonnegative_and_finite(self, seed):
        requests = _poisson_requests(0.5, 240.0, seed)
        config = ClusterConfig(n_base_servers=6, seed=seed)
        result = ClusterSimulator(config, NoCapPolicy()).run(requests, 240.0)
        for metrics in result.per_priority.values():
            for latency in metrics.latencies:
                assert 0.0 < latency < 1e5


# ---------------------------------------------------------------------------
# Capping can only slow the cluster down, never break accounting
# ---------------------------------------------------------------------------
class TestCappingMonotonicity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_polca_never_loses_requests(self, seed):
        requests = _poisson_requests(1.0, 400.0, seed)
        config = ClusterConfig(n_base_servers=6, seed=seed)
        capped = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, 400.0
        )
        accounted = sum(
            m.served + m.dropped for m in capped.per_priority.values()
        )
        assert accounted == len(requests)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_polca_power_never_exceeds_uncapped_peak(self, seed):
        requests = _poisson_requests(1.0, 400.0, seed)
        config = ClusterConfig(n_base_servers=6, seed=seed)
        free = ClusterSimulator(config, NoCapPolicy()).run(requests, 400.0)
        capped = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, 400.0
        )
        # Identical load; capping may shift power in time but the capped
        # run's peak cannot exceed the uncapped ceiling by more than the
        # telemetry sampling jitter.
        assert capped.power_series.peak() <= \
            free.power_series.peak() * 1.05


# ---------------------------------------------------------------------------
# Attribution decomposition is conservative under arbitrary faults
# ---------------------------------------------------------------------------
def _random_fault_plan(draw_noise, dropout_start, dropout_len, churn_rate,
                       actuation_fail, seed):
    from repro.faults import (
        ActuationFaultSpec,
        ChurnSpec,
        FaultPlan,
        TelemetryFaultSpec,
    )

    return FaultPlan(
        telemetry=TelemetryFaultSpec(
            noise_std=draw_noise,
            dropout_windows=(
                (dropout_start, dropout_start + dropout_len),
            ) if dropout_len >= 1.0 else (),
        ),
        actuation=ActuationFaultSpec(silent_failure_rate=actuation_fail),
        churn=ChurnSpec(failures_per_hour=churn_rate),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Power-delivery protection: accumulators and the exact energy ledger
# ---------------------------------------------------------------------------
def _random_topology(n_servers, servers_per_rack, spec=None):
    from repro.powerfail import PowerTopology, ProtectionSpec, TripCurve

    spec = spec or ProtectionSpec(
        servers_per_rack=servers_per_rack,
        rack_headroom=1.05,
        server_headroom=1.2,
        curve=TripCurve(tau_trip_s=5.0, tau_cool_s=60.0),
        cooldown_s=10.0,
        restore_batch=1,
        restore_stagger_s=5.0,
    )
    return PowerTopology.build(
        n_servers=n_servers,
        provisioned_power_w=1000.0 * n_servers,
        peak_server_w=1000.0,
        spec=spec,
    ), spec


_LEDGER_DURATION = 700.0
_LEDGER_HORIZON = 800.0
# Subnormal, tiny, huge and zero powers next to ordinary ones.
_LEDGER_POWERS = st.one_of(
    st.floats(min_value=0.0, max_value=3000.0),
    st.sampled_from([
        0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 2.0 ** 60,
        1e300,
    ]),
)
# Repeated times, the horizon itself, and times past it.
_LEDGER_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=_LEDGER_HORIZON),
    st.sampled_from([
        0.0, 5e-324, 1.0, 350.0, _LEDGER_DURATION, _LEDGER_DURATION + 50.0,
    ]),
)


class _ReferenceLedger:
    """The exact energy ledger, kept independently in plain Fractions.

    Each device integrates the exact sum of its servers' most recently
    applied powers over ``[0, duration_s]``.
    """

    def __init__(self, topology, duration_s, initial_powers):
        self.duration = Fraction(duration_s)
        self.chains = topology.chains
        self.server = [Fraction(p) for p in initial_powers]
        self.power = {
            d.device_id: sum(
                (self.server[i] for i in d.servers), Fraction(0)
            )
            for d in topology.devices
        }
        self.energy = {d.device_id: Fraction(0) for d in topology.devices}
        self.since = {d.device_id: Fraction(0) for d in topology.devices}

    def settle(self, device_id, t):
        t = min(Fraction(t), self.duration)
        if t > self.since[device_id]:
            self.energy[device_id] += (
                self.power[device_id] * (t - self.since[device_id])
            )
            self.since[device_id] = t

    def set_power(self, t, index, power):
        delta = Fraction(power) - self.server[index]
        self.server[index] = Fraction(power)
        for device_id in self.chains[index]:
            self.settle(device_id, t)
            self.power[device_id] += delta


def _check_ledger_against_reference(
    n_servers, servers_per_rack, initial, updates
):
    """Drive a runtime and a :class:`_ReferenceLedger` with the same
    power changes; assert they agree exactly. Returns the report."""
    from repro.powerfail.protection import ProtectionRuntime

    topology, spec = _random_topology(n_servers, servers_per_rack)
    initial_powers = [initial] * n_servers
    runtime = ProtectionRuntime(
        topology, spec, duration_s=_LEDGER_DURATION,
        initial_powers=initial_powers,
    )
    reference = _ReferenceLedger(topology, _LEDGER_DURATION, initial_powers)
    update = runtime.update_server_power

    def audited_update(t, index, power):
        reference.set_power(t, index, power)
        return update(t, index, power)

    # Every change the drive loop applies (scheduled, trip drains and
    # staged restores) reaches both ledgers.
    runtime.update_server_power = audited_update
    report = _drive_protection(runtime, updates, horizon=_LEDGER_HORIZON)

    devices = topology.devices
    for device in devices:
        reference.settle(device.device_id, _LEDGER_DURATION)
        assert runtime.exact_energy_j(device.device_id) == \
            reference.energy[device.device_id], device.device_id
    row = reference.energy["row"]
    racks = sum(reference.energy[d.device_id] for d in devices
                if d.level == "rack")
    servers = sum(reference.energy[d.device_id] for d in devices
                  if d.level == "server")
    assert row == racks == servers
    assert report.energy_row_j.hex() == float(row).hex()
    assert report.energy_racks_j.hex() == float(racks).hex()
    assert report.energy_servers_j.hex() == float(servers).hex()
    assert report.energy_conserved_exactly
    return report


def _drive_protection(runtime, updates, horizon, idle_w=100.0):
    """A miniature event loop around :class:`ProtectionRuntime`.

    Plays a schedule of server power changes against the runtime the
    same way the simulator does — projection events fire in time order,
    trips drain their subtree to zero, restores re-power at idle —
    while asserting, at every event time, that no device's settled
    accumulator is ever negative.
    """
    import heapq
    import math

    heap, seq = [], 0

    def push(items):
        nonlocal seq
        for fire_t, payload in items:
            heapq.heappush(heap, (fire_t, seq, payload))
            seq += 1

    push(runtime.initial_events())
    cursor = 0
    while True:
        update_t = updates[cursor][0] if cursor < len(updates) else math.inf
        event_t = heap[0][0] if heap else math.inf
        t = min(update_t, event_t)
        if t > horizon or t == math.inf:
            break
        if update_t <= event_t:
            _, index, power = updates[cursor]
            cursor += 1
            if not runtime.is_deenergized(index):
                push(runtime.update_server_power(t, index, power))
        else:
            _, _, payload = heapq.heappop(heap)
            if payload[0] == "prot":
                outcome = runtime.on_projection(
                    t, payload[1], payload[2], payload[3]
                )
                if outcome is None:
                    continue
                fired, _info, pushes = outcome
                push(pushes)
                if fired == "trip":
                    for index in runtime.begin_trip(payload[1], t):
                        push(runtime.update_server_power(t, index, 0.0))
                    _record, restore = runtime.commit_trip(
                        payload[1], t, dropped=0
                    )
                    push([restore])
            elif payload[0] == "prot_restore":
                outcome = runtime.restore_step(
                    payload[1], payload[2], payload[3], t
                )
                if outcome is None:
                    continue
                restored, next_push, _done = outcome
                for index in restored:
                    push(runtime.update_server_power(t, index, idle_w))
                if next_push is not None:
                    push([next_push])
        for device in runtime.topology.devices:
            assert runtime.accumulator(device.device_id, t) >= 0.0
    return runtime.finalize(horizon)


class TestProtectionProperties:
    @settings(max_examples=40)
    @given(
        n_servers=st.integers(min_value=1, max_value=24),
        servers_per_rack=st.integers(min_value=1, max_value=6),
    )
    def test_random_topology_is_a_partition(
        self, n_servers, servers_per_rack
    ):
        """Racks partition the row; every chain runs fuse → rack → row."""
        topology, _spec = _random_topology(n_servers, servers_per_rack)
        by_id = topology.by_id
        row = by_id["row"]
        assert row.servers == tuple(range(n_servers))
        racks = [d for d in topology.devices if d.level == "rack"]
        covered = sorted(i for rack in racks for i in rack.servers)
        assert covered == list(range(n_servers))
        assert all(d.capacity_w > 0 for d in topology.devices)
        for index, chain in enumerate(topology.chains):
            fuse, rack, top = (by_id[device_id] for device_id in chain)
            assert fuse.servers == (index,)
            assert index in rack.servers and top is row
            assert fuse.parent == rack.device_id
            assert rack.parent == "row"

    @settings(max_examples=25, deadline=None)
    @given(
        n_servers=st.integers(min_value=1, max_value=10),
        servers_per_rack=st.integers(min_value=1, max_value=4),
        schedule=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=600.0),
                st.integers(min_value=0, max_value=9),
                st.floats(min_value=0.0, max_value=3000.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_accumulators_never_negative_and_energy_conserved(
        self, n_servers, servers_per_rack, schedule
    ):
        """Any power schedule — including ones hot enough to trip fuses,
        racks, and the row — leaves every accumulator non-negative and
        the exact energy ledger balanced: row == Σracks == Σfuses in ℚ,
        across any pattern of trips and staged restores."""
        from repro.powerfail.protection import ProtectionRuntime

        topology, spec = _random_topology(n_servers, servers_per_rack)
        updates = sorted(
            (t, index % n_servers, power) for t, index, power in schedule
        )
        runtime = ProtectionRuntime(
            topology, spec, duration_s=700.0,
            initial_powers=[100.0] * n_servers,
        )
        report = _drive_protection(runtime, updates, horizon=700.0)
        assert report.peak_accumulator >= 0.0
        assert report.cascade_trips <= report.trips
        assert report.reenergizations <= report.trips
        assert report.offline_server_seconds >= 0.0
        assert report.energy_conserved_exactly
        assert report.energy_row_j == report.energy_racks_j
        assert report.energy_racks_j == report.energy_servers_j

    @settings(max_examples=40, deadline=None)
    @given(
        n_servers=st.integers(min_value=1, max_value=6),
        servers_per_rack=st.integers(min_value=1, max_value=4),
        initial=_LEDGER_POWERS,
        schedule=st.lists(
            st.tuples(
                _LEDGER_TIMES,
                st.integers(min_value=0, max_value=9),
                _LEDGER_POWERS,
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_energy_ledger_matches_a_fraction_reference(
        self, n_servers, servers_per_rack, initial, schedule
    ):
        """Every device's exact energy equals an independent Fraction
        ledger, and the reported totals are its floats bit for bit —
        for subnormal and huge powers, zero power, repeated times,
        times at and past the horizon, and trips mid-sequence."""
        updates = sorted(
            (t, index % n_servers, power) for t, index, power in schedule
        )
        _check_ledger_against_reference(
            n_servers, servers_per_rack, initial, updates
        )

    def test_energy_ledger_reference_edge_cases(self):
        """The edge cases in one schedule, with a trip mid-sequence."""
        updates = [
            (0.0, 0, 0.0),
            (0.0, 1, 5e-324),
            (1.0, 2, 1e300),
            (1.0, 2, 1.0),                # float mirror rounds to 0.0
            (1.0, 1, 2.2250738585072014e-308),
            (2.0, 2, 0.0),                # equals the mirror, not 1.0
            (5e-324, 3, 150.0),
            (350.0, 0, 2500.0),           # fuse trips mid-run
            (350.0, 3, 0.1),
            (_LEDGER_DURATION, 1, 900.0),
            (_LEDGER_DURATION + 50.0, 3, 2999.5),
        ]
        report = _check_ledger_against_reference(
            4, 2, 100.0, sorted(updates)
        )
        assert report.trips >= 2

    @pytest.mark.parametrize("device_id", ["fuse3", "rack1", "row"])
    def test_tampered_ledger_breaks_conservation(self, device_id):
        """The conservation check is not vacuous: one unit in the last
        place of any one device's exact energy makes it fail, so no
        level's total is derived from its children."""
        from repro.powerfail.protection import ProtectionRuntime

        def run(tamper):
            topology, spec = _random_topology(4, 2)
            runtime = ProtectionRuntime(
                topology, spec, duration_s=_LEDGER_DURATION,
                initial_powers=[100.0] * 4,
            )
            for t, index, power in [(1.0, 0, 400.25), (2.5, 3, 0.0),
                                    (9.0, 0, 3.0)]:
                runtime.update_server_power(t, index, power)
            if tamper:
                runtime._states[device_id].energy_n += 1
            return runtime.finalize(_LEDGER_DURATION)

        assert run(tamper=False).energy_conserved_exactly
        assert not run(tamper=True).energy_conserved_exactly

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_protected_run_conserves_requests_across_trips(self, seed):
        """With a deliberately fragile topology the simulator still
        accounts for every request per priority *and* workload tier —
        the end-of-run conservation invariant raises if a trip loses
        one — and the energy ledger stays exact."""
        from repro.powerfail import ProtectionSpec, TripCurve

        requests = _poisson_requests(1.5, 240.0, seed)
        config = ClusterConfig(
            n_base_servers=4, added_fraction=0.5, seed=seed,
            protection=ProtectionSpec(
                servers_per_rack=2,
                row_headroom=0.55,
                rack_headroom=1.02,
                curve=TripCurve(tau_trip_s=5.0, tau_cool_s=60.0),
                cooldown_s=20.0,
                restore_stagger_s=2.0,
            ),
        )
        result = ClusterSimulator(config, NoCapPolicy()).run(
            requests, 240.0
        )
        accounted = sum(
            m.served + m.dropped for m in result.per_priority.values()
        )
        assert accounted == len(requests)
        by_workload = sum(
            m.served + m.dropped for m in result.per_workload.values()
        )
        assert by_workload == len(requests)
        assert result.powerfail is not None
        assert result.powerfail.energy_conserved_exactly


class TestAttributionConservation:
    """Random faulted workloads: the causal decomposition is exact.

    The span layer's counterfactual accounting must be *conservative*
    under any fault plan, load level, or policy: the five components sum
    to the realized latency exactly (Fraction arithmetic, no tolerance),
    no component is negative, and every request the simulator finished
    is attributed (no unfinished spans on a complete trace).
    """

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=0.2, max_value=2.5),
        seed=st.integers(min_value=0, max_value=10_000),
        noise=st.floats(min_value=0.0, max_value=0.05),
        dropout_start=st.floats(min_value=0.0, max_value=120.0),
        dropout_len=st.floats(min_value=0.0, max_value=120.0),
        churn_rate=st.floats(min_value=0.0, max_value=30.0),
        actuation_fail=st.floats(min_value=0.0, max_value=0.3),
        use_polca=st.booleans(),
    )
    def test_decomposition_is_exact_and_nonnegative(
        self, rate, seed, noise, dropout_start, dropout_len, churn_rate,
        actuation_fail, use_polca,
    ):
        from fractions import Fraction

        from repro.faults import ReliabilityConfig
        from repro.obs import COMPONENTS, SpanBuilder, attribute_run

        plan = _random_fault_plan(
            noise, dropout_start, dropout_len, churn_rate,
            actuation_fail, seed,
        )
        requests = _poisson_requests(rate, 240.0, seed)
        config = ClusterConfig(
            n_base_servers=6, seed=seed, fault_plan=plan,
            reliability=ReliabilityConfig(
                fallback_after_ticks=3, brake_after_stale_s=20.0
            ),
        )
        policy = DualThresholdPolicy() if use_polca else NoCapPolicy()
        builder = SpanBuilder()
        result = ClusterSimulator(config, policy, recorder=builder).run(
            requests, 240.0
        )
        report = attribute_run(builder)
        assert report.unfinished == 0
        assert report.latency_mismatches == 0
        assert len(report.requests) == result.total_served
        assert report.dropped == sum(
            m.dropped for m in result.per_priority.values()
        )
        for request in report.requests:
            total = sum(
                (request.exact[name] for name in COMPONENTS), Fraction(0)
            )
            assert total == request.exact_realized
            for name in COMPONENTS:
                assert request.exact[name] >= 0
            assert request.exact_excess >= 0
