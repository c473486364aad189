"""Workload mix, arrivals, request sampling, and SLO targets (Table 6)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.units import days
from repro.workloads.arrivals import DiurnalRateProfile, generate_arrivals
from repro.workloads.requests import RequestSampler, RequestStream
from repro.workloads.spec import (
    CHAT,
    Priority,
    SEARCH,
    SLO_TARGETS,
    SUMMARIZE,
    SloTargets,
    TABLE6_MIX,
    WorkloadSpec,
)


class TestTable6:
    def test_shares_sum_to_one(self):
        assert sum(w.share for w in TABLE6_MIX) == pytest.approx(1.0)

    def test_workload_ranges_match_table6(self):
        assert SUMMARIZE.prompt_range == (2048, 8192)
        assert SUMMARIZE.output_range == (256, 512)
        assert SEARCH.prompt_range == (512, 2048)
        assert SEARCH.output_range == (1024, 2048)
        assert CHAT.prompt_range == (2048, 4096)
        assert CHAT.output_range == (128, 2048)

    def test_priorities_match_table6(self):
        assert SUMMARIZE.high_priority_probability == 0.0   # Low
        assert SEARCH.high_priority_probability == 1.0      # High
        assert CHAT.high_priority_probability == 0.5        # 50:50

    def test_all_served_by_bloom(self):
        """Section 6.4: BLOOM-176B is the worst-case evaluation model."""
        assert all(w.model_name == "BLOOM-176B" for w in TABLE6_MIX)

    def test_slo_targets_match_table6(self):
        assert SLO_TARGETS[Priority.HIGH].p50_impact == 0.01
        assert SLO_TARGETS[Priority.HIGH].p99_impact == 0.05
        assert SLO_TARGETS[Priority.LOW].p50_impact == 0.05
        assert SLO_TARGETS[Priority.LOW].p99_impact == 0.50
        assert all(t.max_power_brakes == 0 for t in SLO_TARGETS.values())

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (0, 10), (1, 2), 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (1, 10), (1, 2), 1.5, 0.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (1, 10), (1, 2), 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            SloTargets(p50_impact=-0.1, p99_impact=0.1)


class TestDiurnalProfile:
    def test_rate_peaks_at_peak_hour(self):
        profile = DiurnalRateProfile(base_rate=1.0, noise_amplitude=0.0,
                                     weekly_amplitude=0.0, peak_hour=15.0)
        peak_rate = profile.rate(15 * 3600.0)
        trough_rate = profile.rate(3 * 3600.0)
        assert peak_rate > trough_rate
        assert peak_rate == pytest.approx(1.3, abs=0.01)

    def test_rates_vectorized_matches_scalar(self):
        profile = DiurnalRateProfile(base_rate=2.0)
        times = np.array([0.0, 3600.0, 86400.0])
        vector = profile.rates(times)
        scalar = [profile.rate(float(t)) for t in times]
        assert np.allclose(vector, scalar)

    def test_max_rate_dominates(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        times = np.linspace(0, days(7), 5000)
        assert profile.rates(times).max() <= profile.max_rate + 1e-9

    def test_rate_always_positive(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        times = np.linspace(0, days(7), 5000)
        assert (profile.rates(times) > 0).all()

    def test_excessive_amplitudes_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalRateProfile(base_rate=1.0, daily_amplitude=0.9,
                               weekly_amplitude=0.2)

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalRateProfile(base_rate=0.0)


class TestArrivalGeneration:
    def test_count_tracks_expected(self):
        profile = DiurnalRateProfile(base_rate=2.0, daily_amplitude=0.2,
                                     weekly_amplitude=0.05,
                                     noise_amplitude=0.02)
        arrivals = generate_arrivals(profile, 0.0, 3600.0, seed=0)
        expected = profile.rates(np.linspace(0, 3600.0, 720)).mean() * 3600.0
        assert len(arrivals) == pytest.approx(expected, rel=0.08)

    def test_sorted_and_in_window(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        arrivals = generate_arrivals(profile, 100.0, 500.0, seed=1)
        assert arrivals == sorted(arrivals)
        assert all(100.0 <= t < 500.0 for t in arrivals)

    def test_deterministic_for_seed(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        assert generate_arrivals(profile, 0, 600, seed=5) == \
            generate_arrivals(profile, 0, 600, seed=5)

    def test_empty_window_rejected(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        with pytest.raises(ConfigurationError):
            generate_arrivals(profile, 10.0, 10.0)


class TestRequestSampler:
    def test_sizes_within_workload_ranges(self):
        sampler = RequestSampler(seed=0)
        for request in sampler.sample_many(np.arange(500.0)):
            lo_p, hi_p = request.workload.prompt_range
            lo_o, hi_o = request.workload.output_range
            assert lo_p <= request.input_tokens <= hi_p
            assert lo_o <= request.output_tokens <= hi_o

    def test_mix_ratios_converge(self):
        sampler = RequestSampler(seed=1)
        requests = sampler.sample_many(np.arange(4000.0))
        shares = {
            name: sum(1 for r in requests if r.workload.name == name) / 4000
            for name in ("Summarize", "Search", "Chat")
        }
        assert shares["Summarize"] == pytest.approx(0.25, abs=0.03)
        assert shares["Search"] == pytest.approx(0.25, abs=0.03)
        assert shares["Chat"] == pytest.approx(0.50, abs=0.03)

    def test_priority_split_is_50_50(self):
        sampler = RequestSampler(seed=2)
        assert sampler.expected_priority_split() == pytest.approx(0.5)
        requests = sampler.sample_many(np.arange(4000.0))
        high = sum(1 for r in requests if r.priority is Priority.HIGH)
        assert high / 4000 == pytest.approx(0.5, abs=0.03)

    def test_search_is_always_high_priority(self):
        sampler = RequestSampler(seed=3)
        requests = sampler.sample_many(np.arange(2000.0))
        assert all(
            r.priority is Priority.HIGH
            for r in requests if r.workload.name == "Search"
        )
        assert all(
            r.priority is Priority.LOW
            for r in requests if r.workload.name == "Summarize"
        )

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestSampler(mix=(SUMMARIZE, SEARCH))  # shares sum to 0.5


def choice_sampler(seed, mix, arrival_times):
    """The reference sampler: ``Generator.choice`` with the share list
    on every request. Returns the requests as tuples and the final
    bit-generator state."""
    rng = np.random.default_rng(seed)
    requests = []
    for t in arrival_times:
        shares = [w.share for w in mix]
        workload = mix[int(rng.choice(len(mix), p=shares))]
        is_high = rng.random() < workload.high_priority_probability
        lo_p, hi_p = workload.prompt_range
        lo_o, hi_o = workload.output_range
        requests.append((
            t, workload, Priority.HIGH if is_high else Priority.LOW,
            int(rng.integers(lo_p, hi_p + 1)),
            int(rng.integers(lo_o, hi_o + 1)),
        ))
    return requests, rng.bit_generator.state


def as_tuples(requests):
    return [
        (r.arrival_time, r.workload, r.priority, r.input_tokens,
         r.output_tokens)
        for r in requests
    ]


@st.composite
def mixes(draw):
    """Workload mixes: one workload, or up to four with uneven shares
    and odd ranges (width 0, width 1, wide)."""
    n = draw(st.integers(1, 4))
    weights = [draw(st.integers(1, 9)) for _ in range(n)]
    mix = []
    for i, weight in enumerate(weights):
        lo_p = draw(st.integers(1, 3000))
        lo_o = draw(st.integers(1, 500))
        mix.append(WorkloadSpec(
            name=f"w{i}",
            prompt_range=(lo_p, lo_p + draw(st.sampled_from((0, 1, 7, 4096)))),
            output_range=(lo_o, lo_o + draw(st.sampled_from((0, 1, 255)))),
            share=weight / sum(weights),
            high_priority_probability=draw(
                st.sampled_from((0.0, 0.5, 1.0, 0.3))),
        ))
    return tuple(mix)


class TestSamplerMatchesChoice:
    """The cumulative-table sampler draws exactly what ``choice`` did."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mix=st.one_of(st.just(TABLE6_MIX), mixes()),
        n=st.integers(0, 300),
        singles=st.integers(0, 5),
    )
    @example(seed=0, mix=TABLE6_MIX, n=0, singles=0)
    @example(seed=7, mix=(WorkloadSpec("solo", (1, 1), (3, 4), 1.0, 0.5),),
             n=50, singles=2)
    def test_requests_and_state_match(self, seed, mix, n, singles):
        times = [0.5 * i for i in range(n + singles)]
        expected, state = choice_sampler(seed, mix, times)
        sampler = RequestSampler(mix=mix, seed=seed)
        got = [sampler.sample(t) for t in times[:singles]]
        got += sampler.sample_many(times[singles:])
        assert as_tuples(got) == expected
        assert sampler._rng.bit_generator.state == state


class TestRequestStream:
    def test_fresh_stream_equals_sample_many(self):
        times = list(np.arange(700.0))
        stream = RequestStream(seed=4)
        assert as_tuples(stream.requests(times)) == as_tuples(
            RequestSampler(seed=4).sample_many(times))

    def test_shorter_traces_take_a_prefix(self):
        """Whatever order the lengths are asked in, request ``i`` of
        every trace carries the stream's ``i``-th attributes."""
        long_times = [2.0 * i for i in range(500)]
        short_times = [3.0 * i for i in range(120)]
        up, down = RequestStream(seed=9), RequestStream(seed=9)
        short_up = up.requests(short_times)
        long_up = up.requests(long_times)
        long_down = down.requests(long_times)
        short_down = down.requests(short_times)
        assert as_tuples(long_up) == as_tuples(long_down)
        assert as_tuples(short_up) == as_tuples(short_down)
        assert [a[1:] for a in as_tuples(short_up)] == [
            a[1:] for a in as_tuples(long_up)[:120]
        ]
        assert len(up) == len(down) == 500
        assert up.requests([]) == []
