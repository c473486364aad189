"""Process-wide, bounded caches for the synthetic trace pipeline.

Trace generation is deterministic in ``(seed, n_servers, provisioned
power, duration)``, so request traces can be shared by *key* rather than
by object: every harness, sweep, and worker process asking for the same
deployment gets the identical (cached) trace. This replaces the old
per-harness ``_requests_cache`` dict, which grew without bound and could
not share work between harness instances — and it is what lets
:class:`~repro.exec.runspec.RunSpec` stay cheaply picklable: specs carry
the key, and each worker process materializes (and then reuses) the
trace locally.

Every synthetic trace of one seed also shares one
:class:`~repro.workloads.requests.RequestStream`: request attributes
never depend on arrival times, so the deployment sizes of a sweep draw
them once, in one order, and a trace's requests are the same whichever
size is synthesized first.

The caches are small LRUs: a sweep touches a handful of deployment
sizes, so a few entries give a 100% hit rate while keeping long-lived
processes bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.timeseries import TimeSeries
from repro.errors import ConfigurationError
from repro.workloads.replay import TraceSource, apply_flash_crowd
from repro.workloads.requests import RequestStream, SampledRequest
from repro.workloads.tracegen import (
    INFERENCE_PROVISIONED_PER_SERVER_W,
    ProductionTraceModel,
    SyntheticTraceGenerator,
)

#: Entries kept per cache; a Figure 13-18 grid needs at most a handful.
_MAX_TRACES = 16


@dataclass(frozen=True)
class TraceKey:
    """Everything the request-trace synthesis depends on.

    Attributes:
        seed: Trace-generation seed (shared with the simulation seed by
            the evaluation harness).
        n_servers: Deployed server count; offered load scales with it.
        provisioned_per_server_w: Breaker budget per designed slot.
        duration_s: Trace duration in seconds.
        source: Where the trace comes from — ``None`` for the default
            synthetic pipeline, or a replay descriptor (Azure CSV,
            session workload, flash-crowd overlay). Part of the key:
            the same deployment replaying different traces caches
            different request streams.
    """

    seed: int
    n_servers: int
    provisioned_per_server_w: float = INFERENCE_PROVISIONED_PER_SERVER_W
    duration_s: float = 0.0
    source: Optional[TraceSource] = None

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ConfigurationError("n_servers must be positive")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")


_utilization_traces: "OrderedDict[Tuple[int, float], TimeSeries]" = (
    OrderedDict()
)
_request_streams: "OrderedDict[int, RequestStream]" = OrderedDict()
_request_traces: "OrderedDict[TraceKey, List[SampledRequest]]" = OrderedDict()


def _remember(cache: "OrderedDict", key: object, value: object) -> None:
    """Insert into a bounded LRU, evicting the oldest entries."""
    cache[key] = value
    while len(cache) > _MAX_TRACES:
        cache.popitem(last=False)


def utilization_trace(seed: int, duration_s: float) -> TimeSeries:
    """The production-style target utilization trace (cached by key)."""
    key = (seed, duration_s)
    cached = _utilization_traces.get(key)
    if cached is not None:
        _utilization_traces.move_to_end(key)
        return cached
    trace = ProductionTraceModel(seed=seed).generate(duration_s=duration_s)
    _remember(_utilization_traces, key, trace)
    return trace


def request_stream(sampler_seed: int) -> RequestStream:
    """The request-attribute draws of one sampler seed (cached, shared
    by every synthetic trace that samples with it)."""
    cached = _request_streams.get(sampler_seed)
    if cached is not None:
        _request_streams.move_to_end(sampler_seed)
        return cached
    stream = RequestStream(sampler_seed)
    _remember(_request_streams, sampler_seed, stream)
    return stream


def _synthetic_requests(key: TraceKey) -> List[SampledRequest]:
    """The default MAPE-validated synthetic request trace."""
    generator = SyntheticTraceGenerator(
        n_servers=key.n_servers,
        provisioned_per_server_w=key.provisioned_per_server_w,
        seed=key.seed,
    )
    synthetic = generator.generate(
        utilization_trace(key.seed, key.duration_s),
        request_stream(generator.sampler_seed),
    )
    synthetic.validate()
    return synthetic.requests


def requests_for(key: TraceKey) -> List[SampledRequest]:
    """The request trace for one deployment (cached).

    Dispatches on the key's :attr:`~TraceKey.source`: ``None`` runs the
    synthetic pipeline (load scales with the deployed server count so
    per-server utilization stays on the production pattern); a replay
    source materializes its CSV window or session workload instead —
    hash-verified against the spec's pinned sha256 — and a burst
    overlay applies on top of whichever base was produced. Every path
    lands in the same process-wide LRU, so serial, parallel-worker,
    cached, and incremental executions all replay the identical stream.
    """
    cached = _request_traces.get(key)
    if cached is not None:
        _request_traces.move_to_end(key)
        return cached
    if key.source is None:
        requests = _synthetic_requests(key)
    else:
        base = key.source.base_requests(key.duration_s)
        if base is None:  # burst overlay on the synthetic pipeline
            base = _synthetic_requests(key)
        if key.source.burst is not None:
            base = apply_flash_crowd(base, key.source.burst, key.duration_s)
        requests = base
    _remember(_request_traces, key, requests)
    return requests


def cache_sizes() -> Dict[str, int]:
    """Current entry counts (observability for tests and tuning)."""
    return {
        "utilization_traces": len(_utilization_traces),
        "request_streams": len(_request_streams),
        "request_traces": len(_request_traces),
    }


def clear_caches() -> None:
    """Drop every cached trace (mainly for tests)."""
    _utilization_traces.clear()
    _request_streams.clear()
    _request_traces.clear()
