"""Inference workloads: Table 6 mix, diurnal arrivals, synthetic traces.

POLCA's evaluation (Section 6.4) drives a simulated BLOOM-176B inference
cluster with a synthetic request trace generated to replicate a six-week
production power trace (MAPE within 3%). This package provides the
workload definitions (Table 6: Summarize/Search/Chat with priorities and
SLOs), the diurnal nonhomogeneous-Poisson arrival process, request
sampling, and the trace generator with its MAPE validation.
"""

from repro.workloads.spec import (
    CHAT,
    Priority,
    SEARCH,
    SUMMARIZE,
    SloTargets,
    TABLE6_MIX,
    WorkloadSpec,
)
from repro.workloads.arrivals import DiurnalRateProfile, generate_arrivals
from repro.workloads.replay import (
    BurstWindow,
    CsvReplaySpec,
    FlashCrowdSpec,
    SessionProfile,
    TraceSource,
)
from repro.workloads.requests import (
    RequestSampler,
    RequestStream,
    SampledRequest,
)
from repro.workloads.tracegen import (
    ProductionTraceModel,
    SyntheticTrace,
    SyntheticTraceGenerator,
)

__all__ = [
    "BurstWindow",
    "CHAT",
    "CsvReplaySpec",
    "DiurnalRateProfile",
    "FlashCrowdSpec",
    "Priority",
    "ProductionTraceModel",
    "RequestSampler",
    "RequestStream",
    "SEARCH",
    "SUMMARIZE",
    "SampledRequest",
    "SessionProfile",
    "SloTargets",
    "SyntheticTrace",
    "SyntheticTraceGenerator",
    "TABLE6_MIX",
    "TraceSource",
    "WorkloadSpec",
    "generate_arrivals",
]
