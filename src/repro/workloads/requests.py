"""Sampling concrete requests from the workload mix.

Combines the Table 6 mix (which workload, which priority) with per-request
prompt/output sizes drawn uniformly from the workload's ranges, producing
the request stream the POLCA simulator serves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import Priority, TABLE6_MIX, WorkloadSpec


@dataclass(frozen=True)
class SampledRequest:
    """One concrete inference request in the cluster trace.

    Attributes:
        arrival_time: Arrival time in seconds from trace start.
        workload: The Table 6 workload it belongs to.
        priority: Its priority tier.
        input_tokens: Sampled prompt length.
        output_tokens: Sampled output length.
    """

    arrival_time: float
    workload: WorkloadSpec
    priority: Priority
    input_tokens: int
    output_tokens: int


#: A request without its arrival time: workload, priority, input and
#: output tokens (the trailing fields of :class:`SampledRequest`).
RequestAttributes = Tuple[WorkloadSpec, Priority, int, int]


@dataclass
class RequestSampler:
    """Draws workloads, priorities, and sizes per Table 6.

    The workload pick is inverse-CDF sampling on one uniform draw against
    a cumulative share table built once — the ``cumsum`` / ``random`` /
    ``searchsorted(side="right")`` that ``Generator.choice(n, p=shares)``
    performs internally — so the index and the generator state match a
    ``choice`` call draw for draw.

    Attributes:
        mix: The workload mix; shares must sum to 1.
        seed: RNG seed.
    """

    mix: Sequence[WorkloadSpec] = TABLE6_MIX
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _cdf: List[float] = field(init=False, repr=False)
    _rows: List[Tuple[WorkloadSpec, float, int, int, int, int]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        total_share = sum(w.share for w in self.mix)
        if abs(total_share - 1.0) > 1e-9:
            raise ConfigurationError(
                f"workload shares sum to {total_share}, expected 1.0"
            )
        self._rng = np.random.default_rng(self.seed)
        cdf = np.cumsum([w.share for w in self.mix], dtype=float)
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._rows = [
            (w, w.high_priority_probability,
             w.prompt_range[0], w.prompt_range[1] + 1,
             w.output_range[0], w.output_range[1] + 1)
            for w in self.mix
        ]

    def draw(self, n: int) -> List[RequestAttributes]:
        """The next ``n`` requests' attributes, in draw order.

        Per request: one uniform for the workload, one for the priority,
        then the prompt and output sizes.
        """
        random = self._rng.random
        integers = self._rng.integers
        cdf, rows = self._cdf, self._rows
        high, low = Priority.HIGH, Priority.LOW
        drawn: List[RequestAttributes] = []
        for _ in range(n):
            workload, p_high, lo_p, hi_p, lo_o, hi_o = rows[
                bisect_right(cdf, random())
            ]
            drawn.append((
                workload,
                high if random() < p_high else low,
                int(integers(lo_p, hi_p)),
                int(integers(lo_o, hi_o)),
            ))
        return drawn

    def sample(self, arrival_time: float) -> SampledRequest:
        """Sample one request arriving at ``arrival_time``."""
        return SampledRequest(arrival_time, *self.draw(1)[0])

    def sample_many(self, arrival_times: Sequence[float]) -> List[SampledRequest]:
        """Sample one request per arrival time."""
        return [
            SampledRequest(t, *attributes)
            for t, attributes in zip(arrival_times,
                                     self.draw(len(arrival_times)))
        ]

    def expected_priority_split(self) -> float:
        """Expected fraction of high-priority requests (0.5 for Table 6)."""
        return sum(w.share * w.high_priority_probability for w in self.mix)


class RequestStream:
    """One sampler seed's Table 6 request attributes, drawn once and
    shared.

    A request's workload, priority and sizes never depend on its arrival
    time, so every trace sampled with the same sampler seed gives its
    ``i``-th arrival the ``i``-th draw: a trace with fewer arrivals takes
    a prefix of the attributes of one with more. The stream draws each
    attribute once, extends on demand, and stamps arrival times on the
    shared prefix; :meth:`requests` on a fresh stream equals
    :meth:`RequestSampler.sample_many` on a fresh sampler.

    Attributes:
        seed: The sampler seed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._sampler = RequestSampler(seed=seed)
        self._drawn: List[RequestAttributes] = []

    def __len__(self) -> int:
        return len(self._drawn)

    def requests(self, arrival_times: Sequence[float]) -> List[SampledRequest]:
        """One request per arrival time, attributes in stream order."""
        missing = len(arrival_times) - len(self._drawn)
        if missing > 0:
            self._drawn.extend(self._sampler.draw(missing))
        return [
            SampledRequest(t, *attributes)
            for t, attributes in zip(arrival_times, self._drawn)
        ]
