"""Flash-crowd burst profiles layered on any base request stream.

A flash crowd is the adversarial case for power oversubscription: the
diurnal model the thresholds were tuned on suddenly carries a multiple
of its ambient load (a product launch, a viral prompt). This module
injects that shape into *any* base trace — synthetic, replayed CSV, or
session traffic — by estimating the base arrival rate inside each burst
window and adding a nonhomogeneous-Poisson stream of extra requests
whose token shapes are resampled from the ambient traffic (a crowd
looks like the existing users, there are just more of them).

The overlay is deterministic per spec seed (one PCG64 stream, thinning
with a fixed draw order), so burst-augmented traces digest and replay
bit-identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.requests import SampledRequest


@dataclass(frozen=True)
class BurstWindow:
    """One flash-crowd episode.

    Attributes:
        start_s: Window start, seconds from trace start.
        duration_s: Window length.
        magnitude: Peak load multiplier (2.0 = twice the ambient rate
            at the plateau; must exceed 1).
        ramp_fraction: Fraction of the window spent ramping up and
            (again) ramping down, linearly — the trapezoid's sides.
    """

    start_s: float
    duration_s: float
    magnitude: float = 3.0
    ramp_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError("start_s must be >= 0")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.magnitude <= 1.0:
            raise ConfigurationError(
                f"magnitude must exceed 1, got {self.magnitude}"
            )
        if not 0.0 <= self.ramp_fraction <= 0.5:
            raise ConfigurationError("ramp_fraction outside [0, 0.5]")

    def shape(self, t: float) -> float:
        """The trapezoid envelope in [0, 1] at absolute time ``t``."""
        offset = t - self.start_s
        if offset < 0 or offset > self.duration_s:
            return 0.0
        ramp = self.ramp_fraction * self.duration_s
        if ramp > 0 and offset < ramp:
            return offset / ramp
        if ramp > 0 and offset > self.duration_s - ramp:
            return (self.duration_s - offset) / ramp
        return 1.0


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A full burst profile: episodes plus the overlay seed.

    Attributes:
        windows: The burst episodes (any overlap is additive).
        seed: Seed for the extra-arrival sampling.
    """

    windows: Tuple[BurstWindow, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.windows:
            raise ConfigurationError(
                "a flash-crowd spec needs at least one burst window"
            )


def apply_flash_crowd(
    base: Sequence[SampledRequest],
    spec: FlashCrowdSpec,
    duration_s: float,
) -> List[SampledRequest]:
    """The base trace plus the spec's extra flash-crowd arrivals.

    The ambient rate inside each window is measured from the base trace
    (falling back to the whole-trace mean for quiet windows); the extra
    stream adds ``(magnitude - 1) x ambient`` at the plateau. Token
    shapes, workloads, and priorities of extra requests are resampled
    uniformly from the base requests inside the window (or the whole
    trace when the window is empty). An empty base trace is returned
    unchanged — there is no ambient traffic to amplify.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    merged = list(base)
    if not merged:
        return merged
    rng = np.random.default_rng(spec.seed)
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    overall_rate = len(merged) / duration_s
    for window in spec.windows:
        lo = window.start_s
        hi = min(window.start_s + window.duration_s, duration_s)
        if hi <= lo:
            continue
        pool = [r for r in merged if lo <= r.arrival_time < hi]
        ambient = len(pool) / (hi - lo) if pool else overall_rate
        if not pool:
            pool = merged
        peak = (window.magnitude - 1.0) * ambient
        if peak <= 0:
            continue
        # Thinning against the constant majorant `peak`.
        scale = 1.0 / peak
        shape = window.shape
        n_pool = len(pool)
        t = lo
        while True:
            t += exponential(scale)
            if t >= hi:
                break
            accept = random()
            template = pool[int(integers(0, n_pool))]
            if accept < shape(t):
                merged.append(SampledRequest(
                    t, template.workload, template.priority,
                    template.input_tokens, template.output_tokens,
                ))
    merged.sort(key=lambda r: r.arrival_time)
    return merged
