"""The benchmark's correctness gate.

Every run is checked three ways:

* its result fingerprint, the sha256 of the canonical
  ``repro.exec.codec.result_to_dict`` payload with ``schema`` and
  ``observability`` dropped (as ``tests/test_golden_parity.py`` compares
  results), must equal the reference: the pinned value for a pinned
  seed and horizon, otherwise the first repetition's value or, for the
  incremental workload, a plain serial pass over the same specs;
* served + dropped must equal the requests offered, counted from the
  trace, per priority and per workload tier;
* for a recorded run, the spooled segment's kept-event count and the
  sampler's drop census must equal the reference, and every served and
  dropped request must appear in the trace or in the census.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.metrics import SimulationResult
from repro.exec.codec import result_to_dict

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def fingerprint(result: SimulationResult) -> str:
    """sha256 of the result's canonical JSON, minus schema/observability."""
    payload = result_to_dict(result)
    payload.pop("schema")
    payload.pop("observability")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation_errors(
    result: SimulationResult,
    offered: Tuple[Dict[str, int], Dict[str, int]],
) -> List[str]:
    """Tiers where served + dropped differs from the trace's offer."""
    by_priority, by_tier = offered
    errors = []
    seen = {p.value: m for p, m in result.per_priority.items()}
    for name, want in sorted(by_priority.items()):
        tier = seen.get(name)
        got = tier.served + tier.dropped if tier is not None else 0
        if got != want:
            errors.append(f"priority {name}: served+dropped {got} != "
                          f"offered {want}")
    for name, want in sorted(by_tier.items()):
        tier = result.per_workload.get(name)
        got = tier.served + tier.dropped if tier is not None else 0
        if got != want:
            errors.append(f"tier {name}: served+dropped {got} != "
                          f"offered {want}")
    return errors


def segment_counts(
    result: SimulationResult, segment: Path
) -> Tuple[Dict[str, Any], List[str]]:
    """The recorded run's trace counts, and census inconsistencies.

    ``kept`` is the number of events in the spooled segment and
    ``dropped_by_kind`` the sampler's exact census. Each served request
    emits one ``serve`` event and each dropped one a ``drop`` event, so
    the kept serve events plus the sampled-out ones must equal the
    result's served total, and the kept drop events its dropped total.
    """
    errors: List[str] = []
    if not segment.exists():
        return {}, [f"no trace segment {segment.name}"]
    kept = 0
    by_kind: Dict[str, int] = {}
    with segment.open(encoding="utf-8") as handle:
        for line in handle:
            kind = json.loads(line).get("kind")
            by_kind[kind] = by_kind.get(kind, 0) + 1
            kept += 1
    sampling = (result.observability or {}).get("trace_sampling") or {}
    dropped = dict(sampling.get("dropped_by_kind", {}))
    served = sum(m.served for m in result.per_priority.values())
    lost = sum(m.dropped for m in result.per_priority.values())
    if by_kind.get("serve", 0) + dropped.get("serve", 0) != served:
        errors.append(
            f"serve census: {by_kind.get('serve', 0)} kept + "
            f"{dropped.get('serve', 0)} sampled out != {served} served"
        )
    if by_kind.get("drop", 0) + dropped.get("drop", 0) != lost:
        errors.append(
            f"drop census: {by_kind.get('drop', 0)} kept + "
            f"{dropped.get('drop', 0)} sampled out != {lost} dropped"
        )
    counts = {
        "kept": kept,
        "dropped_by_kind": dropped,
        "bytes": segment.stat().st_size,
    }
    return counts, errors


def load_pins() -> Dict[str, Any]:
    if not PINS_PATH.exists():
        return {}
    with PINS_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def pinned(
    pins: Dict[str, Any], group: str, seed: int, sim_hours: float
) -> Optional[List[Dict[str, Any]]]:
    """The pinned per-run references of a workload group, if any."""
    if float(pins.get("sim_hours", -1.0)) != float(sim_hours):
        return None
    return pins.get(group, {}).get(str(seed))


def reference_errors(
    check: Dict[str, Any], reference: Dict[str, Any]
) -> List[str]:
    """Differences between one run's check record and its reference.

    Only the keys the reference holds are compared; ``bytes`` is never
    pinned, since JSON text length is not part of the contract.
    """
    errors = []
    for key, want in sorted(reference.items()):
        got = check.get(key)
        if got != want:
            errors.append(f"{key}: got {got!r}, want {want!r}")
    return errors
