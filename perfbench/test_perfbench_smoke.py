"""Smoke test of the benchmark itself, at a short simulated horizon.

Runs every workload untraced and traced through the command line and
checks the output contract against ``BENCHMARK.json``, then shows that
the correctness gate rejects tampered results and trace segments, and
that the benchmark refuses to run without the program's sources.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_HOURS = "0.25"

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace), "--hours", SMOKE_HOURS],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in SPEC["workloads"]]
)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    assert "host {" in proc.stdout


def test_gate_rejects_tampered_results(tmp_path):
    import gate
    import workloads

    workload = workloads.BrakeStorm(seed=1, sim_hours=0.1)
    workload.synthesize()
    outcomes = workload.run_rep(tmp_path / "spool").outcomes
    offered = workloads.offered_by_key([o.spec for o in outcomes])
    outcome = outcomes[0]
    result = outcome.result
    counts, census = gate.segment_counts(result, outcome.segment)
    reference = dict(counts, fingerprint=gate.fingerprint(result))
    assert census == []
    assert gate.conservation_errors(
        result, offered[outcome.spec.trace_key()]) == []

    # One latency nudged by an ulp changes the fingerprint.
    tier = next(m for m in result.per_priority.values() if m.latencies)
    tier.latencies[0] += tier.latencies[0] * 2.0 ** -52
    check = dict(counts, fingerprint=gate.fingerprint(result))
    assert gate.reference_errors(check, reference)

    # A request that vanishes breaks conservation.
    tier.served -= 1
    assert gate.conservation_errors(result, offered[outcome.spec.trace_key()])

    # A segment missing one event breaks the census and the pinned count.
    tier.served += 1
    lines = outcome.segment.read_text(encoding="utf-8").splitlines(True)
    serve = next(i for i, line in enumerate(lines) if '"serve"' in line)
    outcome.segment.write_text("".join(lines[:serve] + lines[serve + 1:]),
                               encoding="utf-8")
    counts, census = gate.segment_counts(result, outcome.segment)
    assert census
    assert gate.reference_errors(dict(counts, fingerprint=reference[
        "fingerprint"]), reference)


def test_gate_fingerprint_ignores_observability():
    import gate
    import workloads

    workload = workloads.Fig13Serial(seed=1, sim_hours=0.1)
    workload.synthesize()
    result = workload.run_rep().outcomes[0].result
    recorded = dataclasses.replace(result, observability={"any": 1})
    assert gate.fingerprint(recorded) == gate.fingerprint(result)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("fig13_serial", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
