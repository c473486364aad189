#!/usr/bin/env python3
"""The repository benchmark: one workload, timed end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig13_serial --seed 1 --seconds 30 --trace 0

Set-up (importing ``repro`` and synthesizing every trace the workload
replays) is timed once in this process and again in fresh interpreters,
and ``setup_s`` is the median. The timed phase then repeats the
workload (each repetition with a cold ``RunCache``) for ``--seconds``,
checks every run against the correctness gate (``gate.py``), and prints
the end-to-end metrics. With ``--trace 1`` repetitions alternate
between untraced and traced, the per-layer metrics come from the traced
ones (``layers.py``), and every span is written to
``perfbench/out/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
and ``failed`` count simulated runs; a run fails if it raises or fails
any gate check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Simulated hours per run; the pinned fingerprints hold at this horizon.
DEFAULT_HOURS = 6.0

#: Set-up samples per untraced run: this process plus fresh interpreters.
SETUP_SAMPLES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("traces.synth_s", "s"), ("traces.requests", "count"),
    ("cluster.loop_self_s", "s"), ("cluster.events", "count"),
    ("cluster.us_per_event", "us"),
    ("cluster.route_s", "s"), ("cluster.route_calls", "count"),
    ("cluster.start_s", "s"), ("cluster.finalize_s", "s"),
    ("cluster.kernel.arrival_s", "s"), ("cluster.kernel.tick_s", "s"),
    ("cluster.kernel.phase_s", "s"), ("cluster.kernel.other_s", "s"),
    ("control.decide_s", "s"), ("control.decide_calls", "count"),
    ("control.issue_s", "s"), ("control.issues", "count"),
    ("powerfail.update_s", "s"), ("powerfail.update_calls", "count"),
    ("powerfail.projection_s", "s"),
    ("powerfail.projection_calls", "count"),
    ("obs.emit_s", "s"), ("obs.emit_calls", "count"),
    ("obs.events_kept", "count"), ("obs.events_dropped", "count"),
    ("obs.keep_ratio", "ratio"), ("obs.spool_bytes", "B"),
    ("exec.engine_s", "s"), ("exec.digest_s", "s"), ("exec.cache_s", "s"),
    ("exec.ckpt_encode_s", "s"), ("exec.ckpt_count", "count"),
    ("exec.ckpt_bytes", "B"), ("exec.ckpt_restore_s", "s"),
    ("exec.ckpt_restores", "count"), ("exec.ckpt_use_ratio", "ratio"),
    ("exec.divergence_probe_s", "s"), ("exec.resumed_runs", "count"),
    ("exec.saved_sim_s", "sim_s"),
    ("trace.overhead_frac", "ratio"), ("trace.residual_frac", "ratio"),
)

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "cluster.loop": ("cluster.loop_self_s", None),
    "cluster.route": ("cluster.route_s", "cluster.route_calls"),
    "cluster.start": ("cluster.start_s", None),
    "cluster.finalize": ("cluster.finalize_s", None),
    "control.decide": ("control.decide_s", "control.decide_calls"),
    "control.issue": ("control.issue_s", "control.issues"),
    "powerfail.update": ("powerfail.update_s", "powerfail.update_calls"),
    "powerfail.projection": ("powerfail.projection_s",
                             "powerfail.projection_calls"),
    "obs.emit": ("obs.emit_s", "obs.emit_calls"),
    "exec.engine": ("exec.engine_s", None),
    "exec.digest": ("exec.digest_s", None),
    "exec.cache": ("exec.cache_s", None),
    "exec.ckpt_encode": ("exec.ckpt_encode_s", None),
    "exec.ckpt_restore": ("exec.ckpt_restore_s", None),
    "exec.divergence_probe": ("exec.divergence_probe_s", None),
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig13_serial", "fig13_incremental",
                                 "brake_storm"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced "
                             "repetitions")
    parser.add_argument("--hours", type=float, default=DEFAULT_HOURS,
                        help="simulated hours per run (the smoke test "
                             "uses a short horizon)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-pins", action="store_true",
                        help="record this seed's run fingerprints and "
                             "trace counts as the pinned references")
    return parser.parse_args(argv)


def setup(
    args: argparse.Namespace, traced: bool
) -> Tuple[Any, float, float, Any]:
    """Import ``repro`` and synthesize the workload's traces (timed).

    Returns the workload, the set-up's reference seconds, the speed
    scale applied to get them, and the span recorder (when traced).
    """
    speed.kernel_seconds()  # the first pass warms up; later ones count
    spans = None
    with speed.Timed(sample=not traced) as timer:
        import workloads  # noqa: F401 - the import of repro is timed

        workload = workloads.WORKLOADS[args.workload](args.seed, args.hours)
        if traced:
            from layers import SpanRecorder, synthesis_patches

            spans = SpanRecorder()
            with spans.patched(synthesis_patches(spans)):
                workload.synthesize()
        else:
            workload.synthesize()
    return workload, timer.reference_s, timer.scale, spans


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--hours", repr(args.hours)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def host_stamp(args: argparse.Namespace, runs_per_rep: int) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "sim_hours_per_run": args.hours,
        "runs_per_rep": runs_per_rep,
        "timed_seconds": args.seconds,
        "traced": bool(args.trace),
    }


class Bench:
    """The timed phase of one workload, and its correctness gate."""

    def __init__(self, args: argparse.Namespace, workload: Any,
                 spans: Any, setup_scale: float) -> None:
        import workloads

        self.args = args
        self.workload = workload
        self.spans = spans
        self.specs = workload.specs(workload.harness())
        self.offered = workloads.offered_by_key(self.specs)
        self.recorded = isinstance(workload, workloads.BrakeStorm)
        self.reps: List[Dict[str, Any]] = []
        self.spool_root = OUT_DIR / f"spool-{os.getpid()}"
        self.setup_spans = len(spans.start) if spans is not None else 0
        self.setup_counts = dict(spans.counts) if spans is not None else {}
        self.setup_scale = setup_scale

    def _traced_rep(self, spool: Optional[Path],
                    rep: Dict[str, Any]) -> Any:
        from layers import REP_SPAN, run_patches

        spans = self.spans
        spans.counts = {}
        with spans.patched(run_patches(spans)):
            with spans.root(REP_SPAN) as root:
                try:
                    return self.workload.run_rep(spool)
                finally:
                    rep["span_range"] = (root, len(spans.start))
                    rep["counts"] = spans.counts

    def run_rep(self, traced: bool) -> Dict[str, Any]:
        """One repetition, timed as a whole, then gated run by run.

        Traced and untraced repetitions are timed alike, so their ratio
        is the tracing overhead. Inside a traced one the speed kernel's
        time is a gap that counts toward no layer's self time.
        """
        import gate

        spool = None
        if self.recorded:
            spool = self.spool_root / f"rep{len(self.reps)}"
        rep: Dict[str, Any] = {"traced": traced}
        kernel = speed.kernel_seconds
        if traced:
            kernel = self.spans.gap(kernel)
        repetition = None
        with speed.Timed(kernel=kernel) as timer:
            try:
                if traced:
                    repetition = self._traced_rep(spool, rep)
                else:
                    repetition = self.workload.run_rep(spool)
            except Exception:  # a failed repetition is counted, not fatal
                traceback.print_exc(file=sys.stderr)
        rep["scale"] = timer.scale
        rep["host_s"] = timer.host_s
        rep["wall_s"] = timer.reference_s
        if repetition is None:
            # The batch raised: every run of it counts as failed.
            rep["checks"] = [{"errors": ["raised"]} for _ in self.specs]
            rep["resumed"], rep["saved_sim_s"] = 0, 0.0
            self.reps.append(rep)
            return rep
        checks = []
        for outcome in repetition.outcomes:
            check = {
                "fingerprint": gate.fingerprint(outcome.result),
                "wall_s": outcome.host_s * timer.scale,
            }
            errors = gate.conservation_errors(
                outcome.result, self.offered[outcome.spec.trace_key()]
            )
            if outcome.segment is not None:
                counts, census = gate.segment_counts(
                    outcome.result, outcome.segment
                )
                check.update(counts)
                errors += census
            check["errors"] = errors
            checks.append(check)
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
        rep["checks"] = checks
        rep["resumed"] = repetition.stats.incremental_resumed
        rep["saved_sim_s"] = repetition.stats.saved_sim_s
        self.reps.append(rep)
        return rep

    def run(self) -> None:
        """Repeat the workload until the next cycle would overrun."""
        cycle = (False, True) if self.args.trace else (False,)
        loop_start = time.perf_counter()
        try:
            while True:
                cycle_start = time.perf_counter()
                for traced in cycle:
                    rep = self.run_rep(traced)
                    runs = " ".join(f"{c['wall_s']:.3f}"
                                    for c in rep["checks"] if "wall_s" in c)
                    print(f"rep {len(self.reps) - 1}: "
                          f"{'traced' if traced else 'untraced'} "
                          f"wall {rep['wall_s']:.3f} s "
                          f"(host {rep['host_s']:.3f} s); runs {runs}",
                          flush=True)
                now = time.perf_counter()
                if (now - loop_start) + (now - cycle_start) \
                        > self.args.seconds:
                    break
        finally:
            shutil.rmtree(self.spool_root, ignore_errors=True)

    # ------------------------------------------------------------------
    def references(self) -> Tuple[List[Optional[Dict[str, Any]]], str]:
        """Per-run references the gate compares every repetition with."""
        import gate
        import workloads

        group = "brake_storm" if self.recorded else "fig13"
        pins = gate.pinned(gate.load_pins(), group, self.args.seed,
                           self.args.hours)
        if pins is not None:
            return pins, "pins in pins.json"
        if isinstance(self.workload, workloads.Fig13Incremental):
            # Incremental execution must be bit-identical to serial.
            serial = workloads.Fig13Serial(self.args.seed, self.args.hours)
            return [
                {"fingerprint": gate.fingerprint(outcome.result)}
                for outcome in serial.run_rep().outcomes
            ], "serial pass"
        first = self.reps[0]["checks"]
        return [
            None if "fingerprint" not in check else {
                key: check[key]
                for key in ("fingerprint", "kept", "dropped_by_kind",
                            "bytes")
                if key in check
            }
            for check in first
        ], "first repetition"

    def check(self) -> Tuple[int, int]:
        """(attempted, failed) runs, after comparing with references."""
        import gate

        references, source = self.references()
        print(f"gate: references from the {source}")
        attempted = failed = 0
        for index, rep in enumerate(self.reps):
            for position, check in enumerate(rep["checks"]):
                attempted += 1
                errors = list(check["errors"])
                reference = (references[position]
                             if position < len(references) else None)
                if reference is None:
                    errors.append("no reference")
                elif "fingerprint" in check:
                    errors += gate.reference_errors(check, reference)
                if errors:
                    failed += 1
                    spec = self.specs[position]
                    print(f"FAILED rep {index} run {position} "
                          f"({spec.policy.name}, added "
                          f"{spec.config.added_fraction}): "
                          + "; ".join(errors), file=sys.stderr)
        return attempted, failed

    def update_pins(self) -> None:
        import gate
        import workloads

        if isinstance(self.workload, workloads.Fig13Incremental):
            raise SystemExit("fig13 references are pinned from the serial "
                             "workload")
        pins = gate.load_pins()
        if float(pins.get("sim_hours", self.args.hours)) != self.args.hours:
            raise SystemExit("pins hold another horizon; not updating")
        pins["sim_hours"] = self.args.hours
        group = "brake_storm" if self.recorded else "fig13"
        keys = ("fingerprint", "kept", "dropped_by_kind")
        pins.setdefault(group, {})[str(self.args.seed)] = [
            {key: check[key] for key in keys if key in check}
            for check in self.reps[0]["checks"]
        ]
        gate.PINS_PATH.write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"pinned {group} seed {self.args.seed} in {gate.PINS_PATH}")

    # ------------------------------------------------------------------
    def end_to_end(self, setup_samples: List[float]) -> Dict[str, float]:
        walls = [rep["wall_s"] for rep in self.reps]
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-layer metrics (medians over traced repetitions) and the
        per-span self-time table of the median repetition."""
        spans = self.spans
        traced = [rep for rep in self.reps if rep["traced"]]
        untraced = [rep["wall_s"] for rep in self.reps if not rep["traced"]]
        per_rep = []
        for rep in traced:
            totals = spans.layer_totals(*rep["span_range"])
            values = {name: 0.0 for name, _ in PER_LAYER}
            for span, (metric, calls_metric) in SPAN_METRICS.items():
                seconds, calls = totals.get(span, (0.0, 0))
                values[metric] = seconds
                if calls_metric:
                    values[calls_metric] = float(calls)
            for name, value in rep["counts"].items():
                values[name] = float(value)
            for name, unit in PER_LAYER:
                if unit == "s":
                    values[name] *= rep["scale"]
            checks = [c for c in rep["checks"] if "fingerprint" in c]
            values["obs.events_kept"] = float(
                sum(c.get("kept", 0) for c in checks))
            values["obs.events_dropped"] = float(sum(
                sum(c.get("dropped_by_kind", {}).values()) for c in checks))
            values["obs.spool_bytes"] = float(
                sum(c.get("bytes", 0) for c in checks))
            values["exec.resumed_runs"] = float(rep["resumed"])
            values["exec.saved_sim_s"] = float(rep["saved_sim_s"])
            emits = values["obs.emit_calls"]
            values["obs.keep_ratio"] = (
                values["obs.events_kept"] / emits if emits else 0.0)
            written = values["exec.ckpt_count"]
            values["exec.ckpt_use_ratio"] = (
                values["exec.ckpt_restores"] / written if written else 0.0)
            events = values["cluster.events"]
            values["cluster.us_per_event"] = (
                values["cluster.loop_self_s"] / events * 1e6
                if events else 0.0)
            values["trace.residual_frac"] = spans.residual(
                *rep["span_range"])
            values["scale"] = rep["scale"]
            per_rep.append((values, totals))
        setup = spans.layer_totals(0, self.setup_spans)
        metrics = {}
        for name, _ in PER_LAYER:
            metrics[name] = statistics.median(v[name] for v, _ in per_rep)
        metrics["traces.synth_s"] = (
            setup.get("traces.synth", (0.0, 0))[0] * self.setup_scale)
        metrics["traces.requests"] = float(
            self.setup_counts.get("traces.requests", 0))
        metrics["trace.overhead_frac"] = (
            statistics.median(rep["wall_s"] for rep in traced)
            / statistics.median(untraced) - 1.0
        )
        middle = sorted(per_rep, key=lambda vt: vt[0]["cluster.loop_self_s"])
        values, totals = middle[len(middle) // 2]
        table = {name: seconds * values["scale"]
                 for name, (seconds, _) in totals.items()
                 if name in SPAN_METRICS}
        return metrics, table


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        _, setup_s, _, _ = setup(args, traced=False)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = bool(args.trace)
    workload, setup_s, setup_scale, spans = setup(args, traced)
    setup_samples = [setup_s]
    if not traced:
        setup_samples += [probe_setup(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    bench = Bench(args, workload, spans, setup_scale)
    stamp = host_stamp(args, len(bench.specs))
    print("host " + json.dumps(stamp, sort_keys=True), flush=True)
    print("setup samples: "
          + ", ".join(f"{s:.3f} s" for s in setup_samples), flush=True)
    bench.run()
    if args.update_pins:
        bench.update_pins()
    attempted, failed = bench.check()
    runs = [check["wall_s"] for rep in bench.reps
            for check in rep["checks"] if "wall_s" in check]
    # run_p50_s has no bound: on fig13_incremental it is a short restored
    # or cold variant, whose length depends on the seed (see README.md).
    print(f"runs: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); "
          f"run_p50_s {statistics.median(runs) if runs else 0.0:.6f} s")

    if traced:
        metrics, table = bench.per_layer()
        wall = statistics.median(
            rep["wall_s"] for rep in bench.reps if rep["traced"])
        print("self times of the median traced repetition, in reference "
              "seconds")
        print(f"{'layer span':<24}{'self s':>10}{'share':>9}")
        for name, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"{name:<24}{seconds:>10.4f}{seconds / wall:>9.1%}")
        print(f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}  "
              f"trace.residual_frac {metrics['trace.residual_frac']:.4f}")
        units = dict(PER_LAYER)
        spans.write(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
            dict(stamp, setup_spans=bench.setup_spans),
        )
    else:
        metrics = bench.end_to_end(setup_samples)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:<28}{value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
