"""The regression sentinel: tolerance policies and baseline diffs.

The acceptance bar from the issue: the sentinel must flag a 10%
wall-time drift under the default relative tolerance, and *any* drift
at all in a deterministic (exact) metric — digests, counters, energy
integrals. Ignored paths (host identity) must never flag, and the
noise floor must keep micro-benchmarks from crying wolf.
"""

import json

import pytest

from repro.cluster.simulator import ClusterConfig
from repro.errors import ConfigurationError
from repro.exec import PolicySpec, RunSpec, SweepEngine
from repro.obs import (
    DEFAULT_POLICIES,
    ExperimentLedger,
    Tolerance,
    check_bench,
    check_bench_dir,
    check_ledger,
    compare_metrics,
)
from repro.obs.regress import main, resolve_tolerance

#: A small but realistic benchmark report (the shape of BENCH_sweeps).
BASELINE = {
    "grid": {"combos": 3, "added_fractions": 4, "unique_runs": 13},
    "serial": {"workers": 1, "wall_s": 10.0, "runs_per_s": 1.3},
    "parallel": {"workers": 4, "wall_s": 3.0, "runs_per_s": 4.3},
    "speedup": 3.3,
    "cpu_count": 8,
}


def fresh(**overrides):
    report = json.loads(json.dumps(BASELINE))
    for path, value in overrides.items():
        node = report
        *parents, leaf = path.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return report


# ----------------------------------------------------------------------
# Tolerance semantics
# ----------------------------------------------------------------------
class TestTolerance:
    def test_exact_is_equality(self):
        tol = Tolerance.exact()
        assert tol.within(3, 3)
        assert not tol.within(3, 3.0000001)
        assert tol.within("abc", "abc")
        assert not tol.within("abc", "abd")

    def test_relative_allows_the_band(self):
        tol = Tolerance.relative(rel_tol=0.05, noise_floor=0.0)
        assert tol.within(100.0, 104.9)
        assert tol.within(100.0, 95.1)
        assert not tol.within(100.0, 106.0)
        assert not tol.within(100.0, 94.0)

    def test_noise_floor_absorbs_small_absolute_moves(self):
        """0.1 s -> 0.3 s is a 3x relative change but under the floor."""
        tol = Tolerance.relative(rel_tol=0.05, noise_floor=0.25)
        assert tol.within(0.1, 0.3)
        assert not tol.within(0.1, 0.4)

    def test_zero_baseline_requires_zero(self):
        tol = Tolerance.relative(rel_tol=0.05, noise_floor=0.0)
        assert tol.within(0.0, 0.0)
        assert not tol.within(0.0, 0.001)

    def test_relative_on_non_numeric_falls_back_to_equality(self):
        tol = Tolerance.relative()
        assert tol.within("linux", "linux")
        assert not tol.within("linux", "darwin")
        assert not tol.within(True, 1.04)  # bools are not numeric here

    def test_ignore_accepts_anything(self):
        assert Tolerance.ignore().within(1, "banana")

    def test_invalid_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            Tolerance("fuzzy")
        with pytest.raises(ConfigurationError):
            Tolerance("relative", rel_tol=-0.1)

    def test_default_policy_resolution(self):
        assert resolve_tolerance("serial.wall_s").mode == "relative"
        assert resolve_tolerance("speedup").mode == "relative"
        assert resolve_tolerance("cpu_count").mode == "ignore"
        assert resolve_tolerance("ledger.x.env.python").mode == "ignore"
        assert resolve_tolerance("grid.unique_runs").mode == "exact"
        # First match wins over later patterns.
        assert resolve_tolerance(
            "x", [("x", Tolerance.ignore()), ("*", Tolerance.exact())]
        ).mode == "ignore"


# ----------------------------------------------------------------------
# compare_metrics verdicts
# ----------------------------------------------------------------------
class TestCompareMetrics:
    def test_identical_reports_are_clean(self):
        report = compare_metrics(BASELINE, fresh())
        assert report.ok
        assert report.diffs == []
        assert report.checked > 0
        assert report.first_divergence() is None

    def test_ten_percent_wall_drift_flags(self):
        """The issue's acceptance bar: +10% wall time must flag under
        the default 5% tolerance."""
        report = compare_metrics(BASELINE, fresh(**{
            "serial.wall_s": 11.0, "parallel.wall_s": 3.3,
        }))
        assert not report.ok
        paths = {d.path for d in report.regressions}
        assert paths == {"serial.wall_s", "parallel.wall_s"}
        assert all(d.status == "drift" for d in report.regressions)

    def test_four_percent_wall_drift_passes(self):
        report = compare_metrics(BASELINE, fresh(**{
            "serial.wall_s": 10.4,
        }))
        assert report.ok

    def test_any_exact_metric_drift_flags(self):
        """Deterministic counters tolerate nothing."""
        report = compare_metrics(BASELINE, fresh(**{
            "grid.unique_runs": 14,
        }))
        assert not report.ok
        (diff,) = report.regressions
        assert diff.path == "grid.unique_runs"
        assert diff.mode == "exact"
        assert "14" in diff.describe()

    def test_ignored_paths_never_flag_or_count(self):
        clean = compare_metrics(BASELINE, fresh())
        wild = compare_metrics(BASELINE, fresh(cpu_count=128))
        assert wild.ok
        assert wild.checked == clean.checked

    def test_missing_metric_is_a_regression(self):
        current = fresh()
        del current["speedup"]
        report = compare_metrics(BASELINE, current)
        (diff,) = report.regressions
        assert diff.path == "speedup"
        assert diff.status == "missing"
        assert "missing" in diff.describe()

    def test_added_metric_is_informational(self):
        report = compare_metrics(BASELINE, fresh(new_metric=1.0))
        assert report.ok
        (diff,) = report.diffs
        assert diff.status == "added"
        assert not diff.is_regression

    def test_lists_diff_by_index(self):
        report = compare_metrics(
            {"series": [1, 2, 3]}, {"series": [1, 9, 3]},
        )
        (diff,) = report.regressions
        assert diff.path == "series[1]"

    def test_first_divergence_reuses_the_trace_differ(self):
        report = compare_metrics(BASELINE, fresh(**{
            "grid.unique_runs": 14,
        }))
        divergence = report.first_divergence()
        assert divergence is not None
        assert "unique_runs" in divergence.field

    def test_summary_lines_name_the_verdict(self):
        ok = compare_metrics(BASELINE, fresh(), name="BENCH_x.json")
        assert "BENCH_x.json" in ok.summary_lines()[0]
        assert "ok" in ok.summary_lines()[0]
        bad = compare_metrics(BASELINE, fresh(speedup=1.0))
        lines = bad.summary_lines()
        assert "1 regression(s)" in lines[0]
        assert any(line.lstrip().startswith("!") for line in lines[1:])


# ----------------------------------------------------------------------
# The baselines directory workflow
# ----------------------------------------------------------------------
class TestCheckBenchDir:
    @pytest.fixture()
    def tree(self, tmp_path):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_a.json").write_text(json.dumps(BASELINE))
        (tmp_path / "BENCH_a.json").write_text(json.dumps(fresh()))
        return tmp_path

    def test_clean_tree_passes(self, tree):
        reports = check_bench_dir(str(tree), str(tree / "baselines"))
        assert [r.ok for r in reports] == [True]

    def test_drifted_report_fails(self, tree):
        (tree / "BENCH_a.json").write_text(json.dumps(
            fresh(**{"grid.unique_runs": 99})
        ))
        (report,) = check_bench_dir(str(tree), str(tree / "baselines"))
        assert not report.ok

    def test_absent_fresh_report_is_a_regression(self, tree):
        (tree / "BENCH_a.json").unlink()
        (report,) = check_bench_dir(str(tree), str(tree / "baselines"))
        assert not report.ok
        assert report.regressions[0].path == "<report-file>"
        assert report.regressions[0].status == "missing"

    def test_update_refreshes_baselines(self, tree):
        drifted = fresh(**{"grid.unique_runs": 99})
        (tree / "BENCH_a.json").write_text(json.dumps(drifted))
        check_bench_dir(
            str(tree), str(tree / "baselines"), update=True,
        )
        committed = json.loads(
            (tree / "baselines" / "BENCH_a.json").read_text()
        )
        assert committed == drifted
        (report,) = check_bench_dir(str(tree), str(tree / "baselines"))
        assert report.ok

    def test_missing_baselines_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            check_bench_dir(str(tmp_path), str(tmp_path / "nope"))

    def test_unreadable_report_rejected(self, tree):
        (tree / "BENCH_a.json").write_text("not json")
        with pytest.raises(ConfigurationError):
            check_bench(
                str(tree / "BENCH_a.json"),
                str(tree / "baselines" / "BENCH_a.json"),
            )


# ----------------------------------------------------------------------
# Ledger-to-ledger comparison
# ----------------------------------------------------------------------
class TestCheckLedger:
    @staticmethod
    def journal(seed=1, duration_s=3600.0):
        ledger = ExperimentLedger()
        spec = RunSpec(
            config=ClusterConfig(n_base_servers=4, seed=seed),
            policy=PolicySpec("No-cap"),
            duration_s=duration_s,
        )
        SweepEngine(workers=1, ledger=ledger).run(spec)
        return ledger.entries

    def test_identical_runs_compare_clean(self):
        report = check_ledger(self.journal(), self.journal())
        assert report.ok
        assert report.checked > 0

    def test_digest_drift_flags_exactly(self):
        current = self.journal()
        current[0]["digest"] = "0" * 64
        report = check_ledger(current, self.journal())
        assert not report.ok
        assert any(d.path.endswith(".digest")
                   for d in report.regressions)

    def test_metric_drift_flags(self):
        current = self.journal()
        current[0]["metrics"]["total_energy_j"] *= 1.001
        report = check_ledger(current, self.journal())
        assert any(d.path.endswith("total_energy_j") and
                   d.mode == "exact" for d in report.regressions)

    def test_wall_time_tolerated_within_band(self):
        baseline = self.journal()
        current = self.journal()
        current[0]["wall_s"] = baseline[0]["wall_s"] * 1.04 + 0.1
        assert check_ledger(current, baseline).ok

    def test_latest_entry_wins_per_key(self):
        """A later cache-hit entry supersedes the executed one, so a
        doctored earlier entry is invisible."""
        baseline = self.journal()
        current = [dict(baseline[0]), dict(baseline[0])]
        current[0] = dict(current[0], digest="0" * 64)
        assert check_ledger(current, baseline).ok

    def test_missing_run_is_a_regression(self):
        baseline = self.journal() + self.journal(seed=2)
        report = check_ledger(self.journal(), baseline)
        assert not report.ok
        assert all(d.status == "missing" for d in report.regressions)

    def test_host_identity_never_compares(self):
        current = self.journal()
        current[0]["env"]["python"] = "9.9.9"
        current[0]["worker"] = 1
        assert check_ledger(current, self.journal()).ok


# ----------------------------------------------------------------------
# The CLI contract (exit codes 0 / 1 / 2)
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def tree(self, tmp_path):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_a.json").write_text(json.dumps(BASELINE))
        (tmp_path / "BENCH_a.json").write_text(json.dumps(fresh()))
        return tmp_path

    @staticmethod
    def run(tree, *extra):
        return main([
            "--bench-dir", str(tree),
            "--baselines", str(tree / "baselines"),
            *extra,
        ])

    def test_clean_exit_zero(self, tree, capsys):
        assert self.run(tree) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exit_one_names_first_divergence(
        self, tree, capsys
    ):
        (tree / "BENCH_a.json").write_text(json.dumps(
            fresh(**{"grid.unique_runs": 99})
        ))
        assert self.run(tree) == 1
        out = capsys.readouterr().out
        assert "unique_runs" in out
        assert "first divergent leaf" in out

    def test_wider_tolerance_forgives_wall_drift(self, tree):
        (tree / "BENCH_a.json").write_text(json.dumps(
            fresh(**{"serial.wall_s": 14.0})
        ))
        assert self.run(tree) == 1
        assert self.run(tree, "--rel-tol", "0.5") == 0

    def test_missing_baselines_exit_two(self, tmp_path, capsys):
        assert main([
            "--bench-dir", str(tmp_path),
            "--baselines", str(tmp_path / "nope"),
        ]) == 2
        assert "error:" in capsys.readouterr().out

    def test_update_exit_zero(self, tree, capsys):
        (tree / "BENCH_a.json").write_text(json.dumps(
            fresh(**{"grid.unique_runs": 99})
        ))
        assert self.run(tree, "--update") == 0
        assert "updated BENCH_a.json" in capsys.readouterr().out
        assert self.run(tree) == 0

    def test_name_filter_selects_baselines(self, tree):
        (tree / "baselines" / "BENCH_b.json").write_text(
            json.dumps(BASELINE)
        )
        # BENCH_b has no fresh report: checking everything fails ...
        assert self.run(tree) == 1
        # ... but selecting only BENCH_a passes.
        assert self.run(tree, "BENCH_a.json") == 0

    def test_ledger_flags_go_together(self, tree, tmp_path):
        ledger = tmp_path / "l.jsonl"
        ledger.write_text("")
        with pytest.raises(SystemExit):
            self.run(tree, "--ledger", str(ledger))

    def test_ledger_comparison_wired_through(self, tree, tmp_path):
        entries = TestCheckLedger.journal()
        current = tmp_path / "cur.jsonl"
        baseline = tmp_path / "base.jsonl"
        for path in (current, baseline):
            path.write_text("".join(
                json.dumps(e, sort_keys=True) + "\n" for e in entries
            ))
        assert self.run(
            tree, "--ledger", str(current),
            "--ledger-baseline", str(baseline),
        ) == 0
        doctored = [dict(entries[0], digest="0" * 64)]
        current.write_text("".join(
            json.dumps(e, sort_keys=True) + "\n" for e in doctored
        ))
        assert self.run(
            tree, "--ledger", str(current),
            "--ledger-baseline", str(baseline),
        ) == 1

    def test_default_policies_are_the_documented_set(self):
        assert resolve_tolerance("anything.wall_s",
                                 DEFAULT_POLICIES).mode == "relative"
        assert DEFAULT_POLICIES[0][0] == "cpu_count"

    def test_pooled_row_host_stamps_are_ignored(self):
        """A pooled row's core count, and whether the host had enough
        cores for its workers, describe the machine, not the result."""
        for path in ("parallel.cpu_count", "optimized.meaningful"):
            assert resolve_tolerance(path, DEFAULT_POLICIES).mode == "ignore"
        assert resolve_tolerance("optimized.wall_s",
                                 DEFAULT_POLICIES).mode == "relative"
