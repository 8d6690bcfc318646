"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTablesCommand:
    def test_paper_tables(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        assert "0.235" in out and "0.189" in out
        assert "Table 3" in out

    def test_custom_factor(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--factor", "2")
        assert code == 0
        assert "x2" in out


class TestFigure4Command:
    def test_series_printed(self, capsys):
        code, out, _ = run_cli(capsys, "figure4", "--points", "3")
        assert code == 0
        assert "class easy" in out and "class difficult" in out
        assert "intercept=0.1400" in out
        assert "slope=0.5000" in out


class TestDecomposeCommand:
    def test_field_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--profile", "field")
        assert code == 0
        assert "PHf (total)" in out
        assert "0.189020" in out

    def test_unknown_profile_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--profile", "venus")
        assert code == 1
        assert "venus" in err


class TestTrialPredictDesignPipeline:
    def test_full_pipeline(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys,
            "trial",
            "--cases",
            "120",
            "--readers",
            "2",
            "--seed",
            "5",
            "--output",
            str(model_path),
        )
        assert code == 0
        assert "observed aided cancer FN rate" in out
        assert model_path.exists()
        body = json.loads(model_path.read_text())
        assert body["format"] == "repro-model/1"

        code, out, _ = run_cli(capsys, "predict", str(model_path))
        assert code == 0
        assert "P(system failure)" in out

        code, out, _ = run_cli(
            capsys, "design", str(model_path), "--cases", "120", "--readers", "2"
        )
        assert code == 0
        assert "machine_failure" in out
        assert ("feasible" in out) or ("THIN" in out)

    def test_predict_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "predict", str(tmp_path / "nope.json"))
        # Missing file surfaces as an OSError, not a clean exit; accept
        # either a nonzero code or a raised error.
        assert code != 0 or err

    def test_predict_requires_profile_when_ambiguous(self, capsys, tmp_path):
        from repro.core import (
            PAPER_FIELD_PROFILE,
            PAPER_TRIAL_PROFILE,
            dump_model,
            paper_example_parameters,
        )

        path = tmp_path / "model.json"
        dump_model(
            path,
            paper_example_parameters(),
            {"trial": PAPER_TRIAL_PROFILE, "field": PAPER_FIELD_PROFILE},
        )
        code, _, err = run_cli(capsys, "predict", str(path))
        assert code == 1
        assert "--profile required" in err

        code, out, _ = run_cli(capsys, "predict", str(path), "--profile", "field")
        assert code == 0
        assert "0.189" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestSensitivityCommand:
    def test_tornado_printed(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--profile", "field")
        assert code == 0
        assert "baseline" in out and "swing" in out
        # The dominant bar is the easy class's PHf|Ms.
        first_row = out.splitlines()[2]
        assert "easy" in first_row
        assert "machine_success" in first_row

    def test_custom_swing(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--swing", "0.5")
        assert code == 0


class TestUncertaintyCommand:
    def test_interval_printed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "uncertainty",
            "--level", "0.95",
            "--draws", "2000",
            "--seed", "7",
        )
        assert code == 0
        assert "95% credible interval" in out
        assert "draws/s" in out
        # The field-profile interval brackets the paper's 0.189 prediction.
        assert "mean 0.1" in out

    def test_seed_makes_output_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "uncertainty", "--draws", "500", "--seed", "3")
        _, second, _ = run_cli(capsys, "uncertainty", "--draws", "500", "--seed", "3")
        # Everything except the timing line must match exactly.
        assert first.splitlines()[:2] == second.splitlines()[:2]

    def test_trial_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "uncertainty", "--profile", "trial", "--draws", "500"
        )
        assert code == 0
        assert "profile 'trial'" in out

    def test_invalid_trials_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "uncertainty", "--trials", "0")
        assert code == 1
        assert "--trials" in err


class TestMonitorCommand:
    def test_monitor_stable_records(self, capsys, tmp_path):
        import numpy as np

        from repro.core import (
            CaseClass,
            ClassParameters,
            DemandProfile,
            ModelParameters,
            dump_model,
        )
        from repro.trial import CaseRecord, TrialRecords, dump_records_csv

        parameters = ModelParameters({"x": ClassParameters(0.2, 0.6, 0.1)})
        profile = DemandProfile({"x": 1.0})
        model_path = tmp_path / "model.json"
        dump_model(model_path, parameters, {"field": profile})

        rng = np.random.default_rng(7)
        records = TrialRecords()
        for i in range(2000):
            machine_failed = bool(rng.random() < 0.2)
            p_fail = 0.6 if machine_failed else 0.1
            records.append(
                CaseRecord(
                    i, "r", CaseClass("x"), True, True, machine_failed, 0,
                    not bool(rng.random() < p_fail),
                )
            )
        records_path = tmp_path / "field.csv"
        dump_records_csv(records_path, records)

        code, out, _ = run_cli(
            capsys, "monitor", str(records_path), str(model_path)
        )
        assert code == 0
        assert "no drift detected" in out

    def test_monitor_detects_drift(self, capsys, tmp_path):
        import numpy as np

        from repro.core import (
            CaseClass,
            ClassParameters,
            DemandProfile,
            ModelParameters,
            dump_model,
        )
        from repro.trial import CaseRecord, TrialRecords, dump_records_csv

        parameters = ModelParameters({"x": ClassParameters(0.05, 0.6, 0.1)})
        model_path = tmp_path / "model.json"
        dump_model(model_path, parameters, {"field": DemandProfile({"x": 1.0})})

        rng = np.random.default_rng(8)
        records = TrialRecords()
        for i in range(2000):
            machine_failed = bool(rng.random() < 0.25)  # 5x the reference PMf
            p_fail = 0.6 if machine_failed else 0.1
            records.append(
                CaseRecord(
                    i, "r", CaseClass("x"), True, True, machine_failed, 0,
                    not bool(rng.random() < p_fail),
                )
            )
        records_path = tmp_path / "field.csv"
        dump_records_csv(records_path, records)

        code, out, _ = run_cli(
            capsys, "monitor", str(records_path), str(model_path)
        )
        assert code == 0
        assert "DRIFT DETECTED" in out
        assert "x/PMf" in out


class TestMonitorStreamingModes:
    @staticmethod
    def write_model(tmp_path, pmf):
        from repro.core import ClassParameters, DemandProfile, ModelParameters, dump_model

        model_path = tmp_path / "model.json"
        dump_model(
            model_path,
            ModelParameters({"x": ClassParameters(pmf, 0.6, 0.1)}),
            {"field": DemandProfile({"x": 1.0})},
        )
        return model_path

    @staticmethod
    def make_records(pmf, n=2000, seed=7):
        import numpy as np

        from repro.core import CaseClass
        from repro.trial import CaseRecord, TrialRecords

        rng = np.random.default_rng(seed)
        records = TrialRecords()
        for i in range(n):
            machine_failed = bool(rng.random() < pmf)
            p_fail = 0.6 if machine_failed else 0.1
            records.append(
                CaseRecord(
                    i, "r", CaseClass("x"), True, True, machine_failed, 0,
                    not bool(rng.random() < p_fail),
                )
            )
        return records

    def test_follow_streams_stable_csv(self, capsys, tmp_path):
        from repro.trial import dump_records_csv

        model_path = self.write_model(tmp_path, pmf=0.2)
        records_path = tmp_path / "field.csv"
        dump_records_csv(records_path, self.make_records(pmf=0.2))
        code, out, _ = run_cli(
            capsys,
            "monitor", str(records_path), str(model_path),
            "--follow", "--max-polls", "1", "--poll-interval", "0",
        )
        assert code == 0
        assert f"following {records_path} (csv)" in out
        assert "+2000 records: 2000 used of 2000 seen" in out
        assert "no drift detected" in out

    def test_follow_trips_sequential_alarms_on_drift(self, capsys, tmp_path):
        from repro.trial import dump_records_csv

        model_path = self.write_model(tmp_path, pmf=0.05)
        records_path = tmp_path / "field.csv"
        dump_records_csv(records_path, self.make_records(pmf=0.25, seed=8))
        code, out, _ = run_cli(
            capsys,
            "monitor", str(records_path), str(model_path),
            "--follow", "--max-polls", "1", "--poll-interval", "0",
        )
        assert code == 0
        assert "DRIFT DETECTED" in out
        assert "sequential alarms still tripped" in out

    def test_from_journal_matches_csv_report(self, capsys, tmp_path):
        from repro.trial import (
            append_journal_entries,
            dump_records_csv,
            record_to_entry,
        )

        model_path = self.write_model(tmp_path, pmf=0.2)
        records = self.make_records(pmf=0.2)
        csv_path = tmp_path / "field.csv"
        dump_records_csv(csv_path, records)
        journal_path = tmp_path / "field.jsonl"
        append_journal_entries(
            journal_path, [record_to_entry(r) for r in records]
        )
        code, from_csv, _ = run_cli(
            capsys, "monitor", str(csv_path), str(model_path)
        )
        assert code == 0
        code, from_journal, _ = run_cli(
            capsys,
            "monitor", str(journal_path), str(model_path), "--from-journal",
        )
        assert code == 0
        assert from_journal == from_csv

    def test_follow_from_journal(self, capsys, tmp_path):
        from repro.trial import append_journal_entries, record_to_entry

        model_path = self.write_model(tmp_path, pmf=0.2)
        journal_path = tmp_path / "field.jsonl"
        append_journal_entries(
            journal_path,
            [record_to_entry(r) for r in self.make_records(pmf=0.2, n=600)],
        )
        code, out, _ = run_cli(
            capsys,
            "monitor", str(journal_path), str(model_path),
            "--follow", "--from-journal",
            "--max-polls", "1", "--poll-interval", "0", "--check-every", "200",
        )
        assert code == 0
        assert f"following {journal_path} (journal)" in out
        assert "3 checkpoints" in out

    def test_empty_journal_fails_cleanly(self, capsys, tmp_path):
        model_path = self.write_model(tmp_path, pmf=0.2)
        journal_path = tmp_path / "empty.jsonl"
        journal_path.write_text("")
        code, _, err = run_cli(
            capsys,
            "monitor", str(journal_path), str(model_path), "--from-journal",
        )
        assert code == 1
        assert "no record entries" in err

    def test_follow_trace_out_captures_monitor_gauges(self, capsys, tmp_path):
        from repro.trial import dump_records_csv

        model_path = self.write_model(tmp_path, pmf=0.2)
        records_path = tmp_path / "field.csv"
        dump_records_csv(records_path, self.make_records(pmf=0.2, n=600))
        trace = tmp_path / "monitor-report.json"
        code, out, _ = run_cli(
            capsys,
            "monitor", str(records_path), str(model_path),
            "--follow", "--max-polls", "1", "--poll-interval", "0",
            "--trace-out", str(trace),
        )
        assert code == 0
        body = json.loads(trace.read_text())
        gauges = body["metrics"]["gauges"]
        assert gauges["monitor.records_used"] == 600
        assert body["metrics"]["counters"]["monitor.checkpoints"] == 2


class TestObservabilityFlags:
    def test_simulate_profile_prints_run_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--cases", "400", "--system", "unaided", "--profile"
        )
        assert code == 0
        assert "run report: simulate" in out
        assert "where the time went (spans):" in out
        assert "runtime.evaluate" in out
        assert "degraded paths fired" in out

    def test_simulate_trace_out_writes_schema_stamped_json(self, capsys, tmp_path):
        trace = tmp_path / "run-report.json"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--cases", "400", "--system", "unaided",
            "--trace-out", str(trace),
        )
        assert code == 0
        assert f"run report written to {trace}" in out
        # --trace-out alone writes the file but keeps stdout terse.
        assert "where the time went" not in out
        body = json.loads(trace.read_text())
        assert body["schema"] == 1
        assert body["name"] == "simulate"
        assert body["spans"]
        assert "counters" in body["metrics"]

    def test_profile_does_not_change_seeded_results(self, capsys):
        import re

        def failure_cells(out):
            return re.findall(r"\d+\.\d{4} \(\d+/\d+\)", out)

        _, plain, _ = run_cli(capsys, "simulate", "--cases", "400", "--seed", "3")
        _, traced, _ = run_cli(
            capsys, "simulate", "--cases", "400", "--seed", "3", "--profile"
        )
        assert failure_cells(plain) == failure_cells(traced)
        assert failure_cells(plain)  # the extraction actually found rows

    def test_uncertainty_profile_report_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "uncertainty", "--draws", "500", "--profile-report"
        )
        assert code == 0
        assert "run report: uncertainty" in out
        assert "posterior.sample" in out

    def test_uncertainty_profile_still_selects_demand_profile(self, capsys):
        # `uncertainty --profile` keeps its original meaning (a stored
        # demand-profile name); the report spelling is --profile-report.
        code, out, _ = run_cli(
            capsys, "uncertainty", "--profile", "trial", "--draws", "300"
        )
        assert code == 0
        assert "profile 'trial'" in out
        assert "run report" not in out

    def test_ambient_instrumentation_restored_after_command(self, capsys):
        from repro.obs import NULL_INSTRUMENTATION, get_instrumentation

        run_cli(capsys, "simulate", "--cases", "200", "--profile")
        assert get_instrumentation() is NULL_INSTRUMENTATION


class TestSweepCommand:
    @staticmethod
    def write_grid(tmp_path, **overrides):
        from repro.sweep import ScenarioGrid

        fields = dict(
            name="cli",
            populations=("routine",),
            num_cases=60,
            systems=("unaided", "assisted"),
            biases=("none", "mild"),
            operating_points=(0.0,),
            replicates=1,
        )
        fields.update(overrides)
        path = tmp_path / "grid.json"
        ScenarioGrid(**fields).to_file(path)
        return path

    def test_runs_grid_and_prints_summary(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", "--grid", str(grid), "--seed", "7")
        assert code == 0
        assert "grid 'cli': 4 cells, 1 distinct workloads" in out
        assert "complete: 4 cells executed, 0 restored from journal" in out
        assert "FN rate" in out and "FP rate" in out

    def test_group_by_controls_summary_columns(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path)
        code, out, _ = run_cli(
            capsys, "sweep", "--grid", str(grid), "--group-by", "system,bias"
        )
        assert code == 0
        assert "bias" in out

    def test_journal_resume_round_trip(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path, replicates=3)  # 12 cells
        journal = tmp_path / "sweep.jsonl"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--grid", str(grid), "--seed", "7",
            "--journal", str(journal), "--shard-size", "4", "--max-shards", "1",
        )
        assert code == 0
        assert "partial: 4 cells executed" in out
        assert "resume with:" in out
        code, resumed, _ = run_cli(
            capsys,
            "sweep", "--grid", str(grid), "--seed", "7",
            "--journal", str(journal), "--shard-size", "4", "--resume",
        )
        assert code == 0
        assert "8 cells executed, 4 restored from journal" in resumed

        def table(text):
            return [line for line in text.splitlines() if "|" in line]

        # The consolidated table after resume matches an uninterrupted run.
        code, fresh, _ = run_cli(capsys, "sweep", "--grid", str(grid), "--seed", "7")
        assert code == 0
        assert table(resumed) == table(fresh)

    def test_existing_journal_without_resume_fails_cleanly(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path)
        journal = tmp_path / "sweep.jsonl"
        run_cli(capsys, "sweep", "--grid", str(grid), "--journal", str(journal))
        code, _, err = run_cli(
            capsys, "sweep", "--grid", str(grid), "--journal", str(journal)
        )
        assert code == 1
        assert "already exists" in err

    def test_missing_grid_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--grid", str(tmp_path / "absent.json")
        )
        assert code == 1
        assert "cannot read grid file" in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"name": "g", "workload": {"num_cases": Infinity}}', "num_cases"),
            ('{"name": "g", "workload": {"num_cases": 2000.9}}', "num_cases"),
            ('{"name": "g", "workload": [1, 2]}', "'workload' must be a JSON object"),
            ('{"name": "g", "axes": {"operating_points": 3}}', "'operating_points'"),
            ('{"name": "g", "axes": {"populations": 5}}', "'populations'"),
            ('{"name": "g", "axes": {"replicates": 2.9}}', "replicates"),
        ],
    )
    def test_bad_grid_file_fails_cleanly(self, capsys, tmp_path, text, reason):
        path = tmp_path / "grid.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "sweep", "--grid", str(path))
        assert code == 1
        assert err.startswith("error: ") and reason in err

    def test_profile_prints_sweep_run_report(self, capsys, tmp_path):
        grid = self.write_grid(tmp_path)
        code, out, _ = run_cli(
            capsys, "sweep", "--grid", str(grid), "--profile"
        )
        assert code == 0
        assert "run report: sweep" in out
        assert "sweep.compile" in out and "sweep.shard" in out
