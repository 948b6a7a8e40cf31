from __future__ import annotations

import csv
import io
import json
import shutil
from pathlib import Path

import pytest

import streamcc
from streamcc import (
    ConformanceEngine,
    PetriNet,
    Policy,
    PolicyConfig,
    load_model,
    parse_csv_log,
    replay,
)
from streamcc.cli import main
from streamcc.pnml import to_pnml


@pytest.fixture
def branching_model(data_dir):
    return str(data_dir / "branching.pnml")


@pytest.fixture
def sample_log(data_dir):
    return str(data_dir / "sample_stream.csv")


class TestCheck:
    def test_fitting_log_all_zero(self, branching_model, sample_log, capsys):
        code = main(["check", "--model", branching_model, "--log", sample_log, "--policy", "baseline"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "case_id,events,effective_cost,conformant,residual_cost,model_semantics,shortest_path"
        assert len(lines) == 4  # three cases
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[2] == "0"
            assert fields[3] == "true"

    def test_matches_library_results(self, branching_model, sample_log, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main([
            "check", "--model", branching_model, "--log", sample_log,
            "--policy", "bounded-states", "--w", "3",
            "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        report = json.loads(out_path.read_text())
        net = load_model(branching_model)
        log = parse_csv_log(sample_log)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=3))
        expected = {}
        for event in replay(log):
            outcome = engine.process(event.case_id, event.activity, event.arrival_index)
            expected[outcome.case_id] = outcome.effective_cost
        assert {row["case_id"]: row["effective_cost"] for row in report["cases"]} == expected

    def test_byte_identical_across_runs(self, branching_model, sample_log, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main([
                "check", "--model", branching_model, "--log", sample_log,
                "--policy", "combined", "--w", "2", "--n", "2", "--out", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_file_exit_2(self, branching_model, capsys):
        code = main(["check", "--model", branching_model, "--log", "nope.csv", "--policy", "baseline"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_model_exit_2(self, sample_log, tmp_path, capsys):
        model = tmp_path / "missing.pnml"
        code = main(["check", "--model", str(model), "--log", sample_log, "--policy", "baseline"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.pnml" in err

    def test_invalid_flag_combination_before_reading_files(self, capsys):
        # bounded-states without --w fails even though the files do not exist
        code = main(["check", "--model", "missing.pnml", "--log", "missing.csv", "--policy", "bounded-states"])
        assert code == 2
        err = capsys.readouterr().err
        assert "state limit" in err

    @pytest.mark.parametrize("policy", ["bounded-states", "bounded-cases", "combined"])
    def test_missing_limit_error_names_the_typed_policy(self, policy, capsys):
        code = main(["check", "--model", "missing.pnml", "--log", "missing.csv", "--policy", policy])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {policy} requires a")

    def test_underscore_policy_spelling_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--model", "m.pnml", "--log", "l.csv", "--policy", "bounded_states", "--w", "2"])
        assert excinfo.value.code == 2
        assert "'baseline', 'bounded-states', 'bounded-cases', 'combined'" in capsys.readouterr().err

    def test_xes_log(self, branching_model, sample_log, tmp_path, capsys):
        rows = Path(sample_log).read_text().splitlines()[1:]
        events = {}
        for row in rows:
            case_id, activity, timestamp = row.split(",")
            events.setdefault(case_id, []).append(
                f'<event><string key="concept:name" value="{activity}"/>'
                f'<date key="time:timestamp" value="{timestamp}"/></event>'
            )
        traces = "".join(
            f'<trace><string key="concept:name" value="{case_id}"/>{"".join(evs)}</trace>'
            for case_id, evs in events.items()
        )
        xes = tmp_path / "sample.xes"
        xes.write_text(f"<log>{traces}</log>")
        assert main(["check", "--model", branching_model, "--log", sample_log, "--policy", "baseline"]) == 0
        from_csv = capsys.readouterr().out
        assert main(["check", "--model", branching_model, "--log", str(xes), "--policy", "baseline"]) == 0
        assert capsys.readouterr().out == from_csv

    def test_baseline_rejects_w(self, branching_model, sample_log, capsys):
        code = main(["check", "--model", branching_model, "--log", sample_log, "--policy", "baseline", "--w", "3"])
        assert code == 2

    def test_custom_csv_columns(self, branching_model, tmp_path, capsys):
        log = tmp_path / "renamed.csv"
        log.write_text("Case,Task,When\n9,A,2021-01-01 08:00\n9,B,2021-01-01 08:05\n")
        code = main([
            "check", "--model", branching_model, "--log", str(log), "--policy", "baseline",
            "--col-case", "Case", "--col-activity", "Task", "--col-timestamp", "When",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("9,2,0,true")

    def test_case_ids_that_need_quoting_read_back(self, branching_model, tmp_path, capsys):
        log = tmp_path / "quoted.csv"
        log.write_text('case_id,activity,timestamp\n"a,b",A,2021-01-01 08:00\n"q""x",A,2021-01-01 08:05\n')
        code = main(["check", "--model", branching_model, "--log", str(log), "--policy", "baseline"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[0] for row in rows[1:]] == ["a,b", 'q"x']
        assert rows[1][1:] == ["1", "0", "true", "0", "1", "0"]

    def test_budget_exit_3(self, branching_model, tmp_path, capsys):
        bad_log = tmp_path / "bad.csv"
        bad_log.write_text("case_id,activity,timestamp\n1,X,2021-01-01 00:00\n1,Y,2021-01-01 00:01\n")
        code = main([
            "check", "--model", branching_model, "--log", str(bad_log),
            "--policy", "baseline", "--budget", "1",
        ])
        assert code == 3
        assert "case '1'" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("log", ["sample", "missing"])
    def test_budget_that_cannot_search_exit_2_before_reading(
        self, branching_model, sample_log, log, budget, capsys
    ):
        # a missing log shows the budget is checked before any file is read
        path = sample_log if log == "sample" else "no-such-log.csv"
        code = main(
            ["check", "--model", branching_model, "--log", path, "--policy", "baseline", "--budget", budget]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"search budget must be at least 1 expansion, not {budget}" in captured.err


class TestReplayCommand:
    def test_prints_ordered_stream(self, sample_log, capsys):
        code = main(["replay", "--log", sample_log])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0].split("\t") == ["0", "1", "A", "2021-10-01T12:45:00"]
        assert lines[-1].split("\t")[1:3] == ["1", "C"]

    def test_ids_with_a_tab_a_line_break_or_a_quote_stay_one_field(self, tmp_path, capsys):
        log = tmp_path / "odd_ids.csv"
        log.write_text(
            "case_id,activity,timestamp\n"
            '"a\tb",A,2021-01-01 08:00\n'
            '"line\nbreak",B,2021-01-01 08:01\n'
            'q"x,C,2021-01-01 08:02\n'
        )
        assert main(["replay", "--log", str(log)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out), delimiter="\t"))
        assert [row[:3] for row in rows] == [["0", "a\tb", "A"], ["1", "line\nbreak", "B"], ["2", 'q"x', "C"]]
        assert [len(row) for row in rows] == [4, 4, 4]

    def test_missing_log(self, capsys):
        assert main(["replay", "--log", "absent.csv"]) == 2

    def test_paced_flag(self, tmp_path, capsys):
        log = tmp_path / "tiny.csv"
        log.write_text(
            "case_id,activity,timestamp\n"
            "1,A,2021-01-01 00:00\n"
            "1,B,2021-01-01 00:01\n"
        )
        assert main(["replay", "--log", str(log), "--paced"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestValidateModel:
    def test_branching_report(self, branching_model, capsys):
        code = main(["validate-model", "--model", branching_model])
        assert code == 0
        out = capsys.readouterr().out
        assert "places: 9" in out
        assert "transitions: 8 (0 silent)" in out
        assert "arcs: 18" in out
        assert "final marking reachable: yes" in out
        assert "WARNING" not in out

    def test_duplicate_label_warning(self, tmp_path, capsys):
        net = PetriNet.build(
            places=["p", "q1", "q2"],
            transitions={"t1": "A", "t2": "A"},
            arcs=[("p", "t1"), ("t1", "q1"), ("p", "t2"), ("t2", "q2")],
            initial={"p": 1},
            final={"q1": 1},
        )
        path = tmp_path / "dup.pnml"
        path.write_text(to_pnml(net))
        code = main(["validate-model", "--model", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "duplicate label 'A'" in out
        assert "WARNING" in out and "share label" in out

    def test_dangling_arc_exit_2(self, tmp_path, capsys):
        doc = """<pnml><net id="x"><page id="p">
        <place id="a"/><transition id="t"/><arc id="r" source="a" target="ghost"/>
        </page></net></pnml>"""
        path = tmp_path / "bad.pnml"
        path.write_text(doc)
        assert main(["validate-model", "--model", str(path)]) == 2

    def test_unreachable_final_marking(self, tmp_path, capsys):
        net = PetriNet.build(
            places=["p", "q", "island"],
            transitions={"t": "T"},
            arcs=[("p", "t"), ("t", "q")],
            initial={"p": 1},
            final={"island": 1},
        )
        path = tmp_path / "island.pnml"
        path.write_text(to_pnml(net))
        assert main(["validate-model", "--model", str(path)]) == 0
        assert "final marking reachable: no" in capsys.readouterr().out


class TestExperimentCommand:
    def test_small_bundled_config(self, data_dir, tmp_path, monkeypatch, capsys):
        # copy the bundled config so outputs land in tmp
        config = json.loads((data_dir / "experiment_small.json").read_text())
        config["model"] = str(data_dir / "cycle10.pnml")
        config["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["experiment", "--config", str(path)])
        assert code == 0
        out_dir = tmp_path / "out"
        produced = sorted(p.name for p in out_dir.iterdir())
        assert produced == [
            "baseline.csv",
            "bounded-cases-n10.csv",
            "bounded-states-w3.csv",
            "combined-w3-n10.csv",
            "manifest.json",
        ]
        stdout = capsys.readouterr().out
        assert "baseline:" in stdout
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["library_version"] == streamcc.__version__

    def test_output_dir_resolves_against_the_config_file(self, data_dir, tmp_path, monkeypatch):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        for name in ("experiment_small.json", "cycle10.pnml"):
            shutil.copy(data_dir / name, config_dir / name)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["experiment", "--config", str(config_dir / "experiment_small.json")]) == 0
        assert (config_dir / "out-small" / "manifest.json").is_file()
        assert list(work.iterdir()) == []

    def test_seed_override_changes_synthetic_stream(self, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 15, "open_cases": 4, "seed": 1, "noise_probability": 0.5},
            "policies": [{"policy": "baseline"}],
            "window_size": 50,
        }
        outputs = {}
        for seed in ("2", "3"):
            out_dir = tmp_path / f"out-{seed}"
            config["output_dir"] = str(out_dir)
            path = tmp_path / f"cfg-{seed}.json"
            path.write_text(json.dumps(config))
            assert main(["experiment", "--config", str(path), "--seed", seed]) == 0
            rows = (out_dir / "baseline.csv").read_text().splitlines()
            outputs[seed] = [r.rsplit(",", 1)[0] for r in rows]  # ignore timing column
        assert outputs["2"] != outputs["3"]

    def test_seed_override_requires_synthetic(self, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "log": str(data_dir / "sample_stream.csv"),
            "policies": [{"policy": "baseline"}],
            "window_size": 5,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path), "--seed", "9"]) == 2

    @pytest.mark.parametrize("missing", ["model", "log"])
    def test_missing_input_file_exit_2(self, missing, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "log": str(data_dir / "sample_stream.csv"),
            "policies": [{"policy": "baseline"}],
            "window_size": 5,
            "output_dir": str(tmp_path / "out"),
        }
        config[missing] = str(tmp_path / f"absent-{missing}")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"absent-{missing}" in err

    def test_w_zero_config_rejected(self, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2},
            "policies": [{"policy": "bounded-states", "w": 0}],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "policies",
        [
            [{"policy": "bounded-states", "w": 2.5}],
            [{"policy": "bounded-states", "w": True}],
            [{"policy": "baseline"}, {"policy": "baseline"}],
        ],
        ids=["fractional-w", "boolean-w", "duplicate"],
    )
    def test_bad_policy_list_exit_2_and_writes_nothing(self, policies, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2},
            "policies": policies,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid experiment config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "level, misspelt",
        [("top", "windowsize"), ("policy", "W"), ("synthetic", "noise_probabilty")],
    )
    def test_misspelt_key_exit_2_names_it_and_writes_nothing(self, level, misspelt, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2},
            "policies": [{"policy": "bounded-states", "w": 2}],
            "output_dir": str(tmp_path / "out"),
        }
        block = {"top": config, "policy": config["policies"][0], "synthetic": config["synthetic"]}[level]
        block[misspelt] = 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config") and repr(misspelt) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "level, key, message",
        [("top", "model", "missing key 'model' in the config"),
         ("policy", "policy", "missing key 'policy' in a policy entry")],
        ids=["model", "policy"],
    )
    def test_missing_key_exit_2_names_it_and_writes_nothing(self, level, key, message, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2},
            "policies": [{"policy": "bounded-states", "w": 2}],
            "output_dir": str(tmp_path / "out"),
        }
        del {"top": config, "policy": config["policies"][0]}[level][key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: invalid experiment config {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_empty_noise_kinds_with_noise_exit_2_and_writes_nothing(self, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2, "kinds": [], "noise_probability": 1.0},
            "policies": [{"policy": "baseline"}],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        assert "kinds must name at least one noise kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_net_of_no_steps_exit_2_and_writes_nothing(self, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2, "model_steps": 0},
            "policies": [{"policy": "baseline"}],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid experiment config {path}: model_steps must be >= 2, not 0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2_and_writes_nothing(self, jobs, data_dir, tmp_path, capsys):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 5, "open_cases": 2},
            "policies": [{"policy": "baseline"}],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_parallel_jobs_match_sequential(self, data_dir, tmp_path):
        config = {
            "model": str(data_dir / "cycle10.pnml"),
            "synthetic": {"cases": 20, "open_cases": 5, "seed": 3, "noise_probability": 0.4},
            "policies": [
                {"policy": "baseline"},
                {"policy": "bounded-states", "w": 2},
                {"policy": "combined", "w": 2, "n": 4},
            ],
            "window_size": 50,
        }
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        for out_dir, jobs in ((seq_dir, "1"), (par_dir, "2")):
            config["output_dir"] = str(out_dir)
            path = tmp_path / f"config-{jobs}.json"
            path.write_text(json.dumps(config))
            assert main(["experiment", "--config", str(path), "--jobs", jobs]) == 0
        for name in ("baseline.csv", "bounded-states-w2.csv", "combined-w2-n4.csv"):
            seq_rows = [
                line.rsplit(",", 1)[0]  # drop the timing column
                for line in (seq_dir / name).read_text().splitlines()
            ]
            par_rows = [
                line.rsplit(",", 1)[0]
                for line in (par_dir / name).read_text().splitlines()
            ]
            assert seq_rows == par_rows

    def test_bundled_example_config_parses(self, data_dir):
        from streamcc.evaluation import ExperimentConfig

        config = ExperimentConfig.from_json(data_dir / "experiment_example.json")
        ws = sorted({p.w for p in config.policies if p.policy is Policy.BOUNDED_STATES})
        ns = sorted({p.n for p in config.policies if p.policy is Policy.BOUNDED_CASES})
        combos = [p for p in config.policies if p.policy is Policy.COMBINED]
        assert ws == [1, 2, 3, 4, 5]
        assert ns == [100, 200, 300, 400, 500]
        assert len(combos) == 25
