from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime

import pytest
from hypothesis import given, strategies as st

from streamcc import (
    ConformanceEngine,
    CostModel,
    ParseError,
    Policy,
    PolicyConfig,
    SearchBudgetExceeded,
    StreamSpec,
    cyclic_sequence_net,
    evaluate_policies,
    generate_log,
    replay,
)
from streamcc import evaluation
from streamcc.errors import EmptyWindow
from streamcc.evaluation import ExperimentConfig, f1, rmse, run_experiment, write_results
from streamcc.pnml import load_final_marking_sidecar, to_pnml


class TestRmse:
    def test_equal_pairs(self):
        assert rmse([(1, 1), (2, 2)]) == 0

    def test_single_pair(self):
        assert rmse([(3, 1)]) == 2

    def test_symmetric_errors(self):
        assert rmse([(2, 1), (1, 2)]) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyWindow):
            rmse([])

    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=30))
    def test_nonnegative(self, pairs):
        assert rmse(pairs) >= 0


class TestF1:
    def test_perfect_agreement(self):
        assert f1([(True, True), (False, False), (True, True)]) == 1

    def test_all_conformant_is_vacuous_one(self):
        assert f1([(False, False)] * 4) == 1

    def test_extra_false_positive(self):
        # two true positives, one false positive: precision 2/3, recall 1
        pairs = [(True, True), (True, True), (True, False)]
        assert f1(pairs) == pytest.approx(0.8)

    def test_one_tp_one_fp(self):
        assert f1([(True, True), (True, False)]) == pytest.approx(2 / 3)

    def test_missed_positive(self):
        assert f1([(False, True), (True, True)]) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(EmptyWindow):
            f1([])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
    def test_bounded(self, pairs):
        assert 0 <= f1(pairs) <= 1


class TestClassifyCase:
    """A case is classified by its last outcome's ``conformant`` flag."""

    def test_zero_cost_is_conformant(self, seq_abc):
        outcome = ConformanceEngine(seq_abc).process("c", "A")
        assert outcome.effective_cost == 0.0
        assert outcome.conformant is True

    def test_positive_cost_is_not(self, seq_abc):
        config = PolicyConfig(Policy.BASELINE, cost_model=CostModel(log_cost=0.5))
        outcome = ConformanceEngine(seq_abc, config).process("c", "X")
        assert outcome.effective_cost == 0.5
        assert outcome.conformant is False

    def test_summary_only_residual(self, seq_abc):
        # c deviates, is forgotten when d arrives (n=1), then resumes from
        # its summary with a synchronous move: only the carried cost remains
        engine = ConformanceEngine(seq_abc, PolicyConfig(Policy.BOUNDED_CASES, n=1))
        engine.process("c", "X")
        engine.process("d", "A")
        resumed = engine.process("c", "A")
        assert resumed.residual_cost == 1.0
        assert resumed.effective_cost == 1.0
        assert resumed.conformant is False


def small_stream(seed=1, cases=25, noise=0.4):
    log = generate_log(
        StreamSpec(cases=cases, open_cases=6, base_length=8, noise_probability=noise),
        seed=seed,
    )
    return list(replay(log))


class TestEvaluatePolicies:
    def test_baseline_against_itself(self):
        net = cyclic_sequence_net(10)
        events = small_stream()
        result = evaluate_policies(
            net, events, [PolicyConfig(Policy.BASELINE)], window_size=50
        )
        (run,) = result.runs
        assert run.error is None
        assert all(w.rmse_fitness == 0 for w in run.windows)
        assert all(w.f1_classification == 1 for w in run.windows)

    def test_reference_uses_the_policies_cost_model(self):
        config = PolicyConfig(Policy.BASELINE, cost_model=CostModel(log_cost=0.5))
        log = generate_log(StreamSpec(cases=20, open_cases=5, noise_probability=1.0), seed=3)
        result = evaluate_policies(cyclic_sequence_net(10), list(replay(log)), [config], window_size=50)
        (run,) = result.runs
        assert run.error is None
        assert [w.rmse_fitness for w in run.windows] == [0.0] * len(run.windows)
        assert [w.f1_classification for w in run.windows] == [1.0] * len(run.windows)

    def test_budget_that_cannot_search_rejected_before_the_reference_pass(self):
        with pytest.raises(ValueError, match="search budget must be at least 1 expansion, not 0"):
            evaluate_policies(
                cyclic_sequence_net(10),
                small_stream(seed=13),
                [PolicyConfig(Policy.BASELINE)],
                search_budget=0,
                reference_search_budget=1_000_000,
            )

    def test_budget_failure_midway_through_the_first_copy(self):
        # the run stops at the failed event of the first copy: it reports
        # the windows completed before it, and the counts at that point
        events = small_stream(seed=13, noise=0.8)
        result = evaluate_policies(
            cyclic_sequence_net(10),
            events,
            [PolicyConfig(Policy.COMBINED, w=2, n=3)],
            window_size=20,
            replication=2,
            search_budget=5,
            reference_search_budget=1_000_000,
        )
        (run,) = result.runs
        assert len(events) == 198
        assert run.error == "search budget of 5 expansions exhausted while processing case 'c19'"
        assert (run.search_count, run.extension_count) == (17, 123)
        assert [
            (w.window_index, w.events_in_window, w.max_stored_states, w.rmse_fitness, w.f1_classification)
            for w in run.windows
        ] == [
            (0, 20, 8, 0.0, 1.0),
            (1, 20, 11, 0.0, 1.0),
            (2, 20, 12, 0.0, 1.0),
            (3, 20, 16, 0.3535533905932738, 1.0),
            (4, 20, 18, 0.0, 1.0),
            (5, 20, 19, 0.0, 1.0),
            (6, 20, 23, 0.0, 1.0),
        ]
        assert all(w.apte_us > 0 for w in run.windows)

    def test_budget_failure_in_a_later_copy(self, monkeypatch):
        # the first copy completed: every window is reported, with its counts
        events = small_stream(seed=13, noise=0.8)
        config = PolicyConfig(Policy.COMBINED, w=2, n=3)
        single = evaluate_policies(cyclic_sequence_net(10), events, [config], window_size=20)
        failing_index = len(events) + 30  # an event of the second copy's second window

        class FailingEngine(ConformanceEngine):
            def process(self, case_id, activity, event_ref=None):
                if event_ref == failing_index:
                    raise SearchBudgetExceeded(self.search_budget, case_id)
                return super().process(case_id, activity, event_ref)

        monkeypatch.setattr(evaluation, "ConformanceEngine", FailingEngine)
        result = evaluate_policies(cyclic_sequence_net(10), events, [config], window_size=20, replication=2)
        (run,) = result.runs
        (plain,) = single.runs
        assert run.error is not None and "~r2" in run.error
        assert len(run.windows) == len(plain.windows) == 10
        assert (run.search_count, run.extension_count) == (plain.search_count, plain.extension_count)
        assert [
            (w.window_index, w.events_in_window, w.max_stored_states, w.rmse_fitness, w.f1_classification)
            for w in run.windows
        ] == [
            (w.window_index, w.events_in_window, w.max_stored_states, w.rmse_fitness, w.f1_classification)
            for w in plain.windows
        ]
        assert all(w.apte_us > 0 for w in run.windows)

    def test_safe_state_limit_matches_baseline_everywhere(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=3)
        result = evaluate_policies(
            net, events, [PolicyConfig(Policy.BOUNDED_STATES, w=64)], window_size=40
        )
        (run,) = result.runs
        assert all(w.rmse_fitness == 0 for w in run.windows)
        assert all(w.f1_classification == 1 for w in run.windows)

    def test_windows_tile_the_stream(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=5)
        result = evaluate_policies(
            net, events, [PolicyConfig(Policy.BASELINE)], window_size=37
        )
        (run,) = result.runs
        assert sum(w.events_in_window for w in run.windows) == len(events)
        assert [w.window_index for w in run.windows] == list(range(len(run.windows)))
        assert all(w.apte_us > 0 for w in run.windows)

    def test_bounded_policies_use_less_memory(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=7, cases=60)
        result = evaluate_policies(
            net,
            events,
            [
                PolicyConfig(Policy.BASELINE),
                PolicyConfig(Policy.COMBINED, w=3, n=8),
            ],
            window_size=60,
        )
        baseline, combined = result.runs
        for b, c in zip(baseline.windows, combined.windows):
            assert c.max_stored_states <= b.max_stored_states

    def test_search_count_reduction_on_bounded_states(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=11, cases=50, noise=0.5)
        result = evaluate_policies(
            net,
            events,
            [PolicyConfig(Policy.BASELINE), PolicyConfig(Policy.BOUNDED_STATES, w=3)],
            window_size=100,
        )
        baseline, bounded = result.runs
        assert bounded.search_count <= baseline.search_count

    def test_budget_failure_is_reported_per_policy(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=13)
        result = evaluate_policies(
            net,
            events,
            [PolicyConfig(Policy.BOUNDED_STATES, w=3), PolicyConfig(Policy.BASELINE)],
            window_size=50,
            search_budget=1,
            reference_search_budget=1_000_000,
        )
        # all rows come back despite the failures; each carries its error
        assert len(result.runs) == 2
        for run in result.runs:
            assert run.error is not None
            assert "budget" in run.error

    def test_reference_budget_failure_propagates(self):
        from streamcc import SearchBudgetExceeded

        net = cyclic_sequence_net(10)
        events = small_stream(seed=13)
        with pytest.raises(SearchBudgetExceeded):
            evaluate_policies(
                net,
                events,
                [PolicyConfig(Policy.BASELINE)],
                window_size=50,
                search_budget=1,
            )

    def test_rejects_empty_stream(self):
        net = cyclic_sequence_net(10)
        with pytest.raises(ValueError):
            evaluate_policies(net, [], [PolicyConfig(Policy.BASELINE)])

    @pytest.mark.parametrize(
        "policies, settings, message",
        [
            ([PolicyConfig(Policy.BASELINE)] * 2, {}, "'baseline' is listed twice"),
            ([], {}, "at least one policy"),
            ([PolicyConfig(Policy.BASELINE)], {"jobs": 0}, "jobs must be >= 1"),
            ([PolicyConfig(Policy.BASELINE)], {"jobs": -3}, "jobs must be >= 1"),
            ([PolicyConfig(Policy.BASELINE)], {"window_size": 0}, "window_size must be >= 1"),
            (
                [PolicyConfig(Policy.BASELINE), PolicyConfig(Policy.BOUNDED_STATES, w=2, cost_model=CostModel(log_cost=0.5))],
                {},
                "policies must share one cost model",
            ),
        ],
        ids=["duplicate", "no-policy", "jobs-0", "jobs-negative", "window-0", "mixed-cost-models"],
    )
    def test_bad_settings_rejected_before_any_replay(self, monkeypatch, policies, settings, message):
        def replayed(*args, **kwargs):
            raise AssertionError("the stream was replayed")

        monkeypatch.setattr(evaluation, "reference_costs", replayed)
        monkeypatch.setattr(evaluation, "_measured_pass", replayed)
        with pytest.raises(ValueError, match=message):
            evaluate_policies(cyclic_sequence_net(10), small_stream(), policies, **settings)


class TestMeasureApte:
    def test_reports_one_mean_per_window(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=17)
        result = evaluate_policies(
            net, events, [PolicyConfig(Policy.BASELINE)], window_size=50, replication=2
        )
        windows = result.runs[0].windows
        assert len(windows) == (len(events) + 49) // 50
        assert all(w.apte_us > 0 for w in windows)

    def test_rejects_bad_k(self):
        net = cyclic_sequence_net(10)
        for k in (0, -2):
            with pytest.raises(ValueError, match="replication"):
                evaluate_policies(
                    net, small_stream(), [PolicyConfig(Policy.BASELINE)], replication=k
                )

    def test_replicated_apte_feeds_window_stats(self):
        net = cyclic_sequence_net(10)
        events = small_stream(seed=19)
        result = evaluate_policies(
            net,
            events,
            [PolicyConfig(Policy.BASELINE), PolicyConfig(Policy.BOUNDED_STATES, w=3)],
            window_size=60,
            replication=2,
        )
        for run in result.runs:
            assert run.error is None
            assert all(w.apte_us > 0 for w in run.windows)
            # non-timing columns stay identical to a replication-free run
        single = evaluate_policies(
            net,
            events,
            [PolicyConfig(Policy.BASELINE), PolicyConfig(Policy.BOUNDED_STATES, w=3)],
            window_size=60,
        )
        for replicated, plain in zip(result.runs, single.runs):
            assert len(replicated.windows) == len(plain.windows)
            for a, b in zip(replicated.windows, plain.windows):
                assert (a.events_in_window, a.max_stored_states, a.rmse_fitness, a.f1_classification) == (
                    b.events_in_window,
                    b.max_stored_states,
                    b.rmse_fitness,
                    b.f1_classification,
                )
            # counts come from the first copy, not from all k copies
            assert replicated.search_count == plain.search_count
            assert replicated.extension_count == plain.extension_count


class TestExperimentConfig:
    def config_payload(self, tmp_path, **overrides):
        payload = {
            "model": "cycle.pnml",
            "synthetic": {"cases": 10, "open_cases": 3, "seed": 1},
            "policies": [{"policy": "baseline"}, {"policy": "bounded-states", "w": 2}],
            "window_size": 20,
            "output_dir": "out",
        }
        payload.update(overrides)
        (tmp_path / "cycle.pnml").write_text(to_pnml(cyclic_sequence_net(6)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_round_trip_and_run(self, tmp_path):
        path = self.config_payload(tmp_path)
        config = ExperimentConfig.from_json(path)
        assert config.window_size == 20
        assert len(config.policies) == 2
        result = run_experiment(config)
        assert len(result.runs) == 2
        written = write_results(result, tmp_path / "out", {})
        names = {p.name for p in written}
        assert "baseline.csv" in names
        assert "bounded-states-w2.csv" in names
        assert "manifest.json" in names
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["events_total"] == result.events_total
        csv_lines = (tmp_path / "out" / "baseline.csv").read_text().splitlines()
        assert csv_lines[0] == "window,events,max_states,rmse,f1,apte_us"
        assert len(csv_lines) == 1 + len(result.runs[0].windows)

    def test_invalid_policy_rejected(self, tmp_path):
        path = self.config_payload(tmp_path, policies=[{"policy": "nonsense"}])
        with pytest.raises(ParseError):
            ExperimentConfig.from_json(path)

    def test_w_zero_rejected(self, tmp_path):
        path = self.config_payload(
            tmp_path, policies=[{"policy": "bounded-states", "w": 0}]
        )
        with pytest.raises(ParseError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("key", ["w", "n"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_non_integer_limit_rejected(self, tmp_path, key, value):
        path = self.config_payload(tmp_path, policies=[{"policy": "combined", "w": 2, "n": 3, key: value}])
        with pytest.raises(ParseError, match=f"'{key}' must be an integer"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("key", ["window_size", "replication", "search_budget"])
    def test_non_integer_setting_rejected(self, tmp_path, key):
        path = self.config_payload(tmp_path, **{key: 20.5})
        with pytest.raises(ParseError, match=f"'{key}' must be an integer"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_that_cannot_search_rejected(self, tmp_path, budget):
        path = self.config_payload(tmp_path, search_budget=budget)
        with pytest.raises(ParseError, match=f"search budget must be at least 1 expansion, not {budget}"):
            ExperimentConfig.from_json(path)

    def test_duplicate_policy_rejected(self, tmp_path):
        entry = {"policy": "bounded-states", "w": 2}
        path = self.config_payload(tmp_path, policies=[{"policy": "baseline"}, entry, dict(entry)])
        with pytest.raises(ParseError, match="bounded-states-w2"):
            ExperimentConfig.from_json(path)

    def test_log_and_synthetic_mutually_exclusive(self, tmp_path):
        path = self.config_payload(tmp_path, log="whatever.csv")
        with pytest.raises(ParseError):
            ExperimentConfig.from_json(path)

    def test_policy_names_are_the_typed_spellings(self, tmp_path):
        names = ["baseline", "bounded-states", "bounded-cases", "combined"]
        assert [p.value for p in Policy] == names
        path = self.config_payload(
            tmp_path,
            policies=[
                {"policy": "baseline"},
                {"policy": "bounded-states", "w": 2},
                {"policy": "bounded-cases", "n": 3},
                {"policy": "combined", "w": 2, "n": 3},
            ],
        )
        config = ExperimentConfig.from_json(path)
        assert [p.policy.value for p in config.policies] == names
        echo = evaluation.config_echo(config)
        assert [entry["policy"] for entry in echo["policies"]] == names

    @pytest.mark.parametrize("name", ["bounded_states", "bounded_cases", "Baseline", None])
    def test_other_policy_spellings_rejected_with_the_valid_names(self, tmp_path, name):
        path = self.config_payload(tmp_path, policies=[{"policy": name, "w": 2, "n": 3}])
        with pytest.raises(ParseError, match="valid names: baseline, bounded-states, bounded-cases, combined"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("entry", ["baseline", ["baseline"]])
    def test_policy_entry_must_be_an_object(self, tmp_path, entry):
        path = self.config_payload(tmp_path, policies=[entry])
        with pytest.raises(ParseError, match="policy entry must be an object"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_length", 10.5),
            ("cases", "10"),
            ("seed", True),
            ("noise_probability", True),
            ("long_fraction", "0.5"),
            ("kinds", "alien"),
            ("kinds", ["alien", 1]),
            ("start", 20211001),
            ("start", "1 October 2021"),
        ],
    )
    def test_bad_synthetic_value_rejected(self, tmp_path, field, value):
        synthetic = {"cases": 10, "open_cases": 3, "seed": 1, field: value}
        path = self.config_payload(tmp_path, synthetic=synthetic)
        with pytest.raises(ParseError, match=f"'synthetic.{field}' must be"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("synthetic", [{"cases": 10, "colour": "red"}, [10, 3]])
    def test_synthetic_block_must_be_an_object_of_stream_spec_fields(self, tmp_path, synthetic):
        path = self.config_payload(tmp_path, synthetic=synthetic)
        with pytest.raises(ParseError, match="synthetic"):
            ExperimentConfig.from_json(path)

    def test_synthetic_start_uses_the_log_timestamp_format(self, tmp_path):
        synthetic = {"cases": 10, "open_cases": 3, "seed": 1, "start": "2021-10-01 08:00"}
        config = ExperimentConfig.from_json(self.config_payload(tmp_path, synthetic=synthetic))
        assert config.synthetic.start == datetime(2021, 10, 1, 8, 0)
        result = run_experiment(config)
        assert [run.error for run in result.runs] == [None, None]

    def test_every_stream_spec_field_reads_back_from_json(self, tmp_path):
        spec = StreamSpec(cases=12, long_fraction=0.25, kinds=("skip",), start=datetime(2022, 1, 2, 3, 4, 5))
        fields = asdict(spec)
        fields["start"] = spec.start.isoformat()
        config = ExperimentConfig.from_json(self.config_payload(tmp_path, synthetic={**fields, "seed": 4}))
        assert config.synthetic == spec
        assert config.synthetic_seed == 4

    def test_xes_log_read_by_its_suffix(self, tmp_path):
        events = "".join(
            f'<event><string key="concept:name" value="A{i}"/>'
            f'<date key="time:timestamp" value="2021-10-01T08:0{i}:00"/></event>'
            for i in range(6)
        )
        xes = f'<log><trace><string key="concept:name" value="c1"/>{events}</trace></log>'
        (tmp_path / "stream.XES").write_text(xes)
        config = ExperimentConfig.from_json(self.config_payload(tmp_path, synthetic=None, log="stream.XES"))
        _, stream = evaluation.load_experiment_inputs(config)
        assert [(e.case_id, e.activity) for e in stream] == [("c1", f"A{i}") for i in range(6)]


def _read_sidecar(tmp_path, final):
    path = tmp_path / "cycle.final.json"
    path.write_text(json.dumps({"final_marking": final}))
    return load_final_marking_sidecar(path)


@pytest.mark.parametrize("read", [_read_sidecar], ids=["sidecar"])
class TestFinalMarkingReaders:
    """A final-marking sidecar's counts are JSON integers, checked place by place."""

    def test_integer_counts_read(self, tmp_path, read):
        assert read(tmp_path, {"s0": 1, "s3": 2}) == {"s0": 1, "s3": 2}

    @pytest.mark.parametrize("count", [2.5, True, "1"], ids=["fraction", "boolean", "string"])
    def test_non_integer_count_rejected_naming_the_place(self, tmp_path, read, count):
        with pytest.raises(ParseError, match=r"'final_marking\.s0' must be an integer"):
            read(tmp_path, {"s0": count})

    @pytest.mark.parametrize("final", [["s0"], 1, "s0"])
    def test_non_object_rejected(self, tmp_path, read, final):
        with pytest.raises(ParseError, match="'final_marking' must be an object"):
            read(tmp_path, final)
