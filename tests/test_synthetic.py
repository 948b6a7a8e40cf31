from __future__ import annotations

import math
import re
from datetime import date

import pytest

from streamcc import ConformanceEngine, StreamSpec, cyclic_sequence_net, generate_log, replay
from streamcc.synthetic import ALIEN_ACTIVITY, step_label

from oracles import peak_concurrent_cases, replay_outcomes


# a StreamSpec field, a value it refuses and the message that says why
BAD_FIELDS = [
    # a cycle of fewer than two steps divides by zero or is no net
    ("model_steps", 0, "model_steps must be >= 2, not 0"),
    ("model_steps", 1, "model_steps must be >= 2, not 1"),
    # labels A0.0, A1.0, ... that no model step carries
    ("model_steps", 2.5, "model_steps must be an int, not 2.5"),
    # an empty range for the edit count
    ("max_edits", 0, "max_edits must be >= 1, not 0"),
    ("base_length", 0, "base_length must be >= 1, not 0"),
    ("base_length", True, "base_length must be an int, not True"),
    ("long_length", 0, "long_length must be >= 1, not 0"),
    ("length_jitter", -3, "length_jitter must be >= 0, not -3"),
    ("min_gap", -1, "min_gap must be >= 0, not -1"),
    ("step_seconds", 2.5, "step_seconds must be an int, not 2.5"),
    ("step_seconds", -1, "step_seconds must be >= 0, not -1"),
    ("noise_probability", 1.5, "noise_probability must lie in [0, 1], not 1.5"),
    ("noise_probability", -0.5, "noise_probability must lie in [0, 1], not -0.5"),
    ("noise_probability", math.nan, "noise_probability must lie in [0, 1], not nan"),
    ("long_fraction", 1.5, "long_fraction must lie in [0, 1], not 1.5"),
    ("long_fraction", math.nan, "long_fraction must lie in [0, 1], not nan"),
    ("noise_probability", True, "noise_probability must be a number, not True"),
    ("long_fraction", "0.5", "long_fraction must be a number, not '0.5'"),
    # the generator adds timedeltas to it; a string raised TypeError from inside generate_log
    ("start", "2021-10-01", "start must be a datetime, not '2021-10-01'"),
    ("start", date(2021, 10, 1), "start must be a datetime, not datetime.date(2021, 10, 1)"),
]


class TestCyclicSequenceNet:
    def test_structure(self):
        net = cyclic_sequence_net(4)
        assert len(net.places) == 4
        assert len(net.transitions) == 4
        assert net.labels["t2"] == "A2"
        assert net.initial_marking == net.final_marking

    def test_conformant_laps(self):
        net = cyclic_sequence_net(4)
        marking = net.initial_marking
        for i in range(8):  # two full laps
            marking = net.fire(marking, f"t{i % 4}")
        assert net.is_final(marking)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            cyclic_sequence_net(1)


class TestGenerateLog:
    def test_activities_are_the_model_labels(self):
        labels = set(cyclic_sequence_net(6).labels.values())
        assert labels == {step_label(i) for i in range(6)}
        log = generate_log(StreamSpec(cases=10, open_cases=3, model_steps=6), seed=2)
        assert {e.activity for e in log.events} <= labels | {ALIEN_ACTIVITY}

    def test_deterministic_for_seed(self):
        spec = StreamSpec(cases=20, open_cases=5)
        a = generate_log(spec, seed=3)
        b = generate_log(spec, seed=3)
        assert a == b
        c = generate_log(spec, seed=4)
        assert a != c

    def test_noise_free_stream_is_fully_conformant(self):
        spec = StreamSpec(cases=15, open_cases=4, noise_probability=0.0)
        log = generate_log(spec, seed=1)
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net)
        outcomes = list(replay_outcomes(engine, replay(log)))
        assert all(o.effective_cost == 0 for o in outcomes)
        assert engine.search_count == 0

    def test_noisy_stream_has_nonconformant_cases(self):
        spec = StreamSpec(cases=30, open_cases=6, noise_probability=0.8)
        log = generate_log(spec, seed=2)
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net)
        outcomes = list(replay_outcomes(engine, replay(log)))
        assert any(o.effective_cost > 0 for o in outcomes)

    def test_open_case_pool_is_respected(self):
        spec = StreamSpec(cases=50, open_cases=12, noise_probability=0.0)
        log = generate_log(spec, seed=5)
        assert peak_concurrent_cases(log) >= 12

    def test_timestamps_strictly_increase(self):
        log = generate_log(StreamSpec(cases=10, open_cases=3), seed=6)
        stamps = [e.timestamp for e in log.events]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_long_fraction_creates_tail(self):
        spec = StreamSpec(
            cases=60, open_cases=10, long_fraction=0.2, long_length=40, noise_probability=0.0
        )
        log = generate_log(spec, seed=7)
        lengths = {}
        for event in log.events:
            lengths[event.case_id] = lengths.get(event.case_id, 0) + 1
        assert max(lengths.values()) >= 30

    def test_rejects_unknown_noise_kind(self):
        with pytest.raises(ValueError):
            StreamSpec(kinds=("alien", "chaos"))

    @pytest.mark.parametrize(
        "field, value, message", BAD_FIELDS, ids=[f"{field}={value}" for field, value, _ in BAD_FIELDS]
    )
    def test_rejects_a_field_out_of_its_range(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StreamSpec(cases=3, open_cases=2, **{field: value})

    def test_fields_at_their_limits_generate_a_log(self):
        fewest = StreamSpec(
            cases=3, open_cases=2, base_length=1, length_jitter=0, long_length=1, max_edits=1,
            min_gap=0, model_steps=2, step_seconds=0, noise_probability=1.0, long_fraction=1.0,
        )
        log = generate_log(fewest, seed=1)
        assert {event.case_id for event in log.events} == {"c1", "c2", "c3"}
        assert len({event.timestamp for event in log.events}) == 1
        assert {event.activity for event in log.events} <= {"A0", "A1", ALIEN_ACTIVITY}
