"""Counts the API accepts are ints, checked before any work starts.

A float count used to fail deep inside the work it sizes (a list index,
a ``range``), and a bool passed as 1. Each count is now checked by
``errors.check_int``, which raises one ValueError text, before its own
lower bound, whose message is unchanged.
"""

from __future__ import annotations

import pytest

from streamcc import (
    Policy,
    PolicyConfig,
    StreamSpec,
    cyclic_sequence_net,
    evaluate_policies,
    generate_log,
    replay,
    replicate_events,
)
from streamcc import errors, evaluation


@pytest.mark.parametrize("value", [2.5, True, False, "3", None])
def test_check_int_rejects_what_is_not_an_int(value):
    with pytest.raises(ValueError, match=rf"^limit w must be an int, not {value!r}$"):
        errors.check_int(value, "limit w")


@pytest.mark.parametrize("value", [0, -1, 7, 2**70])
def test_check_int_leaves_lower_bounds_to_its_caller(value):
    errors.check_int(value, "n")


def _events():
    return list(replay(generate_log(StreamSpec(cases=6, open_cases=2, base_length=4), seed=1)))


@pytest.mark.parametrize("name", ["window_size", "replication", "jobs"])
@pytest.mark.parametrize("value", [2.5, True])
def test_run_settings_are_ints_checked_before_the_reference_pass(monkeypatch, name, value):
    def replayed(*args, **kwargs):
        raise AssertionError("the stream was replayed")

    monkeypatch.setattr(evaluation, "reference_costs", replayed)
    monkeypatch.setattr(evaluation, "_measured_pass", replayed)
    # two policies, so that jobs would size a process pool
    policies = [PolicyConfig(Policy.BASELINE), PolicyConfig(Policy.BOUNDED_STATES, w=2)]
    with pytest.raises(ValueError, match=rf"^{name} must be an int, not {value!r}$"):
        evaluate_policies(cyclic_sequence_net(10), _events(), policies, **{name: value})


@pytest.mark.parametrize("name", ["window_size", "replication", "jobs"])
def test_run_settings_below_one_keep_their_message(name):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1$"):
        evaluate_policies(cyclic_sequence_net(10), _events(), [PolicyConfig(Policy.BASELINE)], **{name: 0})


@pytest.mark.parametrize("field", ["cases", "open_cases"])
@pytest.mark.parametrize("value", [2.5, 1.5, True])
def test_stream_spec_counts_are_ints(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an int, not {value!r}$"):
        StreamSpec(**{field: value})


def test_stream_spec_counts_below_one_keep_their_message():
    with pytest.raises(ValueError, match=r"^cases and open_cases must be >= 1$"):
        StreamSpec(open_cases=0)


@pytest.mark.parametrize(
    "k, message",
    [
        (1.5, r"^replication count must be an int, not 1\.5$"),
        (True, r"^replication count must be an int, not True$"),
        (0, r"^replication count must be >= 1$"),
    ],
)
def test_replicate_events_checks_k_on_the_call(k, message):
    with pytest.raises(ValueError, match=message):
        replicate_events(_events(), k)  # not iterated


@pytest.mark.parametrize("steps", [2.5, 10.0])
def test_cyclic_sequence_net_steps_are_ints(steps):
    with pytest.raises(ValueError, match=rf"^steps must be an int, not {steps!r}$"):
        cyclic_sequence_net(steps)


def test_cyclic_sequence_net_below_two_keeps_its_message():
    with pytest.raises(ValueError, match=r"^steps must be >= 2$"):
        cyclic_sequence_net(1)
