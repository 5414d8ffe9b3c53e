"""Event semantics."""

import pytest

from repro.sim import Event


def test_succeed_delivers_value_to_callbacks(sim):
    ev = Event(sim)
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    assert got == [42]
    assert ev.ok


def test_callback_added_after_trigger_runs_immediately(sim):
    ev = Event(sim)
    ev.succeed("done")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["done"]


def test_double_trigger_raises(sim):
    ev = Event(sim)
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_records_exception(sim):
    ev = Event(sim)
    err = RuntimeError("boom")
    ev.fail(err)
    assert not ev.ok
    assert ev.exception is err


def test_fail_requires_exception_instance(sim):
    ev = Event(sim)
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callbacks_run_in_registration_order(sim):
    ev = Event(sim)
    order = []
    ev.add_callback(lambda e: order.append(1))
    ev.add_callback(lambda e: order.append(2))
    ev.succeed()
    assert order == [1, 2]
