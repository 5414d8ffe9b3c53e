"""Pin test: the oracle-registry refactor changed no chaos verdict.

``tests/data/chaos_pin_*.json`` hold ``dataclasses.asdict`` snapshots
of chaos reports captured BEFORE both harnesses' ``_check_invariants``
were rebuilt on :mod:`repro.hunt.oracles`.  Field-for-field equality
here proves the dedup was behavior-preserving — message text included.
"""

import dataclasses
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent.parent / "data"


def _load(name):
    with open(DATA / name) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", [11, 23])
def test_recovery_chaos_reports_are_pinned(seed, chaos_runs):
    expected = _load("chaos_pin_recovery.json")[str(seed)]
    got = dataclasses.asdict(chaos_runs.report("recovery", seed))
    assert got == expected


def test_globalqos_chaos_report_is_pinned(chaos_runs):
    expected = _load("chaos_pin_globalqos.json")["11"]
    got = dataclasses.asdict(chaos_runs.report("coord", 11))
    assert got == expected
