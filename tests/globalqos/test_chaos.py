"""The coordinator chaos harnesses: every documented seed is clean."""

import pytest

from repro.common.errors import ConfigError
from repro.globalqos.chaos import (
    DEFAULT_SEEDS,
    run_coord_chaos,
    run_partition_chaos,
)


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_documented_seed_has_no_violations(seed, chaos_runs):
    report = chaos_runs.report("coord", seed)
    assert report.ok, report.violations
    # The run actually exercised the ladder, not just a quiet cluster.
    assert report.fallbacks >= 1
    assert report.rebalances >= 2  # pre-crash and post-recovery
    assert report.epochs_skipped >= 1
    assert report.puts_acked > 0
    assert report.rebinds >= 1


def test_chaos_is_deterministic():
    first = run_coord_chaos(DEFAULT_SEEDS[0])
    second = run_coord_chaos(DEFAULT_SEEDS[0])
    assert first == second


def test_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        run_coord_chaos(11, periods=5)


# ---------------------------------------------------------------------------
# Partition + fail-slow chaos (the HA failover harness)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_partition_seed_has_no_violations(seed, chaos_runs):
    report = chaos_runs.report("partition", seed)
    assert report.ok, report.violations
    # The failover story actually played out, on every seed:
    # exactly one bounded takeover, at least one step-down, the
    # deposed leader's updates fenced with zero stale applications.
    assert report.takeovers == 1
    assert report.stepdowns >= 1
    assert report.fenced_updates >= 1
    assert report.stale_rejected == 0
    # The gray node went through the full quarantine cycle.
    assert report.quarantines >= 1
    assert report.unquarantines == report.quarantines
    # Both fault families fired.
    assert report.partitions_cut >= 1
    assert report.slowdowns_applied == 1
    assert report.puts_acked > 0


def test_partition_chaos_is_deterministic():
    first = run_partition_chaos(DEFAULT_SEEDS[0])
    second = run_partition_chaos(DEFAULT_SEEDS[0])
    assert first == second


def test_partition_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        run_partition_chaos(11, periods=20)
