"""Rolling policy updates under failover chaos: every seed is clean."""

import pytest

from repro.common.errors import ConfigError
from repro.globalqos.chaos import DEFAULT_SEEDS, run_policy_chaos


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_documented_seed_has_no_violations(seed, chaos_runs):
    report = chaos_runs.report("policy", seed)
    assert report.ok, report.violations
    # The flip actually rode a failover: exactly one bounded takeover,
    # revision 2 live at run end.
    assert report.takeovers == 1
    assert report.takeover_epoch <= report.flip_epoch
    assert report.submitted_version == 2
    # Exactly-once application per client (8 clients in the skew
    # scenario), with both losing paths observed: the deposed leader's
    # push fenced by term, the acting leader's re-pushes stale-rejected.
    assert report.policy_applies == 8
    assert report.policy_fenced >= 1
    assert report.policy_stale_rejected >= 1
    assert report.policy_pushes > report.policy_applies
    # The data path stayed live throughout.
    assert report.puts_acked > 0
    assert report.rebalances >= 2


def test_policy_chaos_is_deterministic():
    first = run_policy_chaos(DEFAULT_SEEDS[0])
    second = run_policy_chaos(DEFAULT_SEEDS[0])
    assert first == second


def test_too_short_run_rejected():
    with pytest.raises(ConfigError, match="periods"):
        run_policy_chaos(11, periods=20)
