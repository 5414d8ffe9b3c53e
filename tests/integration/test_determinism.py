"""The determinism guard, pinned.

Recomputes every family of :data:`repro.cluster.determinism.FAMILIES`
on its seeds and compares the digests against the committed reference
(``benchmarks/results/determinism_hashes.json``).  A failure here means
simulated *behaviour* changed — an event reorder, a float that took a
different path, an RNG consumed at a different point.  If the change
was intentional, regenerate the reference with

    PYTHONPATH=src python -m repro.cluster.determinism \
        --write benchmarks/results/determinism_hashes.json

and say so in the commit message.  If it was not intentional (a
"pure" refactor or performance change), the change is wrong — fix it,
not the reference.

Each family's run is shared through the session's ``chaos_runs`` memo,
so the chaos families' digests reuse the runs the invariant tests and
chaos pins already paid for.
"""

import pytest

from repro.cluster.determinism import (
    CANONICAL_SEEDS,
    FAMILIES,
    SEED_FAULTS,
    load_reference,
)


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def _assert_covers(reference, family):
    assert sorted(reference[family]) == sorted(
        str(s) for s in FAMILIES[family].seeds
    )


def _assert_matches(chaos_runs, reference, family, seed):
    digest = chaos_runs.digest(family, seed)
    expected = reference[family][str(seed)]
    # Compare the parts before the combined hash so a mismatch names
    # the stream that moved (metrics vs ledger vs results).
    for part in FAMILIES[family].parts:
        assert digest[part] == expected[part], (
            f"{family} seed {seed}: {part} digest changed -- simulated "
            f"behaviour is no longer bit-identical to the committed "
            f"reference"
        )
    return digest


def test_table_covers_every_reference_family(reference):
    assert sorted(FAMILIES) == sorted(reference)


def test_reference_covers_every_canonical_seed(reference):
    _assert_covers(reference, "seeds")
    assert FAMILIES["seeds"].seeds == CANONICAL_SEEDS
    assert sorted(SEED_FAULTS) == sorted(CANONICAL_SEEDS)


def test_globalqos_reference_covers_every_seed(reference):
    _assert_covers(reference, "globalqos")


def test_partition_reference_covers_every_seed(reference):
    _assert_covers(reference, "partition")


def test_policy_reference_covers_every_seed(reference):
    _assert_covers(reference, "policy")


def test_scale_reference_covers_every_seed(reference):
    _assert_covers(reference, "scale")


def test_fabric_reference_covers_every_seed(reference):
    _assert_covers(reference, "fabric")


@pytest.mark.parametrize("seed", FAMILIES["seeds"].seeds)
def test_digest_matches_committed_reference(seed, chaos_runs, reference):
    _assert_matches(chaos_runs, reference, "seeds", seed)


@pytest.mark.parametrize("seed", FAMILIES["globalqos"].seeds)
def test_globalqos_digest_matches_committed_reference(
    seed, chaos_runs, reference
):
    _assert_matches(chaos_runs, reference, "globalqos", seed)


@pytest.mark.parametrize("seed", FAMILIES["partition"].seeds)
def test_partition_digest_matches_committed_reference(
    seed, chaos_runs, reference
):
    _assert_matches(chaos_runs, reference, "partition", seed)


@pytest.mark.parametrize("seed", FAMILIES["policy"].seeds)
def test_policy_digest_matches_committed_reference(
    seed, chaos_runs, reference
):
    _assert_matches(chaos_runs, reference, "policy", seed)


@pytest.mark.parametrize("seed", FAMILIES["scale"].seeds)
def test_scale_digest_matches_committed_reference(
    seed, chaos_runs, reference
):
    digest = _assert_matches(chaos_runs, reference, "scale", seed)
    # The recorded approximation quality holds, not just the hash: the
    # equivalence check passed inside the committed tolerance tier.
    expected = reference["scale"][str(seed)]
    assert digest["equivalence_ok"] is True
    assert digest["tolerance_tier"] == expected["tolerance_tier"]
    assert digest["max_error"] <= digest["tolerance_tier"]


@pytest.mark.parametrize("seed", FAMILIES["fabric"].seeds)
def test_fabric_digest_matches_committed_reference(
    seed, chaos_runs, reference
):
    _assert_matches(chaos_runs, reference, "fabric", seed)
