"""Request generators: a pure function of the seed, different across seeds."""
from collections import Counter

import pytest

from checks import parse_catalog_request
from workloads import (
    CATALOG_STRATA, COLD_RANK_CAP, COLD_STRATA, VERIFY_CASES, VERIFY_FIRST, WORKLOADS, digest,
    make_deck,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    assert make_deck(workload, 7) == make_deck(workload, 7)
    assert digest(make_deck(workload, 7)) == digest(make_deck(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_differ(workload):
    digests = {digest(make_deck(workload, seed)) for seed in range(10)}
    assert len(digests) == 10


def test_catalog_deck_has_one_request_per_stratum_slot():
    per_deck = sum(n for _, n, _ in CATALOG_STRATA)
    for deck in (make_deck("catalog_queries", seed) for seed in range(3)):
        assert len(deck) == per_deck
        reqs = [parse_catalog_request(argv) for argv in deck]
        assert sum(r.golden for r in reqs) == 1
        labels = Counter(
            "exceptional" if f[0] in "EFG" else "classical"
            for r in reqs for f in r.families if len(f) > 1
        )
        assert labels == {"exceptional": 7, "classical": 1}
        for r in reqs:
            assert 1 <= r.rank_cap <= 8
            # a label never shares its letter with a bare letter of the same request
            bare = {f for f in r.families if len(f) == 1}
            assert not {f[0] for f in r.families if len(f) > 1} & bare


def test_catalog_decks_cover_the_parameter_space():
    reqs = [parse_catalog_request(a) for seed in range(8) for a in make_deck("catalog_queries", seed)]
    assert {r.rank_cap for r in reqs} == set(range(1, 9))
    assert {r.fmt for r in reqs} == {"text", "json", "csv"}
    assert {f[0] for r in reqs for f in r.families} == set("ABCDEFG")
    assert {c for r in reqs for c in r.classes} == {
        "hermitian", "symmetric", "nearly-kaehler", "5-symmetric", "stiefel"
    }
    assert any(r.simple_k for r in reqs) and not all(r.simple_k for r in reqs)


def test_verify_deck_runs_every_case_with_default_settings():
    orders = set()
    for deck in (make_deck("verify_jobs", seed) for seed in range(6)):
        assert Counter(argv[1] for argv in deck) == VERIFY_CASES
        assert deck[0][1] == VERIFY_FIRST
        orders.add(tuple(argv[1] for argv in deck))
        for argv in deck:
            assert argv[0] == "verify"
            assert not {"--samples", "--restarts"} & set(argv)
            assert not any(a.startswith("--tol") for a in argv)
    assert len(orders) > 1


def test_cold_deck_stays_within_the_cold_reference():
    per_deck = sum(n for _, n, _ in COLD_STRATA)
    for seed in range(8):
        deck = make_deck("cold_cli", seed)
        assert len(deck) == per_deck
        for argv in deck:
            r = parse_catalog_request(argv)
            assert not r.golden
            # every record a request can select has rank <= COLD_RANK_CAP
            assert r.rank_cap <= COLD_RANK_CAP or (
                r.families and {f[0] for f in r.families} <= set("FG")
            )
            # no classical letter+rank label: their known defect is on
            # catalog_queries
            assert all(len(f) == 1 or f[0] in "EFG" for f in r.families)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        make_deck("warm_cli", 1)
