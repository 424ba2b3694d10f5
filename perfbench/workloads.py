"""Seeded request decks for the isofib benchmark.

A deck is the unit of work of one workload: a run issues its seed's deck
in whole passes, over and over, until the run's time is up.  Every
catalog deck holds one request per stratum slot (CATALOG_STRATA for warm
requests, COLD_STRATA for cold ones), and strata group requests of
similar cost, so every deck has the same cost profile:
the seed picks the request inside each stratum (families, letter+rank
labels, classes, rank caps), --simple-k, the output format and the order.
Drawing every parameter freely instead lets one seed's deck cost twice
another's and moves the median request between a 2 ms and a 300 ms
query, which no affordable run length could average out.

Only the generated argument lists reach the program.  Stdlib only: the
orchestrator imports this module without importing isofib.
"""
from __future__ import annotations

import hashlib
import json
import random

FORMATS = ("text", "json", "csv")
CLASSES = ("hermitian", "symmetric", "nearly-kaehler", "5-symmetric", "stiefel")
LETTERS = "ABCDEFG"
EXCEPTIONAL_LABELS = ("E6", "E7", "E8", "F4", "G2")
# lowest rank the catalog scopes per family letter
_RANK_LO = {"A": 1, "B": 2, "C": 3, "D": 4}


def _cap(rng: random.Random, lo: int, hi: int) -> list[str]:
    return ["--rank-cap", str(rng.randint(lo, hi))]


def _pick(*alternatives: list[str]):
    return lambda rng: list(rng.choice(alternatives))


def _classical_label(rng: random.Random) -> list[str]:
    # a label of A, B or C; the program enumerates the whole letter up to
    # the cap either way, so the cost does not depend on the rank drawn
    letter, cap = rng.choice((("A", 7), ("B", 8), ("C", 8)))
    rank = rng.randint(_RANK_LO[letter], cap)
    return ["--family", f"{letter}{rank}", "--rank-cap", str(cap)]


def _e_label(rng: random.Random) -> list[str]:
    args = ["--family", rng.choice(("E6", "E7", "E8"))]
    if rng.random() < 0.5:
        args += ["--family", rng.choice("FG")]
    if rng.random() < 0.5:
        args += ["--rank-cap", "8"]
    return args


def _small_exceptional_label(rng: random.Random) -> list[str]:
    label = rng.choice(("F4", "G2"))
    args = ["--family", label]
    if rng.random() < 0.5:
        # a bare letter next to a label of the same letter has no documented
        # meaning, so the companion is always another letter
        args += ["--family", "G" if label == "F4" else "F"]
    return args + _cap(rng, 1, 8)


def _cheap(rng: random.Random) -> list[str]:
    kind = rng.randrange(4)
    if kind == 0:
        args = []
        for letter in rng.sample(LETTERS, rng.choice((1, 2))):
            args += ["--family", letter]
        return args + _cap(rng, 1, 3)
    if kind == 1:
        return ["--class", rng.choice(("nearly-kaehler", "5-symmetric", "stiefel"))] + _cap(rng, 1, 8)
    if kind == 2:
        return ["--family", rng.choice("FG")] + _cap(rng, 1, 8)
    return _cap(rng, 1, 3)


# (stratum, requests per deck, generator); warm costs on a 2-core x86 VM.
# The median of a deck falls in the middle of the `e_label` block: six
# requests of equal enumeration cost (an E label makes the program
# enumerate all of E up to the cap), with seven requests above it and
# seven below.
CATALOG_STRATA = (
    ("golden", 1, _pick(["--golden"])),  # ~2 s: two full catalogs + diff
    ("full", 2, _pick([], ["--rank-cap", "8"])),  # ~1 s
    ("600ms", 1, _pick(["--family", "A"], ["--class", "hermitian"], ["--rank-cap", "7"])),
    ("350ms", 1, _pick(
        ["--family", "D"],
        ["--family", "A", "--rank-cap", "7"],
        ["--class", "hermitian", "--rank-cap", "7"],
        ["--class", "symmetric", "--rank-cap", "7"],
    )),
    ("classical_label", 1, _classical_label),  # 250-320 ms
    ("250ms", 1, _pick(
        ["--family", "B"], ["--family", "C"], ["--rank-cap", "6"],
        ["--family", "D", "--rank-cap", "7"],
    )),
    ("e_label", 6, _e_label),  # ~110 ms
    ("50ms", 3, _pick(
        ["--rank-cap", "4"],
        ["--family", "A", "--rank-cap", "4"],
        ["--family", "B", "--rank-cap", "5"],
        ["--family", "C", "--rank-cap", "5"],
        ["--family", "D", "--rank-cap", "5"],
    )),
    ("small_label", 1, _small_exceptional_label),  # ~5 ms
    ("cheap", 3, _cheap),  # 1-10 ms
)

# Cold requests stay within COLD_RANK_CAP, so the reference they are
# checked against costs a cold worker about 1.5 s rather than the ~8 s of
# the full catalog.  Cold costs on a 2-core x86 VM, most of it the
# interpreter start and the numpy/scipy import (~0.6 s); the median of a
# deck falls in the `family_to_5` block.
COLD_RANK_CAP = 5
COLD_STRATA = (
    # a class filter is applied after the whole enumeration to the cap
    ("1.6s", 2, lambda rng: rng.choice(([], ["--class", rng.choice(CLASSES)])) + ["--rank-cap", "5"]),
    ("1.1s", 1, _pick(
        ["--rank-cap", "4"],
        ["--class", "hermitian", "--rank-cap", "4"],
        ["--class", "symmetric", "--rank-cap", "4"],
    )),
    ("family_to_5", 3, lambda rng: ["--family", rng.choice("ABCD"), "--rank-cap", "5"]),
    ("0.8s", 2, _pick(
        ["--family", "G"],
        ["--family", "F"],
        ["--family", "F", "--family", "G", "--rank-cap", "4"],
        ["--rank-cap", "2"],
        ["--rank-cap", "3"],
        ["--family", "G2", "--family", "B", "--rank-cap", "3"],
    )),
)

# case -> requests per deck, each with its own seeded --seed.  Measured
# on a 2-core x86 VM: su3-hopf 4-5 s, su3-su1u2--k1-t1 ~6 s, so6-stiefel
# 6-8 s, so8-so3so5--k1-0so3 22-26 s.  A verify job's cost varies by
# 10-20% with its --seed; with one request of each the deck's median
# rested on two requests and spread up to 0.2 over ten runs, so the two
# middle-cost cases run twice.  The slowest case always goes first: it
# takes the cold catalog lookup (see worker.py) and is the deck's maximum
# either way, so the lookup does not move the median.
VERIFY_CASES = {
    "su3-hopf": 1,
    "su3-su1u2--k1-t1": 2,
    "so6-stiefel": 2,
    "so8-so3so5--k1-0so3": 1,
}
VERIFY_FIRST = "so8-so3so5--k1-0so3"

WORKLOADS = ("catalog_queries", "verify_jobs", "cold_cli")

# printed and recorded with every result; measured on a 2-core x86 VM
NOT_COVERED = (
    "verify on SU(4) and larger, for run length: su4-su2u2--k1-0a1-t1 18-26 s, "
    "su4-su1u3--k1-t1 over 270 s (so8-so3so5--k1-0so3, 22-26 s, is kept)",
    "cold CLI requests above rank cap 5, for run length: a cold full catalog "
    "takes ~8-10 s, catalog --golden ~11 s, selfcheck ~13 s (so weyl_order_bfs "
    "is not run); cold_cli runs filtered catalogs up to rank 5",
)


def catalog_deck(rng: random.Random, strata=CATALOG_STRATA) -> list[list[str]]:
    gens = [gen for _, n, gen in strata for _ in range(n)]
    rng.shuffle(gens)
    deck = []
    for gen in gens:
        args = ["catalog"] + gen(rng)
        if rng.random() < 0.5:
            args.append("--simple-k")
        deck.append(args + ["--format", rng.choice(FORMATS)])
    return deck


def verify_deck(rng: random.Random) -> list[list[str]]:
    cases = [case for case, n in VERIFY_CASES.items() for _ in range(n)]
    cases.remove(VERIFY_FIRST)
    rng.shuffle(cases)
    cases.insert(0, VERIFY_FIRST)
    return [
        ["verify", case, "--seed", str(rng.randint(0, 9999)), "--format", "json"]
        for case in cases
    ]


def make_deck(workload: str, seed: int) -> list[list[str]]:
    """The deck of `workload` for `seed`; a pure function of the two."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"isofib-perfbench/{workload}/{seed}")
    if workload == "verify_jobs":
        return verify_deck(rng)
    return catalog_deck(rng, COLD_STRATA if workload == "cold_cli" else CATALOG_STRATA)


def digest(requests: list) -> str:
    blob = json.dumps(requests, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]
