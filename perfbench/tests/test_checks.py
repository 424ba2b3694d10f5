"""The output checker accepts the program's real responses and rejects
tampered ones.  The reference here is the catalog up to rank 3, so every
request stays within rank cap 3."""
import copy
import io
import json
import contextlib

import pytest

from checks import check_response, reference_records
from isofib import cli, dynkin


@pytest.fixture(scope="module")
def reference():
    res = dynkin.catalog(dynkin.CatalogConfig(rank_cap=3, include_simple_k=True))
    return reference_records(res.records, dynkin.record_to_dict)


def respond(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "filters",
    [
        ["--family", "A"],
        ["--family", "B", "--family", "G"],
        ["--family", "G2", "--family", "C"],
        ["--class", "stiefel"],
        ["--class", "hermitian", "--class", "symmetric", "--simple-k"],
        [],
    ],
)
def test_real_responses_pass(reference, filters, fmt):
    argv = ["catalog", *filters, "--rank-cap", "3", "--format", fmt]
    rc, text = respond(argv)
    v = check_response(argv, rc, text, reference)
    assert v.ok, v.reasons


def _tamper_json(argv, reference, edit):
    rc, text = respond(argv)
    payload = json.loads(text)
    edit(payload)
    return check_response(argv, rc, json.dumps(payload), reference)


def test_record_from_excluded_family_rejected(reference):
    intruder = next(r.record for r in reference if r.letter == "B")
    argv = ["catalog", "--family", "A", "--rank-cap", "3", "--format", "json"]
    v = _tamper_json(argv, reference, lambda p: p["records"].append(copy.deepcopy(intruder)))
    assert not v.ok and v.unexplained
    assert "outside the request" in v.reasons[0]


def test_record_of_excluded_class_rejected(reference):
    intruder = next(r.record for r in reference if r.record["class"] == "stiefel")
    argv = ["catalog", "--class", "hermitian", "--rank-cap", "3", "--format", "json"]
    v = _tamper_json(argv, reference, lambda p: p["records"].append(copy.deepcopy(intruder)))
    assert v.unexplained


def test_missing_record_rejected(reference):
    argv = ["catalog", "--rank-cap", "3", "--format", "json"]
    v = _tamper_json(argv, reference, lambda p: p["records"].pop())
    assert v.unexplained and "missing" in v.reasons[0]


def test_altered_field_rejected(reference):
    argv = ["catalog", "--rank-cap", "3", "--format", "json"]

    def edit(p):
        p["records"][0]["euler_characteristic"] += 1

    assert _tamper_json(argv, reference, edit).unexplained


def test_altered_csv_cell_rejected(reference):
    argv = ["catalog", "--family", "A", "--rank-cap", "3", "--format", "csv"]
    rc, text = respond(argv)
    lines = text.splitlines()
    lines[2] = lines[2].replace("hermitian", "symmetric", 1)
    assert check_response(argv, rc, "\n".join(lines) + "\n", reference).unexplained


def test_dropped_text_line_rejected(reference):
    argv = ["catalog", "--family", "A", "--rank-cap", "3", "--format", "text"]
    rc, text = respond(argv)
    lines = text.splitlines()
    del lines[4]
    assert check_response(argv, rc, "\n".join(lines) + "\n", reference).unexplained


def test_nonzero_exit_and_garbage_rejected(reference):
    argv = ["catalog", "--rank-cap", "3", "--format", "json"]
    assert check_response(argv, 1, respond(argv)[1], reference).unexplained
    assert check_response(argv, 0, "{not json", reference).unexplained


def test_golden_failures_rejected(reference):
    argv = ["catalog", "--rank-cap", "3", "--format", "json"]

    def edit(p):
        p["failures"] = [{"claim": "enumeration-reproduces-checked-in-lists", "detail": "x"}]

    assert _tamper_json(argv, reference, edit).unexplained


def test_classical_label_defect_is_known(reference):
    argv = ["catalog", "--family", "A2", "--rank-cap", "3", "--format", "json"]
    rc, text = respond(argv)
    v = check_response(argv, rc, text, reference)
    # the program returns SU(3) and SU(4) records; A2 names SU(3) alone
    assert not v.ok and v.known_defect == "classical-label-ignored"
    # the response a fixed program would give passes
    payload = json.loads(text)
    payload["records"] = [r for r in payload["records"] if r["g"] == "SU(3)"]
    assert check_response(argv, rc, json.dumps(payload), reference).ok


def test_classical_label_with_other_damage_is_not_excused(reference):
    intruder = next(r.record for r in reference if r.letter == "B")
    argv = ["catalog", "--family", "A2", "--rank-cap", "3", "--format", "json"]
    v = _tamper_json(argv, reference, lambda p: p["records"].append(copy.deepcopy(intruder)))
    assert v.unexplained


# --- verify ---------------------------------------------------------------------


def verify_payload(case_slug, seed, failing=()):
    names = [
        "natural-reductivity",
        "right-length-constant",
        "displacement-central-constant",
        "displacement-noncentral-certified",
        "fixed-fiber-witness",
    ]
    checks = [
        {
            "name": n,
            "claim": n + "-claim",
            "passed": n not in failing,
            "detail": "central-0: inconclusive (rel 2.0e-03)" if n in failing else "fine",
        }
        for n in names
    ]
    return {
        "command": "verify",
        "case": case_slug,
        "config": {"seed": seed},
        "checks": checks,
        "failures": [{"claim": c["claim"], "detail": c["detail"]} for c in checks if not c["passed"]],
    }


def check_verify_payload(argv, rc, payload):
    return check_response(argv, rc, json.dumps(payload), [])


def test_verify_all_passing_accepted():
    argv = ["verify", "su3-hopf", "--seed", "4", "--format", "json"]
    assert check_verify_payload(argv, 0, verify_payload("su3-su1u2--k1-0a1", 4)).ok


def test_verify_failed_check_rejected():
    argv = ["verify", "su3-hopf", "--seed", "4", "--format", "json"]
    payload = verify_payload("su3-su1u2--k1-0a1", 4, failing=("right-length-constant",))
    assert check_verify_payload(argv, 1, payload).unexplained


def test_verify_failed_check_hidden_behind_exit_zero_rejected():
    argv = ["verify", "so6-stiefel", "--seed", "4", "--format", "json"]
    payload = verify_payload("so6-so3so3--k1-0so3", 4, failing=("fixed-fiber-witness",))
    payload["failures"] = []
    assert check_verify_payload(argv, 0, payload).unexplained


def test_verify_wrong_case_or_seed_rejected():
    argv = ["verify", "so6-stiefel", "--seed", "4", "--format", "json"]
    assert check_verify_payload(argv, 0, verify_payload("su3-su1u2--k1-0a1", 4)).unexplained
    assert check_verify_payload(argv, 0, verify_payload("so6-so3so3--k1-0so3", 5)).unexplained


@pytest.mark.parametrize(
    "case,slug,check",
    [
        ("so8-so3so5--k1-0so3", "so8-so3so5--k1-0so3", "displacement-central-constant"),
        ("so6-stiefel", "so6-so3so3--k1-0so3", "displacement-central-constant"),
        ("su3-hopf", "su3-su1u2--k1-0a1", "displacement-noncentral-certified"),
    ],
)
def test_inconclusive_displacement_is_known(case, slug, check):
    argv = ["verify", case, "--seed", "1", "--format", "json"]
    payload = verify_payload(slug, 1, failing=(check,))
    v = check_verify_payload(argv, 1, payload)
    assert not v.ok and v.known_defect == "displacement-inconclusive"


def test_failed_displacement_that_is_not_inconclusive_is_not_excused():
    argv = ["verify", "su3-hopf", "--seed", "1", "--format", "json"]
    payload = verify_payload("su3-su1u2--k1-0a1", 1, failing=("displacement-central-constant",))
    payload["checks"][2]["detail"] = "central-0: nonconstant (rel 2.0e-01)"
    assert check_verify_payload(argv, 1, payload).unexplained


def test_so8_other_failures_are_not_excused():
    argv = ["verify", "so8-so3so5--k1-0so3", "--seed", "1", "--format", "json"]
    # any other failed check on the same case is not excused
    payload = verify_payload(
        "so8-so3so5--k1-0so3", 1,
        failing=("displacement-central-constant", "fixed-fiber-witness"),
    )
    assert check_verify_payload(argv, 1, payload).unexplained
