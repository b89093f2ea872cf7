import hashlib
import json
import os
import random
import subprocess
import sys
import unittest.mock
from pathlib import Path

import pytest

import twistcodes.discover
import twistcodes.poly
from twistcodes.cli import main
from twistcodes.gf import GF
from twistcodes.poly import factor_xn_minus_lambda, primitive_idempotents
from twistcodes.talg import AlgebraCtx

E1_SEQ = "2,0,2,0,1,0,2,0,1,0"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_h2(capsys):
    rc, out = run(capsys, ["h2", "-q", "3", "-n", "10"])
    assert rc == 0
    assert "2 classes" in out


def test_equiv_inequivalent(capsys):
    rc, out = run(capsys, ["equiv", "-q", "3", "-n", "10", "--lam", "2", "--beta", "1"])
    assert rc == 0
    assert "inequivalent" in out


def test_equiv_witness(capsys):
    rc, out = run(capsys, ["equiv", "-q", "5", "-n", "3", "--lam", "2", "--beta", "1"])
    assert rc == 0
    assert "witness a = 3" in out


def test_factor_table_and_json(capsys):
    rc, out = run(capsys, ["factor", "-q", "3", "-n", "10", "--lam", "2"])
    assert rc == 0
    assert out.count("factor") >= 3
    rc, jout = run(capsys, ["factor", "-q", "3", "-n", "10", "--lam", "2", "--format", "json"])
    recs = json_lines(jout)
    assert recs[0]["record"] == "header"
    degs = sorted(r["degree"] for r in recs if r["record"] == "factor")
    assert degs == [2, 4, 4]


FRAGMENT_CONTEXTS = [
    ("3", "2", "2"),  # m = 1; the one idempotent, 1, is padded to n
    ("3", "10", "2"),  # m = 1, lam != 1
    ("5", "12", "1"),  # m = 1
    ("9", "8", "1"),  # m > 1
    ("4", "21", "0,1"),  # m > 1, lam != 1
    ("256", "17", "1"),  # m > 1, the largest table field
    ("729", "13", "1"),  # q > 256: each index's text computed when read
    ("257", "16", "1"),  # q > 256, m = 1
]


@pytest.mark.parametrize("q,n,lam", FRAGMENT_CONTEXTS)
def test_coefficient_json_equals_json_dumps(capsys, q, n, lam):
    """idempotents and factor join per-index JSON fragments; every line is
    still json.dumps(rec, sort_keys=True) of the record built from ser()."""
    F = GF(int(q))
    lam_e = F.element([int(c) for c in lam.split(",")])
    factors = factor_xn_minus_lambda(F, int(n), lam_e)
    ctx = AlgebraCtx(F, int(n), lam_e)
    es = primitive_idempotents(F, int(n), lam_e, factors)
    want = {
        "factor": [{"record": "factor", "index": i, "degree": f.degree, "coeffs": f.ser()}
                   for i, f in enumerate(factors)],
        "idempotents": [{"record": "idempotent", "index": i, "coeffs": ctx.from_indices(e.indices).ser()}
                        for i, e in enumerate(es)],
    }
    # idempotent vectors are padded to n, factor coefficients trimmed
    assert all(len(r["coeffs"]) == int(n) for r in want["idempotents"])
    assert all(len(r["coeffs"]) == r["degree"] + 1 for r in want["factor"])
    for command, recs in want.items():
        rc, out = run(capsys, [command, "-q", q, "-n", n, "--lam", lam, "--format", "json"])
        assert rc == 0
        assert out.splitlines()[1:] == [json.dumps(r, sort_keys=True) for r in recs]


def test_code_from_idempotent(capsys):
    rc, out = run(
        capsys,
        ["code", "-q", "3", "-n", "10", "--lam", "2", "--idempotent", E1_SEQ, "--format", "json"],
    )
    assert rc == 0
    rec = [r for r in json_lines(out) if r["record"] == "code"][0]
    assert rec["k"] == 8 and rec["n"] == 10


def test_code_from_mask_and_genpoly(capsys):
    # mask 6 selects the two quartic factors: the [10,8] code again
    rc, out = run(
        capsys, ["code", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6", "--format", "json"]
    )
    rec = [r for r in json_lines(out) if r["record"] == "code"][0]
    assert rec["k"] == 8
    # generator polynomial x^2 + 1 spans the same ideal
    rc, out2 = run(
        capsys,
        ["code", "-q", "3", "-n", "10", "--lam", "2", "--genpoly", "1,0,1", "--format", "json"],
    )
    rec2 = [r for r in json_lines(out2) if r["record"] == "code"][0]
    assert rec2["rows"] == rec["rows"]


def test_genpoly_of_degree_at_least_n(capsys):
    # p | n: x^9 - 1 = (x - 1)^9 over GF(3).  x^3 - 1 generates a [9,6] code,
    # and so does x^9 (x^3 - 1), of degree 12, reduced mod x^9 - 1 first;
    # x^9 - 1 itself reduces to 0 and gives the zero code
    def rows(genpoly):
        argv = ["code", "-q", "3", "-n", "9", "--lam", "1", "--genpoly", genpoly]
        rc, out = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        return [r for r in json_lines(out) if r["record"] == "code"][0]["rows"]

    assert len(rows("2,0,0,1")) == 6
    assert rows("0,0,0,0,0,0,0,0,0,2,0,0,1") == rows("2,0,0,1")
    assert rows("2,0,0,0,0,0,0,0,0,1") == []


def test_element_arg_validation(capsys):
    rc = main(["code", "-q", "3", "-n", "10", "--lam", "2"])
    assert rc == 2
    rc = main(
        ["code", "-q", "3", "-n", "10", "--lam", "2", "--mask", "1", "--genpoly", "1,1"]
    )
    assert rc == 2


def test_dual(capsys):
    rc, out = run(
        capsys,
        ["dual", "-q", "3", "-n", "10", "--lam", "2", "--idempotent", E1_SEQ, "--format", "json"],
    )
    assert rc == 0
    rec = [r for r in json_lines(out) if r["record"] == "dual"][0]
    assert rec["k"] == 2
    assert rec["shift_constant"] == 2  # 2^{-1} = 2 in GF(3)


def test_distance(capsys):
    rc, out = run(
        capsys,
        ["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6", "--format", "json"],
    )
    assert rc == 0
    rec = [r for r in json_lines(out) if r["record"] == "distance"][0]
    assert rec["d"] == 2 and rec["method"] == "exhaustive" and rec["work"] == 3**8
    # either method by name: the same codeword, info-set certified at message weight 1
    for method, work, message_weight in (("exhaustive", 3**8, None), ("info-set", 16, 1)):
        rc, out = run(
            capsys,
            ["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6", "--method", method,
             "--format", "json"],
        )
        assert rc == 0
        rec = [r for r in json_lines(out) if r["record"] == "distance"][0]
        assert (rec["d"], rec["method"], rec["work"], rec["message_weight"]) == (
            2, method, work, message_weight
        )
        assert rec["witness"] == [1, 0, 0, 0, 0, 0, 0, 0, 2, 0]


def test_distance_budget_exceeded(capsys):
    rc, out = run(
        capsys,
        ["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6", "--budget", "10"],
    )
    assert rc == 1
    assert "budget exceeded" in out


DISTANCE_Q5_N21_SHA256 = "1a2c38fdba7b4a63279b40889c47b9537b1b65088477e2d75cf4d59cc41a5f54"


def test_distance_witnesses_frozen_at_length_21(capsys):
    """Every nonzero proper ideal of x^21 - 4 over GF(5) (masks 1..31): 15
    exhaustive and 16 info-set certificates, each with its witness, pinned
    byte for byte by the digest of the 31 outputs concatenated."""
    outs = []
    for mask in range(1, 32):
        argv = ["distance", "-q", "5", "-n", "21", "--lam", "4", "--mask", str(mask)]
        rc, out = run(capsys, argv + ["--format", "json", "--seed", "0"])
        assert rc == 0, mask
        outs.append(out)
    methods = [json_lines(out)[-1]["method"] for out in outs]
    assert (methods.count("exhaustive"), methods.count("info-set")) == (15, 16)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == DISTANCE_Q5_N21_SHA256


SEARCH_Q3_N26_SHA256 = "2548a216f8238daf675b19d8da4e3c2a134c8230737da49352efec8d5f304e8e"


def test_search_frozen_at_length_26(capsys):
    """Every ideal of x^26 - 1 over GF(3): distances by both methods, each
    certificate with its witness, pinned byte for byte by the digest."""
    rc, out = run(capsys, ["search", "-q", "3", "-n", "26", "--lam", "1", "--format", "json"])
    assert rc == 0
    methods = {rec["certificate"]["method"] for rec in json_lines(out)[1:] if rec["k"]}
    assert methods == {"exhaustive", "info-set"}
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_Q3_N26_SHA256


@pytest.mark.parametrize(
    "block, groups, batch",
    [
        # below C(12, 2) * 4^2 = 1056 for every info-set code (k >= 12): one-row
        # tails throughout, so weight 2 scans a one-row head against its 13
        # tails when k = 14; weight 5 of k = 12 is joined on one block in
        # chunks of 16 * 252 // (9 + 1 + 24) = 118 codewords, one head of 64
        (252, {4}, ((2, 4, 1, 13 * 4), (1, 64, 118))),
        # at least C(21, 2) * 4^2 = 3360: two-row tails from weight 2 on, all
        # 91 of k = 14 in one scan; weight 5 of k = 14 is joined on one block
        # in chunks of 16 * 4096 // (7 + 1 + 24) = 2048 codewords, 32 heads
        (4096, {4, 16}, ((2, 16, 1, 91 * 16), (1, 2048, 2048))),
    ],
)
def test_distance_witnesses_independent_of_block_size(capsys, block, groups, batch):
    """The 16 info-set certificates of the length-21 test stay byte-identical
    when codes._BLOCK reshapes the scans (head rows x tail columns) of
    weights 1 and 2 and the chunks of the joined weights above them; batch
    is one scan and one join chunk (blocks, head codewords, chunk size)."""
    argv = ["distance", "-q", "5", "-n", "21", "--lam", "4", "--format", "json", "--seed", "0"]
    masks = (12, 13, 14, 15, *range(20, 32))
    frozen = [run(capsys, argv + ["--mask", str(mask)]) for mask in masks]
    scan, candidates, batches, chunks = twistcodes.codes._scan, twistcodes.codes._candidates, set(), set()

    def spy(field, P, T, m, start, bound):
        if start:  # info-set batches: (weight, group size, head rows, tail columns)
            batches.add((start, m, len(P), T.shape[1]))
        return scan(field, P, T, m, start, bound)

    def join_spy(NP, index, lo, hi, size):
        chunks.add((len(index[0]), len(NP), size))  # (blocks, head codewords, chunk size)
        return candidates(NP, index, lo, hi, size)

    with unittest.mock.patch.object(twistcodes.codes, "_BLOCK", block):
        with unittest.mock.patch.object(twistcodes.codes, "_scan", spy):
            with unittest.mock.patch.object(twistcodes.codes, "_candidates", join_spy):
                again = [run(capsys, argv + ["--mask", str(mask)]) for mask in masks]
    assert again == frozen
    assert {rec["method"] for _, out in frozen for rec in json_lines(out)[1:]} == {"info-set"}
    assert {b[1] for b in batches} == groups and batch[0] in batches
    assert {b[0] for b in batches} == {1, 2} and {c[0] for c in chunks} == {1, 2, 3}
    assert batch[1] in chunks and max(c[1] for c in chunks) <= 16 * block // (1 + 24)


def test_lcd_check(capsys):
    rc, out = run(
        capsys, ["lcd-check", "-q", "3", "-n", "10", "--lam", "2", "--idempotent", E1_SEQ]
    )
    assert rc == 0
    assert "agree: True" in out


def test_search_json_roundtrip(capsys):
    rc, out = run(capsys, ["search", "-q", "3", "-n", "10", "--lam", "2", "--format", "json"])
    assert rc == 0
    recs = json_lines(out)
    # every line re-parses and re-serializes identically
    for line, rec in zip(out.strip().splitlines(), recs):
        assert json.dumps(rec, sort_keys=True) == line
    codes = [r for r in recs if r["record"] == "code-record"]
    assert {(r["k"], r["d"]) for r in codes} >= {(8, 2), (2, 5)}
    by_mask = {r["mask"]: r for r in codes}
    assert by_mask[6]["verdict"] == "optimal"


def test_search_galois_k1(capsys):
    rc, out = run(
        capsys,
        [
            "search", "-q", "9", "--modulus", "1,0,1", "-n", "4", "--lam", "2",
            "--galois", "1", "--no-distances", "--format", "json",
        ],
    )
    assert rc == 0
    codes = [r for r in json_lines(out) if r["record"] == "code-record"]
    assert len(codes) >= 2  # zero and full space are always LCD
    masks = {r["mask"] for r in codes}
    full_mask = max(r["mask"] for r in codes)
    for r in codes:
        assert r["lcd_galois"] == {"1": True}
        assert (full_mask ^ r["mask"]) in masks  # complements pair up


def test_search_deterministic_output(capsys):
    args = ["search", "-q", "5", "-n", "9", "--lam", "4", "--format", "json", "--seed", "3"]
    rc1, out1 = run(capsys, args)
    rc2, out2 = run(capsys, args)
    assert rc1 == rc2 == 0
    assert out1 == out2


SEARCH_KEYS = {
    "record", "q", "n", "lam", "mask", "k", "d", "lcd_euclid", "lcd_galois",
    "best_known_d", "verdict", "idempotent",
}


def test_search_budget_exhausted_reports_bounds(capsys):
    args = ["search", "-q", "7", "-n", "19", "--lam", "6", "--budget", "1000", "--format", "json"]
    rc, out = run(capsys, args)
    assert rc == 1  # some distance was not certified
    codes = [r for r in json_lines(out) if r["record"] == "code-record"]
    unknown = [r for r in codes if r["k"] and r["d"] is None]
    certified = [r for r in codes if r["d"] is not None]
    assert unknown and certified
    for r in unknown:
        assert r["certificate"] is None and r["verdict"] == "unknown"
        assert 1 <= r["d_lower"] and (r["d_upper"] is None or r["d_lower"] <= r["d_upper"])
    for r in certified:
        assert r["d_lower"] == r["d_upper"] == r["d"]
        assert set(r["certificate"]) == {"method", "work", "message_weight"}
        assert r["certificate"]["work"] <= 1000
    # the zero code has no distance to search for, so it gets no new keys
    assert set(next(r for r in codes if r["k"] == 0)) == SEARCH_KEYS
    by_mask = {r["mask"]: r for r in codes}
    assert (by_mask[30]["d_lower"], by_mask[30]["d_upper"]) == (2, 6)
    assert by_mask[1]["certificate"] == {"method": "exhaustive", "work": 7, "message_weight": None}
    rc, text = run(capsys, args[:-2])
    assert rc == 1
    assert "mask   30: [19,12,2..6]" in text and "mask   11: [19,7,1..?]" in text


def test_search_without_distances_adds_no_keys(capsys):
    args = ["search", "-q", "7", "-n", "19", "--lam", "6", "--no-distances", "--format", "json"]
    rc, out = run(capsys, args)
    assert rc == 0
    codes = [r for r in json_lines(out) if r["record"] == "code-record"]
    assert codes and all(set(r) == SEARCH_KEYS and r["d"] is None for r in codes)
    rc, text = run(capsys, args[:-2])
    assert rc == 0
    assert "[19,12,?]" in text and ".." not in text


def test_search_without_distances_above_table_limit(capsys):
    # GF(257) has no operation tables; the factor orbits decide LCD and the
    # idempotent criterion (lam^2 = 1) checks them, so no code is built
    ctx = ["search", "-q", "257", "-n", "4"]
    rc, out = run(capsys, ctx + ["--lam", "1", "--no-distances", "--format", "json"])
    assert rc == 0
    codes = json_lines(out)[1:]
    assert [(r["mask"], r["k"]) for r in codes] == [
        (15, 4), (7, 3), (14, 3), (6, 2), (9, 2), (1, 1), (8, 1), (0, 0)
    ]
    assert all(r["lcd_euclid"] and set(r) == SEARCH_KEYS for r in codes)
    # lam^2 != 1: every ideal is LCD by the theorem, and no check needs a code
    rc, out = run(capsys, ctx + ["--lam", "3", "--no-distances", "--format", "json"])
    assert rc == 0
    assert [r["mask"] for r in json_lines(out)[1:]] == [1, 0]
    # distances, and the intersection check for lam^2 != 1 = lam^(1 + 3^5), need tables
    assert main(ctx + ["--lam", "1"]) == 2
    lam4 = "2,0,0,1,2,1"  # an element of order 4 in GF(729) with the default modulus
    argv = ["search", "-q", "729", "-n", "4", "--lam", lam4, "--galois", "1", "--no-distances"]
    assert main(argv) == 2
    assert "needs operation tables" in capsys.readouterr().err


def test_negative_budget_is_a_usage_error(capsys):
    for argv, budget in (
        (["search", "-q", "3", "-n", "10", "--lam", "2"], "-5"),
        (["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6"], "-5"),
        (["verify-examples"], "-5"),
        (["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6"], "abc"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument --budget: expected an integer >= 0, got '{budget}'"
        )
    # zero is a budget: it is used up before the first message
    rc, out = run(capsys, ["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "6", "--budget", "0"])
    assert rc == 1 and out.splitlines()[-1] == "budget exceeded: 1 <= d <= ?, work 0"


def test_verify_examples_subset(capsys):
    rc, out = run(
        capsys,
        ["verify-examples", "--example", "GF(3)", "--example", "n=9", "--format", "json"],
    )
    assert rc == 0
    recs = json_lines(out)
    assert recs[-1] == {"record": "summary", "passed": True}
    names = {r["example"] for r in recs if r["record"] == "check"}
    assert len(names) == 2
    # a budget too small for the [10,8] code fails its certificate, and the run
    rc, out = run(capsys, ["verify-examples", "--budget", "1000", "--example", "GF(3)", "--format", "json"])
    assert rc == 1
    recs = json_lines(out)
    assert recs[-1] == {"record": "summary", "passed": False}
    failed = {r["label"] for r in recs if r["record"] == "check" and not r["passed"]}
    assert "<e> distance certified" in failed
    assert "<f> distance certified" not in failed


def test_seed_reaches_only_the_modulus(capsys, monkeypatch):
    # factoring draws from an RNG fixed by (field, n, lam): a prime field, or
    # an extension field with --modulus, gives the same draws at every seed
    seeds = []

    class Recording(random.Random):
        def __init__(self, x=None):
            seeds.append(x)
            super().__init__(x)

    monkeypatch.setattr(twistcodes.poly.random, "Random", Recording)
    for argv in (
        ["verify-examples", "--example", "GF(3)"],
        ["idempotents", "-q", "3", "-n", "26", "--lam", "1"],  # splits parts of degree 3
        ["search", "-q", "9", "--modulus", "1,0,1", "-n", "8", "--lam", "2", "--no-distances"],
    ):
        runs = []
        for seed in ("0", "7"):
            seeds.clear()
            rc, out = run(capsys, argv + ["--seed", seed])
            assert rc == 0 and seeds
            runs.append((list(seeds), out.splitlines()))
        (seeds0, out0), (seeds7, out7) = runs
        assert seeds0 == seeds7
        assert out7[0] == out0[0].replace("seed=0", "seed=7") != out0[0]
        assert out7[1:] == out0[1:]


def test_prime_field_ignores_its_modulus(capsys):
    argv = ["factor", "-q", "7", "-n", "3", "--lam", "1"]
    assert run(capsys, argv + ["--modulus", "3,1"]) == run(capsys, argv)
    assert main(argv + ["--modulus", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: modulus must be monic of degree 1")


def test_verify_examples_filter_matching_nothing(capsys):
    # one filter that matches nothing fails the run, also beside one that matches
    for filters in (["--example", "nosuch"], ["--example", "GF(3)", "--example", "nosuch"]):
        rc = main(["verify-examples", *filters])
        assert rc == 2
        captured = capsys.readouterr()
        assert "overall" not in captured.out
        assert captured.err.strip() == "error: no reference example matches 'nosuch'"


def test_factor_limit(capsys):
    # x^28 - 1 splits into 28 linear factors over GF(29): the lattice walk
    # refuses, the element path of `code` has no limit
    rc = main(["search", "-q", "29", "-n", "28", "--lam", "1", "--no-distances"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "error: 28 irreducible factors exceed the limit 24"
    )
    rc, out = run(capsys, ["code", "-q", "29", "-n", "28", "--lam", "1", "--mask", "3"])
    assert rc == 0 and "[28,2] code over GF(29)" in out


def test_verify_examples_full(capsys):
    # the whole bundle, including the two heavyweight distance runs
    rc, out = run(capsys, ["verify-examples"])
    assert rc == 0
    assert out.count("PASS  ") == 4
    assert "overall: PASS" in out


def test_extension_field_lambda_coordinates(capsys):
    # GF(9) with modulus x^2+1: lam given as a coordinate list
    rc, out = run(
        capsys,
        [
            "factor", "-q", "9", "--modulus", "1,0,1", "-n", "5", "--lam", "0,1",
            "--format", "json",
        ],
    )
    assert rc == 0
    recs = json_lines(out)
    assert sum(r["degree"] for r in recs if r["record"] == "factor") == 5
    # GF(9) with the default modulus: one element per coordinate pair, ';'-separated
    for flag, value, k in (
        ("--idempotent", "2,0;0,0;1,0;0,0", 2),
        ("--genpoly", "2,0;1,0", 3),
    ):
        rc, out = run(capsys, ["code", "-q", "9", "-n", "4", "--lam", "1", flag, value])
        assert rc == 0
        assert f"[4,{k}] code over GF(9)" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["factor", "-q", "3"])  # missing -n/--lam
    assert exc.value.code == 2


def test_domain_error_exit_2():
    rc = main(["factor", "-q", "9", "-n", "6", "--lam", "1"])  # gcd(6,3) != 1
    assert rc == 2


def test_malformed_input_exit_2():
    assert main(["factor", "-q", "3", "-n", "10", "--lam", "xyz"]) == 2
    assert main(["factor", "-q", "6", "-n", "5", "--lam", "1"]) == 2  # not a prime power
    assert main(["code", "-q", "3", "-n", "10", "--lam", "2", "--mask", "-1"]) == 2
    assert main(["code", "-q", "3", "-n", "10", "--lam", "2", "--mask", "99"]) == 2
    assert main(["factor", "-q", "3", "-n", "10", "--lam", "0"]) == 2  # zero wrap unit


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv,err",
    [
        pytest.param(["search", "-q", "29", "-n", "28", "--lam", "1", "--no-distances"],
                     "28 irreducible factors exceed the limit 24", id="search-factor-limit"),
        pytest.param(["code", "-q", "3", "-n", "10", "--lam", "2", "--mask", "99"],
                     "mask 99 out of range for 3 factors", id="code-mask-range"),
        pytest.param(["verify-examples", "--example", "nosuch"],
                     "no reference example matches 'nosuch'", id="verify-no-match"),
        pytest.param(["search", "-q", "3", "-n", "10", "--lam", "2", "--table", "/nonexistent.csv"],
                     "best-known table not found: /nonexistent.csv", id="search-table-missing"),
        pytest.param(["search", "-q", "3", "-n", "4", "--lam", "1", "--no-distances", "--table", "/"],
                     "best-known table unreadable: /: Is a directory", id="search-table-directory"),
        pytest.param(["dual", "-q", "9", "-n", "8", "--lam", "2", "--mask", "1", "--galois", "5"],
                     "Galois parameter k = 5 outside 0..1", id="dual-galois-range"),
        pytest.param(["code", "-q", "4", "-n", "3", "--lam", "1", "--idempotent", "1;0;0;1"],
                     "4 coefficients for n = 3", id="code-idempotent-length"),
        pytest.param(["search", "-q", "4", "-n", "3", "--lam", "1,0,0"],
                     "coordinate list of length 3 for extension degree 2", id="search-lam-length"),
        pytest.param(["h2", "-q", "3", "-n", "0"], "n must be >= 1", id="h2-n-zero"),
        pytest.param(["equiv", "-q", "3", "-n", "0", "--lam", "1", "--beta", "2"],
                     "n must be >= 1", id="equiv-n-zero"),
        pytest.param(["search", "-q", "3", "-n", "10", "--lam", "2", "--table", "{tmp}/x.csv"],
                     "{tmp}/x.csv:1: non-integer field in '3,10,2,x'", id="search-table-non-integer"),
        pytest.param(["search", "-q", "3", "-n", "10", "--lam", "2", "--table", "{tmp}/zero.csv"],
                     "{tmp}/zero.csv:1: d must be >= 1", id="search-table-zero-d"),
    ],
)
def test_input_error_prints_nothing_to_stdout(capsys, tmp_path, argv, err, fmt):
    # {tmp} names a directory of bad best-known tables
    (tmp_path / "x.csv").write_text("3,10,2,x\n")
    (tmp_path / "zero.csv").write_text("3,10,2,0\n")
    argv, err = [a.format(tmp=tmp_path) for a in argv], err.format(tmp=tmp_path)
    # the header is printed only with the records, after the command succeeded
    assert main(argv + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_lcd_check_not_semisimple(capsys):
    # 3 | 6: no idempotent generator, but the subspace criterion is defined
    ctx = AlgebraCtx(GF(3), 6, 2)
    assert not ctx.semisimple and ctx.has_involution  # 2^2 = 1 in GF(3)
    assert AlgebraCtx(GF(3), 10, 2).semisimple
    # and likewise without the involution: 2^2 = 4 != 1 in GF(5)
    assert not AlgebraCtx(GF(5), 4, 2).has_involution
    for argv, reason in (
        (["-q", "3", "-n", "6", "--lam", "2", "--idempotent", "1,1"], "p divides n"),
        (["-q", "5", "-n", "4", "--lam", "2", "--mask", "1"], "lam^2 != 1"),
    ):
        rc, out = run(capsys, ["lcd-check", *argv, "--format", "json"])
        assert rc == 0
        rec = json_lines(out)[-1]
        assert rec["idempotent_lcd"] is None
        assert rec["subspace_lcd"] is True and rec["agree"] is True
        rc, out = run(capsys, ["lcd-check", *argv])
        assert rc == 0
        assert f"idempotent criterion n/a ({reason})" in out


def _fresh_process(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcodes.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout


def test_one_process_matches_fresh_processes(capsys):
    from twistcodes.cli import build_parser

    build_parser.cache_clear()
    argvs = [
        ["verify-examples", "--example", "GF(3), n=10", "--format", "json"],
        ["verify-examples", "--example", "GF(5), n=9"],
        ["idempotents", "-q", "4", "-n", "9", "--lam", "1", "--seed", "2"],
        ["code", "-q", "3", "-n", "10", "--lam", "2", "--genpoly", "1,0,1", "--format", "json"],
        ["factor", "-q", "9", "-n", "6", "--lam", "1"],  # domain error, exit 2
        ["distance", "-q", "3", "-n", "10", "--lam", "2", "--mask", "5"],
    ]
    for argv in argvs:
        rc, out = run(capsys, argv)
        assert (rc, out) == _fresh_process(argv), argv
    assert build_parser.cache_info().misses == 1  # one parser served every call


def test_closed_stdout_pipe_no_traceback():
    # like `twistcodes factor ... | head -1`, with the reader gone before any output
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "twistcodes.cli", "factor", "-q", "2", "-n", "255", "--lam", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_search_table_sources(capsys, tmp_path, monkeypatch):
    # the bundled table is parsed once per process; --table and the
    # environment variable name files that are read on every call
    search = ["search", "-q", "3", "-n", "10", "--lam", "2", "--min-dim", "8", "--format", "json"]

    def best_known(argv):
        rc, out = run(capsys, argv)
        assert rc == 0
        return next(r["best_known_d"] for r in json_lines(out)[1:] if r["k"] == 8)

    monkeypatch.delenv("TWISTCODES_TABLE", raising=False)
    assert best_known(search) == 2
    discover = twistcodes.discover
    with unittest.mock.patch.object(discover, "resource_files", side_effect=AssertionError):
        assert best_known(search) == 2
        table = tmp_path / "table.csv"
        table.write_text("3,10,8,3\n")
        assert best_known(search + ["--table", str(table)]) == 3
        table.write_text("3,10,8,1\n")
        assert best_known(search + ["--table", str(table)]) == 1
        monkeypatch.setenv("TWISTCODES_TABLE", str(table))
        assert best_known(search) == 1
        table.write_text("# empty\n")
        assert best_known(search) is None
    first, second = discover.BestKnownTable.bundled(), discover.BestKnownTable.bundled()
    assert first.entries == second.entries and first.entries is not second.entries
    # a table that is not UTF-8 is an input error naming the file, by either route
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"3,10,8,2\n\xb0\n")
    for argv in (search + ["--table", str(latin)], search):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {latin}: not UTF-8 at byte 9\n")
        monkeypatch.setenv("TWISTCODES_TABLE", str(latin))
