import re

import pytest

from twistcodes.errors import Error, TableMissing, TableParseError, TooManyFactors
from twistcodes.gf import GF, FieldSpec
from twistcodes.codes import check_idempotent_lcd, dual, is_lcd, min_distance
from twistcodes.discover import (
    BestKnownTable,
    REFERENCE_EXAMPLES,
    Verdict,
    factor_orbits,
    iter_ideal_codes,
    make_reference_ctx,
    search_lcd,
    verify_reference_examples,
    _is_union,
    _verdict,
)
from twistcodes.poly import Poly, factor_xn_minus_lambda
from twistcodes.talg import AlgebraCtx

F3 = GF(3)
F5 = GF(5)
F9 = FieldSpec(3, 2, modulus=[1, 0, 1])

CTX1 = AlgebraCtx(F3, 10, 2)
E1 = CTX1.elem_from_dict({0: 2, 2: 2, 4: 1, 6: 2, 8: 1})
# masks 0, 1, 6 and 7 of CTX1 are LCD, masks 2 to 5 are not
CROSS_CHECK_CTXS = (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2))


def test_enumeration_shape():
    triples = list(iter_ideal_codes(CTX1))
    assert len(triples) == 8  # x^10 - 2 has 3 irreducible factors over GF(3)
    assert [mask for mask, _, _ in triples] == list(range(8))
    recs = {r.subset_mask: r for r in search_lcd(CTX1, 0, table=BestKnownTable.bundled())}
    assert recs[0].k == 0 and recs[0].d is None
    full = recs[7]
    assert (full.k, full.d) == (10, 1)
    dims = sorted(C.k for _, _, C in triples)
    assert dims == [0, 2, 4, 4, 6, 6, 8, 10]


def test_enumeration_finds_reference_record():
    recs = search_lcd(CTX1, 0, table=BestKnownTable.bundled())
    match = [r for r in recs if r.idempotent == E1]
    assert len(match) == 1
    r = match[0]
    assert (r.k, r.d) == (8, 2)
    assert r.lcd_euclid
    assert r.verdict == Verdict("optimal", 0)
    assert r.best_known_d == 2


def test_records_serialize():
    recs = search_lcd(CTX1, 0)
    for r in recs:
        d = r.to_dict()
        assert d["mask"] == r.subset_mask
        assert d["k"] == r.k
        assert isinstance(d["idempotent"], list)


def test_records_carry_certificates_only_with_distances():
    for r in search_lcd(CTX1, 0):
        d = r.to_dict()
        if r.k == 0:
            assert "certificate" not in d
            continue
        assert d["d_lower"] == d["d_upper"] == r.d == r.certificate.d
        assert d["certificate"] == {
            "method": r.certificate.method,
            "work": r.certificate.work,
            "message_weight": r.certificate.message_weight,
        }
    for r in search_lcd(CTX1, 0, distances=False):
        d = r.to_dict()
        assert r.d is None and not {"d_lower", "d_upper", "certificate"} & set(d)


def test_complementary_pair_structure():
    # e LCD iff 1 - e LCD, and the Euclidean dual of <e> is <1 - e>
    for ctx in CROSS_CHECK_CTXS:
        triples = {mask: (e, C) for mask, e, C in iter_ideal_codes(ctx)}
        lcd_masks = {r.subset_mask for r in search_lcd(ctx, 0, distances=False)}
        lcd = {mask: mask in lcd_masks for mask in triples}
        full_mask = max(triples)
        for mask, (e, C) in triples.items():
            comp_e, comp_C = triples[full_mask ^ mask]
            assert comp_e == ctx.one - e
            assert lcd[mask] == lcd[full_mask ^ mask]
            # the dual of an LCD ideal is its lattice complement
            if lcd[mask]:
                assert dual(C, 0) == comp_C


@pytest.mark.parametrize("ctx", CROSS_CHECK_CTXS, ids=["gf3-n10", "gf5-n9", "gf9-n8"])
def test_lcd_criteria_agree_on_every_mask(ctx):
    # subspace intersection is the reference: the factor orbits (where they
    # decide) and the idempotent criterion (where lam^2 = 1) must agree with
    # it on every ideal, and search_lcd must emit exactly its LCD masks
    F = ctx.field
    factors = factor_xn_minus_lambda(F, ctx.n, ctx.lam)
    triples = list(iter_ideal_codes(ctx))
    assert len(triples) == 1 << len(factors)
    for k in range(F.m):
        orbits = factor_orbits(ctx, factors, k)
        lcd = set()
        for mask, e, C in triples:
            flag = is_lcd(C, k)
            if flag:
                lcd.add(mask)
            if orbits is not None:
                assert _is_union(mask, orbits) == flag, (mask, k)
            if ctx.lam * ctx.lam == F.one:
                assert check_idempotent_lcd(e, k) == flag, (mask, k)
        assert {r.subset_mask for r in search_lcd(ctx, k, distances=False)} == lcd, k


def test_search_sorted_and_filtered():
    recs = search_lcd(CTX1, 0, table=BestKnownTable.bundled())
    assert all(r.lcd_euclid for r in recs)
    dims = [r.k for r in recs]
    assert dims == sorted(dims, reverse=True)
    masks = {r.subset_mask for r in recs}
    non_lcd = {mask for mask, _, C in iter_ideal_codes(CTX1) if not is_lcd(C, 0)}
    assert masks.isdisjoint(non_lcd)


@pytest.mark.parametrize(
    "ctx, k",
    [(CTX1, 0), (AlgebraCtx(F5, 6, 2), 0), (AlgebraCtx(GF(4), 11, GF(4).from_index(2)), 1)],
    ids=["lam2-is-1", "lam2-not-1-all-lcd", "lam2-not-1-orbits"],
)
def test_min_dim_keeps_exactly_the_larger_records(ctx, k):
    # min_dim only filters: the same records in the same order, the smaller ones dropped
    recs = search_lcd(ctx, k, distances=False)
    assert len({r.k for r in recs}) >= 3
    for d in range(ctx.n + 2):
        assert search_lcd(ctx, k, distances=False, min_dim=d) == [r for r in recs if r.k >= d]


def test_factor_limit():
    # x^28 - 1 splits into 28 linear factors over GF(29)
    ctx = AlgebraCtx(GF(29), 28, 1)
    it = iter_ideal_codes(ctx)
    with pytest.raises(TooManyFactors, match="28 irreducible factors exceed the limit 24"):
        next(it)


def test_search_fast_path_lam_order_gt_2():
    # 2 has order 4 in GF(5): every ideal is LCD without intersection tests
    ctx = AlgebraCtx(F5, 6, 2)
    recs = search_lcd(ctx, 0, distances=False)
    assert len(recs) == len(list(iter_ideal_codes(ctx)))
    for r in recs:
        assert r.lcd_euclid


def test_search_rediscovers_reference_elements():
    for ex in REFERENCE_EXAMPLES:
        ctx, e, f = make_reference_ctx(ex)
        recs = search_lcd(ctx, 0, distances=False)
        idems = {r.idempotent for r in recs}
        assert e in idems and f in idems


def test_best_known_table(tmp_path):
    t = BestKnownTable.bundled()
    assert t.lookup(3, 10, 8) == 2
    assert t.lookup(3, 10, 2) == 7
    assert t.lookup(5, 21, 15) == 5
    assert t.lookup(7, 19, 12) == 6
    assert t.lookup(2, 99, 1) is None
    p = tmp_path / "table.csv"
    p.write_text("# comment\n3,10,8,2\n\n5,9,7, 2\n")
    t2 = BestKnownTable.load(p)
    assert t2.lookup(5, 9, 7) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("3,10,8,2\noops\n")
    with pytest.raises(TableParseError) as err:
        BestKnownTable.load(bad)
    assert ":2:" in str(err.value)
    with pytest.raises(TableMissing):
        BestKnownTable.load(tmp_path / "missing.csv")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"3,10,8,2\n\xb0\n")
    with pytest.raises(TableParseError) as err:
        BestKnownTable.load(latin)
    assert str(err.value) == f"{latin}: not UTF-8 at byte 9"
    latin.write_bytes(b"# pad\n" * 2000 + b"\xb0\n")  # past a text reader's first chunk
    with pytest.raises(TableParseError, match="not UTF-8 at byte 12000$"):
        BestKnownTable.load(latin)


@pytest.mark.parametrize(
    "row, message",
    [
        ("3,10,0,2", "1 <= k <= n"),
        ("3,10,11,1", "1 <= k <= n"),
        ("3,10,8,4", "exceeds the Singleton bound n - k + 1 = 3"),
        ("2,10,5,6", "breaks the Griesmer bound: n >= 13 needed"),
    ],
)
def test_best_known_table_rejects_rows_beyond_the_bounds(tmp_path, row, message):
    p = tmp_path / "table.csv"
    p.write_text(f"# q,n,k,d\n3,10,8,2\n{row}\n")
    with pytest.raises(TableParseError) as err:
        BestKnownTable.load(p)
    assert f"{p}:3: " in str(err.value) and message in str(err.value)
    # on the bounds themselves the rows load
    t = BestKnownTable._parse("3,10,8,3\n3,10,2,7\n2,13,5,6\n", "edge")
    assert t.lookup(2, 13, 5) == 6


def test_compare_verdicts():
    t = BestKnownTable.bundled()
    recs = {r.k: r for r in search_lcd(CTX1, 0, table=t)}
    assert str(recs[8].verdict) == "optimal"
    assert recs[2].verdict == Verdict("suboptimal", 2)
    # masks 2 to 5 are not LCD: the last dimension-4 ideal is mask 4
    C4 = {C.k: C for _, _, C in iter_ideal_codes(CTX1)}[4]
    assert _verdict(min_distance(C4).d, t.lookup(3, 10, 4)).status == "unknown"
    r = recs[8]
    assert _verdict(r.d, None) == Verdict("unknown")
    assert _verdict(None, t.lookup(r.q, r.n, r.k)) == Verdict("unknown")
    assert _verdict(r.d, t.lookup(r.q, r.n, r.k)).status == "optimal"


def test_verdict_above_table():
    # a certified d above the table is a table error or a record, never "optimal"
    v = _verdict(9, 7)
    assert v == Verdict("exceeds-table", -2)
    assert str(v) == "exceeds-table(-2)"
    assert _verdict(7, 7) == Verdict("optimal", 0)


def test_verify_examples_small():
    rep = verify_reference_examples(names=["GF(3)", "n=9"])
    assert len(rep.examples) == 2
    assert rep.passed
    labels = [c.label for c in rep.examples[0].checks]
    assert "e^2 = e" in labels
    assert any("rediscovers" in lbl for lbl in labels)


def test_idempotents_formed_once_per_context(monkeypatch):
    # the lattice walk forms its idempotents through the public poly entry,
    # one call per context, in the search and in the reference verifier
    import twistcodes.discover as discover

    calls = []
    original = discover.primitive_idempotents

    def counting(field, n, lam, factors):
        calls.append((field.q, n, lam.index))
        return original(field, n, lam, factors)

    monkeypatch.setattr(discover, "primitive_idempotents", counting)
    search_lcd(CTX1, 0, distances=False)
    assert calls == [(3, 10, 2)]
    calls.clear()
    rep = verify_reference_examples(names=["GF(3)", "n=9"])
    assert rep.passed
    assert calls == [(3, 10, 2), (5, 9, 4)]


def test_search_cross_checks_fire(monkeypatch):
    # each record's second LCD derivation must agree with the factor orbits:
    # negating its answer makes search_lcd raise, on a lam^2 = 1 context by
    # the idempotent criterion and on a lam^2 != 1 one by subspace intersection
    import twistcodes.discover as discover

    monkeypatch.setattr(discover, "check_idempotent_lcd", lambda e, k: not check_idempotent_lcd(e, k))
    assert CTX1.has_involution
    with pytest.raises(Error, match="idempotent LCD criterion disagrees with the factor orbits"):
        search_lcd(CTX1, 0, distances=False)

    monkeypatch.setattr(discover, "is_lcd", lambda C, k: not is_lcd(C, k))
    ctx = AlgebraCtx(F9, 5, [0, 1])  # lam = x has order 4, and lam^(1 + 3) = 1
    assert not ctx.has_involution
    assert factor_orbits(ctx, factor_xn_minus_lambda(F9, 5, ctx.lam), 1) is not None
    with pytest.raises(Error, match="subspace intersection disagrees with the factor orbits"):
        search_lcd(ctx, 1, distances=False)


def test_factor_orbits_rejects_a_non_factor():
    factors = factor_xn_minus_lambda(F3, 10, CTX1.lam)
    factors[0] = Poly.from_indices(F3, (2, 1, 1))  # x^2 + x + 2, whose image is x^2 + 2x + 2
    message = "maps the factor x^2 + x + 2 to x^2 + 2x + 2, which is not a factor of x^10 - 2"
    with pytest.raises(Error, match=re.escape(message)):
        factor_orbits(CTX1, factors, 0)
