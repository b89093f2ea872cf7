"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the sweep criteria share one lazily built lattice over the matrix
q in {2,3,4,5,7,9}, n <= 15 with gcd(n,p) = 1, for all unit wrap
constants (criteria 6 and 10 restrict to lam^2 = 1).
"""

import random
import time
from math import gcd

import pytest

from twistcodes.gf import GF, norm_image_classes
from twistcodes.codes import (
    check_idempotent_lcd,
    dual,
    ideal_from_element,
    intersection_dim,
    is_lambda_constacyclic,
    is_lcd,
    min_distance,
)
from twistcodes.discover import (
    REFERENCE_EXAMPLES,
    _is_union,
    factor_orbits,
    iter_ideal_codes,
    make_reference_ctx,
    search_lcd,
)
from twistcodes.poly import factor_xn_minus_lambda
from twistcodes.talg import (
    AlgebraCtx,
    CocycleTable,
    apply_isometry,
    coeff_identity,
    equivalence_witness,
    frobenius_twist,
    involution_star,
    k_galois_form,
    validate_cocycle,
)

MATRIX_QS = (2, 3, 4, 5, 7, 9)
MATRIX_MAX_N = 15


def report(num, desc):
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def matrix_ctxs(all_lambda):
    for q in MATRIX_QS:
        F = GF(q)
        one = F.one
        for n in range(1, MATRIX_MAX_N + 1):
            if gcd(n, F.p) != 1:
                continue
            for i in range(1, q):
                lam = F.from_index(i)
                if all_lambda or lam * lam == one:
                    yield AlgebraCtx(F, n, lam)


@pytest.fixture(scope="module")
def lattice():
    """Every ideal of every matrix context (all unit lam), with its
    idempotent, its k-Galois duals, and the subspace LCD flags."""
    out = []
    for ctx in matrix_ctxs(all_lambda=True):
        entries = []
        for mask, e, C in iter_ideal_codes(ctx):
            per_k = {}
            for k in range(ctx.field.m):
                D = dual(C, k)
                per_k[k] = (D, intersection_dim(C, D) == 0)
            entries.append((mask, e, C, per_k))
        out.append((ctx, entries))
    return out


def lam2_subset(lattice):
    return [
        (ctx, entries)
        for ctx, entries in lattice
        if ctx.lam * ctx.lam == ctx.field.one
    ]


# -- criteria 1-4: reference-example reproduction -----------------------------


def _example_codes(index):
    ex = REFERENCE_EXAMPLES[index]
    ctx, e, f = make_reference_ctx(ex)
    return ex, ctx, e, f


def test_criterion_1_example_gf3():
    t0 = time.perf_counter()
    ex, ctx, e, f = _example_codes(0)
    assert e * e == e
    assert involution_star(e) == e
    assert f == ctx.one - e
    Ce, Cf = ideal_from_element(e), ideal_from_element(f)
    assert (Ce.k, min_distance(Ce).d) == (8, 2)
    assert (Cf.k, min_distance(Cf).d) == (2, 5)
    assert is_lcd(Ce, 0) and check_idempotent_lcd(e, 0)
    assert is_lcd(Cf, 0) and check_idempotent_lcd(f, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"GF(3) n=10 lam=2: (8,2) and (2,5), LCD, exact ({elapsed:.2f}s < 1s)")


def test_criterion_2_example_gf5_n9():
    t0 = time.perf_counter()
    ex, ctx, e, f = _example_codes(1)
    assert e * e == e
    assert involution_star(e) == e and involution_star(f) == f
    assert f == ctx.one - e
    Ce, Cf = ideal_from_element(e), ideal_from_element(f)
    params = {(Ce.k, min_distance(Ce).d), (Cf.k, min_distance(Cf).d)}
    assert params == {(7, 2), (2, 6)}
    for C, gen in ((Ce, e), (Cf, f)):
        assert is_lcd(C, 0) and check_idempotent_lcd(gen, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"GF(5) n=9 lam=4: (7,2) and (2,6), LCD, exact ({elapsed:.2f}s < 1s)")


def test_criterion_3_example_gf5_n21():
    t0 = time.perf_counter()
    ex, ctx, e, f = _example_codes(2)
    assert e * e == e and f == ctx.one - e
    Ce, Cf = ideal_from_element(e), ideal_from_element(f)
    ce = min_distance(Ce)
    assert (Ce.k, ce.d) == (6, 12)
    assert ce.method == "exhaustive" and ce.work == 5**6
    cf = min_distance(Cf)
    assert (Cf.k, cf.d) == (15, 3)
    assert cf.method == "info-set"
    assert cf.message_weight == 2  # no codeword of weight <= 2 exists
    assert cf.work <= 3500
    assert cf.work == 1_740
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        3,
        f"GF(5) n=21 lam=4: (6,12) exhaustive 5^6, (15,3) info-set "
        f"work={cf.work} <= 3500 ({elapsed:.2f}s < 5s)",
    )


def test_criterion_4_example_gf7_n19():
    t0 = time.perf_counter()
    ex, ctx, e, f = _example_codes(3)
    assert e * e == e and f == ctx.one - e
    Ce, Cf = ideal_from_element(e), ideal_from_element(f)
    ce = min_distance(Ce)
    assert (Ce.k, ce.d) == (7, 10)
    assert ce.method == "exhaustive" and ce.work == 7**7
    cf = min_distance(Cf)
    assert (Cf.k, cf.d) == (12, 6)
    assert cf.method == "info-set"
    assert cf.message_weight == 5
    assert cf.work <= 7_000_000
    assert cf.work == 6_850_080
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        4,
        f"GF(7) n=19 lam=6: (7,10) exhaustive 7^7, (12,6) info-set to "
        f"message weight 5, work={cf.work} ({elapsed:.1f}s < 120s)",
    )


# The certificates of the eight reference codes, as (k, d, method, work,
# message weight, witness indices).  They pin the enumeration order: the
# witness is the first minimum-weight codeword that order meets.
REFERENCE_CERTIFICATES = {
    (0, "e"): (8, 2, "exhaustive", 6561, None, [1, 0, 0, 0, 0, 0, 0, 0, 2, 0]),
    (0, "f"): (2, 5, "exhaustive", 9, None, [1, 0, 2, 0, 1, 0, 2, 0, 1, 0]),
    (1, "e"): (2, 6, "exhaustive", 25, None, [1, 0, 4, 4, 0, 1, 1, 0, 4]),
    (1, "f"): (7, 2, "exhaustive", 78125, None, [0, 1, 0, 0, 0, 0, 0, 4, 0]),
    (2, "e"): (
        6, 12, "exhaustive", 15625, None,
        [4, 1, 0, 0, 0, 0, 1, 4, 3, 4, 0, 0, 1, 3, 0, 2, 4, 0, 0, 1, 2],
    ),
    (2, "f"): (
        15, 3, "info-set", 1740, 2,
        [0, 1, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    ),
    (3, "e"): (
        7, 10, "exhaustive", 823543, None,
        [0, 0, 1, 0, 0, 0, 0, 2, 4, 6, 1, 1, 0, 1, 4, 0, 6, 0, 4],
    ),
    (3, "f"): (
        12, 6, "info-set", 6850080, 5,
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 6, 0, 1, 3],
    ),
}


@pytest.mark.parametrize("index", range(4))
def test_reference_certificates_frozen(index):
    ex, ctx, e, f = _example_codes(index)
    for name, gen in (("e", e), ("f", f)):
        C = ideal_from_element(gen)
        cert = min_distance(C)
        got = (C.k, cert.d, cert.method, cert.work, cert.message_weight)
        assert got + ([c.index for c in cert.witness],) == REFERENCE_CERTIFICATES[index, name]


def test_criterion_5_search_rediscovery():
    found = []
    for ex in REFERENCE_EXAMPLES:
        ctx, e, f = make_reference_ctx(ex)
        triples = list(iter_ideal_codes(ctx))
        r = len(factor_xn_minus_lambda(ctx.field, ctx.n, ctx.lam))
        assert len(triples) == 2**r
        recs = search_lcd(ctx, 0, distances=False)
        idems = {rec.idempotent for rec in recs}
        assert e in idems and f in idems
        found.append(f"{ex.q}/{ex.n}: 2^{r} ideals")
    report(5, "search re-emits every hard-coded reference idempotent; " + ", ".join(found))


# -- criteria 6-8: lattice sweeps ---------------------------------------------


def test_criterion_6_lcd_criteria_equivalence_sweep(lattice):
    checks = 0
    for ctx, entries in lam2_subset(lattice):
        for mask, e, C, per_k in entries:
            for k, (D, lcd_flag) in per_k.items():
                assert check_idempotent_lcd(e, k) == lcd_flag, (ctx, mask, k)
                checks += 1
    report(6, f"idempotent criterion == subspace intersection on {checks} (ideal, k) pairs")


def test_criterion_7_dual_constants(lattice):
    checks = 0
    for ctx, entries in lattice:
        F, m, n = ctx.field, ctx.field.m, ctx.n
        for k in range(m):
            mu = ctx.lam.frobenius((m - k) % m).inverse()
            assert ctx.dual_constant(k) == mu, (ctx, k)
            for mask, e, C, per_k in entries:
                D, _ = per_k[k]
                assert C.k + D.k == n, (ctx, mask, k)
                assert is_lambda_constacyclic(D, mu), (ctx, mask, k)
                checks += 1
    report(7, f"k-Galois duals are lam^(-p^(m-k))-constacyclic with complementary "
              f"dimension on {checks} (ideal, k) pairs")


def test_criterion_8_always_lcd_fast_path(lattice):
    checks = 0
    for ctx, entries in lattice:
        F, m = ctx.field, ctx.field.m
        for k in range(m):
            if ctx.lam ** (1 + F.p ** (m - k)) == F.one:
                continue
            for mask, e, C, per_k in entries:
                assert per_k[k][1], (ctx, mask, k)
                checks += 1
    report(8, f"lam^(1+p^(m-k)) != 1 forces k-Galois LCD on {checks} ideals")


def test_criterion_12_factor_orbits_decide_search(lattice):
    searched = orbit_checks = 0
    for ctx, entries in lattice:
        F, m = ctx.field, ctx.field.m
        factors = factor_xn_minus_lambda(F, ctx.n, ctx.lam)
        for k in range(m):
            lcd = {mask: (e, C) for mask, e, C, per_k in entries if per_k[k][1]}
            recs = search_lcd(ctx, k, distances=False)
            assert sorted(r.subset_mask for r in recs) == sorted(lcd), (ctx, k)
            for r in recs:
                e, C = lcd[r.subset_mask]
                assert (r.idempotent, r.k) == (e, C.k), (ctx, r.subset_mask, k)
            searched += len(recs)
            orbits = factor_orbits(ctx, factors, k)
            # no orbits exactly when the dual is constacyclic for another constant
            assert (orbits is None) == (ctx.lam ** (1 + F.p ** ((m - k) % m)) != F.one), (ctx, k)
            if orbits is None:
                continue
            for mask, e, C, per_k in entries:
                assert _is_union(mask, orbits) == per_k[k][1], (ctx, mask, k)
                orbit_checks += 1
    report(12, f"search_lcd emits exactly the subspace-LCD ideals ({searched} records); "
               f"factor orbits == subspace intersection on {orbit_checks} (ideal, k) pairs")


# -- criterion 9: cohomology classes, witnesses, isometries --------------------


PRIME_POWERS_49 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49,
]


def test_criterion_9_h2_witness_isometry():
    rng = random.Random(9)
    class_checks = witness_checks = isometry_elems = 0
    for q in PRIME_POWERS_49:
        F = GF(q)
        for n in range(1, 31):
            count, reps = norm_image_classes(F, n)
            assert count == gcd(n, q - 1)
            class_checks += 1
        for n in (3, 10, 27):
            image = {(F.from_index(i) ** n).index for i in range(1, q)}
            if q <= 9:
                pairs = [
                    (li, bi) for li in range(1, q) for bi in range(1, q)
                ]
            else:
                pairs = [
                    (rng.randrange(1, q), rng.randrange(1, q)) for _ in range(12)
                ]
            isometries_here = 0
            for li, bi in pairs:
                lam, beta = F.from_index(li), F.from_index(bi)
                w = equivalence_witness(F, n, lam, beta)
                in_image = (lam * beta.inverse()).index in image
                assert (w is not None) == in_image
                witness_checks += 1
                if w is not None and isometries_here < 2:
                    isometries_here += 1
                    src = AlgebraCtx(F, n, lam)
                    dst = AlgebraCtx(F, n, beta)
                    for _ in range(100):
                        a = src.elem(
                            [F.from_index(rng.randrange(q)) for _ in range(n)]
                        )
                        img = apply_isometry(a, w, dst)
                        assert img.weight() == a.weight()
                    isometry_elems += 100
    report(
        9,
        f"norm classes = gcd(n, q-1) on {class_checks} (q,n); witness iff in "
        f"norm image on {witness_checks} pairs; {isometry_elems} isometry "
        f"weight checks",
    )


# -- criterion 10: distance oracle equivalence ---------------------------------


def test_criterion_10_distance_methods_agree(lattice):
    checked = 0
    for ctx, entries in lam2_subset(lattice):
        q = ctx.field.q
        for mask, e, C, per_k in entries:
            if C.k == 0 or q**C.k > 10**5:
                continue
            a = min_distance(C, method="exhaustive")
            b = min_distance(C, method="info-set")
            assert a.d == b.d, (ctx, mask)
            checked += 1
    report(10, f"exhaustive and info-set distances agree on {checked} codes")


# -- criterion 11: algebra law suite -------------------------------------------


LAW_CTXS = [
    ("GF(3) n=10 lam=2", 3, 10, 2),
    ("GF(5) n=9 lam=4", 5, 9, 4),
    ("GF(5) n=21 lam=4", 5, 21, 4),
    ("GF(7) n=19 lam=6", 7, 19, 6),
    ("GF(9) n=8 lam=2", 9, 8, 2),
    ("GF(4) n=5 lam=1", 4, 5, 1),
]


def test_criterion_11_algebra_laws():
    rng = random.Random(11)
    triples = pairs = 0
    for name, q, n, lam in LAW_CTXS:
        F = GF(q)
        ctx = AlgebraCtx(F, n, lam)
        if n <= 20:
            assert validate_cocycle(CocycleTable.from_ctx(ctx))
        # gbar^n = lam * 1 by element multiplication
        acc = ctx.one
        for _ in range(n):
            acc = acc * ctx.gbar
        assert acc == ctx.elem([ctx.lam])

        def rand():
            return ctx.elem([F.from_index(rng.randrange(q)) for _ in range(n)])

        for _ in range(1000):
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            triples += 1
        lam_elem = ctx.lam
        if lam_elem * lam_elem == F.one:
            for _ in range(1000):
                a, b = rand(), rand()
                assert involution_star(involution_star(a)) == a
                assert involution_star(a * b) == involution_star(a) * involution_star(b)
                for k in range(F.m):
                    got = coeff_identity(a * involution_star(frobenius_twist(b, k)))
                    assert got == k_galois_form(a, b, k)
                pairs += 1
    report(
        11,
        f"cocycle identity (all triples, n <= 20), gbar^n = lam, {triples} "
        f"associativity/commutativity triples, involution and Galois-form "
        f"identities on {pairs} pairs",
    )
