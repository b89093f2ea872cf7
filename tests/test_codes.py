import random
import time
import tracemalloc
from unittest import mock

import pytest

from twistcodes import codes
from twistcodes.errors import (
    BudgetExceeded,
    Error,
    ExponentOutOfRange,
    InvolutionUndefined,
    LengthMismatch,
    NotConstacyclic,
    NotIdempotent,
    NotSemisimple,
    ZeroCode,
)
from twistcodes.gf import GF, FieldSpec
from twistcodes.codes import (
    DistanceCertificate,
    LinearCode,
    check_idempotent_lcd,
    constacyclic_shift,
    dual,
    generator_poly,
    ideal_from_element,
    idempotent_generator,
    intersection_dim,
    is_lambda_constacyclic,
    is_lcd,
    min_distance,
    phi,
    phi_inv,
)
from twistcodes.discover import factor_orbits, iter_ideal_codes
from twistcodes.poly import Poly, factor_xn_minus_lambda
from twistcodes.talg import AlgebraCtx, frobenius_twist, k_galois_form

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)
F9 = FieldSpec(3, 2, modulus=[1, 0, 1])

CTX1 = AlgebraCtx(F3, 10, 2)
E1 = CTX1.elem_from_dict({0: 2, 2: 2, 4: 1, 6: 2, 8: 1})
C1 = ideal_from_element(E1)


def rand_vec(F, n, rng):
    return tuple(F.from_index(rng.randrange(F.q)) for _ in range(n))


# -- phi and shifts ----------------------------------------------------------


def test_phi_roundtrip_and_equivariance():
    rng = random.Random(0)
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2), AlgebraCtx(F3, 1, 2)):
        for _ in range(50):
            v = rand_vec(ctx.field, ctx.n, rng)
            a = phi(ctx, v)
            assert phi_inv(a) == v
            assert phi(ctx, constacyclic_shift(ctx.lam, v)) == ctx.gbar * a
    with pytest.raises(LengthMismatch):
        phi(CTX1, rand_vec(F3, 9, rng))


def test_constacyclic_shift():
    v = tuple(F3.element(c) for c in (0, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    assert constacyclic_shift(F3.element(2), v) == tuple(
        F3.element(c) for c in (2, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    )
    # lam = 1 is the ordinary cyclic shift
    w = tuple(F3.element(c) for c in (1, 2, 0, 1))
    assert constacyclic_shift(F3.one, w) == tuple(F3.element(c) for c in (1, 1, 2, 0))
    # n shifts multiply by lam
    rng = random.Random(1)
    v = rand_vec(F3, 10, rng)
    u = v
    for _ in range(10):
        u = constacyclic_shift(F3.element(2), u)
    assert u == tuple(F3.element(2) * c for c in v)


# -- LinearCode basics -------------------------------------------------------


def test_rref_canonical():
    rng = random.Random(2)
    rows = C1.basis()
    for _ in range(10):
        # random invertible recombination spans the same code
        mixed = []
        for _ in range(len(rows)):
            acc = tuple(F3.zero for _ in range(10))
            for r in rows:
                c = F3.from_index(rng.randrange(3))
                acc = tuple(x + c * y for x, y in zip(acc, r))
            mixed.append(acc)
        mixed.extend(rows)
        assert LinearCode.from_vectors(F3, 10, mixed) == C1


def test_contains_and_dims():
    assert C1.k == 8
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [F3.from_index(rng.randrange(3)) for _ in range(C1.k)]
        v = tuple(F3.zero for _ in range(10))
        for c, row in zip(coeffs, C1.basis()):
            v = tuple(x + c * y for x, y in zip(v, row))
        assert C1.contains(v)
    assert not C1.contains(tuple(F3.element(c) for c in (0,) * 9 + (1,)))
    assert LinearCode.zero(F3, 10).k == 0
    assert LinearCode.full(F3, 10).k == 10


def test_code_serialization_roundtrip():
    d = C1.to_dict()
    assert LinearCode.from_dict(d) == C1


# -- constacyclic structure ---------------------------------------------------


def test_is_lambda_constacyclic():
    lam = F3.element(2)
    assert is_lambda_constacyclic(LinearCode.zero(F3, 10), lam)
    assert is_lambda_constacyclic(LinearCode.full(F3, 10), lam)
    assert is_lambda_constacyclic(LinearCode.full(F3, 10), F3.one)
    assert is_lambda_constacyclic(C1, lam)
    assert not is_lambda_constacyclic(C1, F3.one)


def test_shift_criterion_matches_ideal_criterion():
    # closure under the twisted shift == closure under multiplication by gbar
    rng = random.Random(9)
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2)):
        for mask, e, C in iter_ideal_codes(ctx):
            for bi in range(1, ctx.field.q):
                beta = ctx.field.from_index(bi)
                bctx = AlgebraCtx(ctx.field, ctx.n, beta)
                algebra_side = all(
                    C.contains(phi_inv(bctx.gbar * phi(bctx, row)))
                    for row in C.basis()
                )
                assert is_lambda_constacyclic(C, beta) == algebra_side


def test_double_constacyclic_exclusion():
    # a proper nonzero ideal is constacyclic for exactly one lam
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4)):
        F = ctx.field
        for mask, e, C in iter_ideal_codes(ctx):
            if C.k in (0, ctx.n):
                continue
            for bi in range(1, F.q):
                beta = F.from_index(bi)
                assert is_lambda_constacyclic(C, beta) == (beta == ctx.lam)


def test_ideal_from_element_trivia():
    assert ideal_from_element(CTX1.one) == LinearCode.full(F3, 10)
    assert ideal_from_element(CTX1.zero) == LinearCode.zero(F3, 10)
    assert C1.k == 8


def shift_rows_code(a):
    """<a> as its definition reads: the row space of the n twisted shifts
    of phi^{-1}(a), built from FieldElem vectors."""
    v, rows = phi_inv(a), []
    for _ in range(a.ctx.n):
        rows.append(v)
        v = constacyclic_shift(a.ctx.lam, v)
    return LinearCode.from_vectors(a.ctx.field, a.ctx.n, rows)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
def test_ideal_from_element_matches_shift_rows(q):
    # the acceptance matrix: n <= 15 prime to p, every unit lam (n = 1 and
    # lam != 1 included); every ideal's idempotent plus two dense elements
    F = GF(q)
    rng = random.Random(q)
    for n in range(1, 16):
        if n % F.p == 0:
            continue
        for i in range(1, q):
            ctx = AlgebraCtx(F, n, F.from_index(i))
            for _, e, C in iter_ideal_codes(ctx):
                assert C == shift_rows_code(e), (ctx, e)
            for _ in range(2):
                a = ctx.from_indices([rng.randrange(q) for _ in range(n)])
                assert ideal_from_element(a) == shift_rows_code(a), (ctx, a)


def test_generator_poly():
    assert generator_poly(LinearCode.full(F3, 10), CTX1).is_one()
    assert generator_poly(LinearCode.zero(F3, 10), CTX1) == Poly.xn_minus(F3, 10, F3.element(2))
    g = generator_poly(C1, CTX1)
    assert g == Poly(F3, [1, 0, 1])  # x^2 + 1, the only degree-2 factor
    assert g.degree == 10 - C1.k
    q, r = divmod(Poly.xn_minus(F3, 10, F3.element(2)), g)
    assert r.is_zero()
    with pytest.raises(NotConstacyclic):
        generator_poly(C1, AlgebraCtx(F3, 10, 1))


def test_idempotent_generator():
    assert idempotent_generator(LinearCode.full(F3, 10), CTX1) == CTX1.one
    assert idempotent_generator(LinearCode.zero(F3, 10), CTX1) == CTX1.zero
    assert idempotent_generator(C1, CTX1) == E1
    fc = ideal_from_element(CTX1.one - E1)
    assert idempotent_generator(fc, CTX1) == CTX1.one - E1
    with pytest.raises(NotSemisimple):
        idempotent_generator(LinearCode.full(F3, 9), AlgebraCtx(F3, 9, 1))


def test_idempotent_generator_roundtrip_all_ideals():
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2)):
        seen = set()
        count = 0
        for mask, e, C in iter_ideal_codes(ctx):
            assert idempotent_generator(C, ctx) == e
            assert ideal_from_element(e) == C
            seen.add(C)
            count += 1
        # masks give pairwise distinct ideals
        assert len(seen) == count


# -- duals and LCD -----------------------------------------------------------


def test_dual_basics():
    assert dual(LinearCode.full(F3, 10)) == LinearCode.zero(F3, 10)
    assert dual(LinearCode.zero(F3, 10)) == LinearCode.full(F3, 10)
    rng = random.Random(4)
    for F in (F3, F5, F9):
        for _ in range(20):
            n = rng.randrange(1, 12)
            vecs = [rand_vec(F, n, rng) for _ in range(rng.randrange(0, n + 1))]
            C = LinearCode.from_vectors(F, n, vecs)
            for k in range(F.m):
                D = dual(C, k)
                assert C.k + D.k == n
                # every pair of rows is orthogonal under the k-Galois form
                for u in C.basis():
                    for v in D.basis():
                        s = F.zero
                        for x, y in zip(u, v):
                            s = s + x * y.frobenius(k)
                        assert s.is_zero()
            assert dual(dual(C, 0), 0) == C


def test_dual_double_galois():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 10)
        vecs = [rand_vec(F9, n, rng) for _ in range(rng.randrange(0, n + 1))]
        C = LinearCode.from_vectors(F9, n, vecs)
        # the k-Galois dual of the k-Galois dual returns to C
        for k in range(2):
            D = dual(dual(C, k), (F9.m - k) % F9.m if k else 0)
            if k == 0:
                assert D == C


def test_dual_constacyclic_constant():
    # over GF(8), m - k differs from k for k = 1, 2; lam = x has a root, so nontrivial ideals
    F8 = GF(8)
    for ctx, ks in ((CTX1, (0,)), (AlgebraCtx(F9, 8, 2), (0, 1)), (AlgebraCtx(F5, 21, 4), (0,)),
                    (AlgebraCtx(F8, 3, [0, 1]), (0, 1, 2)), (AlgebraCtx(F8, 5, [0, 1]), (0, 1, 2))):
        F, m = ctx.field, ctx.field.m
        for mask, e, C in iter_ideal_codes(ctx):
            for k in ks:
                mu = ctx.lam.frobenius((m - k) % m).inverse()
                D = dual(C, k)
                assert ctx.dual_constant(k) == mu
                assert C.k + D.k == ctx.n
                assert is_lambda_constacyclic(D, mu)


def test_is_lcd():
    assert is_lcd(LinearCode.zero(F3, 10), 0)
    assert is_lcd(C1, 0)
    # lam of order > 2: every ideal is LCD
    ctx = AlgebraCtx(F5, 6, 2)
    for mask, e, C in iter_ideal_codes(ctx):
        assert is_lcd(C, 0)


def test_intersection_dim():
    D = dual(C1, 0)
    assert intersection_dim(C1, D) == 0
    assert intersection_dim(C1, C1) == C1.k
    assert intersection_dim(C1, LinearCode.full(F3, 10)) == C1.k


def test_check_idempotent_lcd():
    assert check_idempotent_lcd(CTX1.one, 0)
    assert check_idempotent_lcd(E1, 0)
    ctx7 = AlgebraCtx(F7, 19, 6)
    e4 = ctx7.elem([0, 4, 1, 6, 2, 6, 2, 4, 3, 5, 2, 4, 3, 5, 1, 5, 1, 6, 3])
    assert check_idempotent_lcd(e4, 0)
    with pytest.raises(NotIdempotent):
        check_idempotent_lcd(CTX1.basis(1), 0)


CTX9 = AlgebraCtx(F9, 8, 2)  # lam = -1, so lam^2 = 1
GALOIS_USERS = {
    "dual": lambda k: dual(ideal_from_element(CTX9.one), k),
    "frobenius_twist": lambda k: frobenius_twist(CTX9.one, k),
    "k_galois_form": lambda k: k_galois_form(CTX9.one, CTX9.one, k),
    "check_idempotent_lcd": lambda k: check_idempotent_lcd(CTX9.one, k),
    "factor_orbits": lambda k: factor_orbits(CTX9, factor_xn_minus_lambda(F9, 8, CTX9.lam), k),
    "dual_constant": lambda k: CTX9.dual_constant(k),
}


@pytest.mark.parametrize("k", (2, -1))
@pytest.mark.parametrize("name", sorted(GALOIS_USERS))
def test_galois_parameter_message(name, k):
    # GF(9) admits k = 0 and k = 1 only, and every entry says so in the same words
    with pytest.raises(ExponentOutOfRange) as info:
        GALOIS_USERS[name](k)
    assert str(info.value) == f"Galois parameter k = {k} outside 0..1"


def test_idempotent_lcd_involution_before_galois_parameter():
    ctx = AlgebraCtx(F9, 8, [0, 1])  # lam = x, with x^2 = -1 != 1
    assert not ctx.has_involution
    with pytest.raises(InvolutionUndefined):
        check_idempotent_lcd(ctx.one, 2)


def test_lcd_criteria_agree_small_ctxs():
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 4, 1), AlgebraCtx(F9, 4, 2)):
        ks = range(ctx.field.m)
        for mask, e, C in iter_ideal_codes(ctx):
            for k in ks:
                assert check_idempotent_lcd(e, k) == is_lcd(C, k), (ctx, mask, k)


# -- minimum distance ---------------------------------------------------------


def test_min_distance_repetition():
    ones = [tuple(F5.one for _ in range(9))]
    C = LinearCode.from_vectors(F5, 9, ones)
    for method in ("exhaustive", "info-set"):
        cert = min_distance(C, method=method)
        assert cert.d == 9
        assert sum(1 for c in cert.witness if not c.is_zero()) == 9


def test_min_distance_weight_above_255():
    C = LinearCode.from_vectors(F5, 300, [tuple(F5.one for _ in range(300))])
    for method in ("exhaustive", "info-set"):
        assert min_distance(C, method=method).d == 300


def test_min_distance_reference_code():
    cert = min_distance(C1)
    assert cert.d == 2 and cert.method == "exhaustive" and cert.work == 3**8
    assert C1.contains(cert.witness)
    f_code = ideal_from_element(CTX1.one - E1)
    cert_f = min_distance(f_code)
    assert cert_f.d == 5
    assert f_code.contains(cert_f.witness)


def test_min_distance_infoset_certificate():
    ctx3 = AlgebraCtx(F5, 21, 4)
    e = ctx3.elem_from_dict(
        {19: 4, 18: 4, 15: 1, 14: 2, 13: 4, 12: 4, 11: 4, 10: 1, 9: 1, 8: 1,
         7: 3, 6: 4, 3: 1, 2: 1, 0: 1}
    )
    Cf = ideal_from_element(ctx3.one - e)
    cert = min_distance(Cf)
    assert (Cf.k, cert.d) == (15, 3)
    assert cert.method == "info-set"
    assert cert.work <= 3500
    assert cert.message_weight == 2  # levels 1 and 2 suffice: 3 <= 2 + 1
    assert Cf.contains(cert.witness)


def test_min_distance_methods_agree():
    rng = random.Random(6)
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 5, 1)):
        for mask, e, C in iter_ideal_codes(ctx):
            if C.k == 0 or ctx.field.q**C.k > 10**5:
                continue
            a = min_distance(C, method="exhaustive")
            b = min_distance(C, method="info-set")
            assert a.d == b.d, (ctx, mask)
            for cert in (a, b):
                assert C.contains(cert.witness)
                assert sum(1 for c in cert.witness if not c.is_zero()) == cert.d


def test_min_distance_errors():
    with pytest.raises(ZeroCode):
        min_distance(LinearCode.zero(F3, 10))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(C1, budget=100)
    assert exc.value.lower >= 1
    assert exc.value.work <= 100
    # info-set budget carries partial bounds
    ctx3 = AlgebraCtx(F5, 21, 4)
    e = next(iter_ideal_codes(ctx3))[1]
    big = ideal_from_element(ctx3.one)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(big, budget=3, method="info-set")
    assert exc.value.lower == 1
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        min_distance(C1, method="bogus")


def _kernel_returning(d):
    return lambda C, budget: DistanceCertificate(d, (), "exhaustive", 1)


def _kernel_exhausted(upper, lower):
    def kernel(C, budget):
        raise BudgetExceeded(upper, lower, budget)

    return kernel


def test_min_distance_checks_singleton_and_griesmer():
    hamming = ideal_from_element(AlgebraCtx(GF(2), 7, 1).elem([1, 1, 0, 1]))  # [7,4,3]
    patch = mock.patch.object
    with patch(codes, "_min_distance_exhaustive", _kernel_returning(3)):
        assert min_distance(C1).d == 3  # [10,8,3] over GF(3) meets both bounds
        assert min_distance(hamming).d == 3
    with patch(codes, "_min_distance_exhaustive", _kernel_returning(4)):
        with pytest.raises(Error, match="Singleton bound n - k \\+ 1 = 3"):
            min_distance(C1)  # [10,8,4]
        with pytest.raises(Error, match="breaks the Griesmer bound: n >= 8"):
            min_distance(hamming)  # [7,4,4]: within Singleton, not Griesmer
    with patch(codes, "_min_distance_infoset", _kernel_returning(4)):
        with pytest.raises(Error, match="certified minimum distance: "):
            min_distance(hamming, method="info-set")
    # a budget stop: d >= lower must be possible, and the error is not a
    # BudgetExceeded, so no caller reports it as a budget stop
    with patch(codes, "_min_distance_exhaustive", _kernel_exhausted(None, 4)):
        with pytest.raises(Error, match="minimum distance lower bound: .*Griesmer") as exc:
            min_distance(hamming)
        assert not isinstance(exc.value, BudgetExceeded)
    with patch(codes, "_min_distance_exhaustive", _kernel_exhausted(4, 3)):
        with pytest.raises(BudgetExceeded):
            min_distance(hamming)


def test_budget_upper_bound_may_exceed_griesmer():
    # every row has weight 4, and the rows sum in pairs to weight 2: the
    # weight-1 messages give upper = 4, above the Griesmer maximum 3 of a
    # binary [7,4] code, yet the stop before weight 2 is an honest one
    F2 = GF(2)
    rows = [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    C = LinearCode.from_vectors(F2, 7, [[F2.from_index(b) for b in r] for r in rows])
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(C, budget=4, method="info-set")
    assert (exc.value.upper, exc.value.lower) == (4, 2)
    assert min_distance(C).d == 2


def test_min_distance_budget_bounds_memory():
    """A 5^21-codeword enumeration stopped by its budget builds tables sized
    by the budget, not by 5^k: no 5^10-row split table (about 200 MB)."""
    C = ideal_from_element(AlgebraCtx(F5, 21, 4).one)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            min_distance(C, budget=10**5, method="exhaustive")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.lower, exc.value.upper, exc.value.work) == (1, 1, 98_304)
    assert elapsed < 1.0
    assert peak < 8 * 2**20


def test_certificate_dict():
    cert = min_distance(C1)
    d = cert.to_dict()
    assert d["d"] == 2 and d["method"] == "exhaustive" and len(d["witness"]) == 10
