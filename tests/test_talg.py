import random

import pytest

from twistcodes.errors import (
    CtxMismatch,
    ExponentOutOfRange,
    InvalidWitness,
    InvolutionUndefined,
    ZeroLambda,
)
from twistcodes.gf import GF, FieldSpec
from twistcodes.talg import (
    AlgebraCtx,
    CocycleTable,
    apply_isometry,
    coeff_identity,
    elem_mul,
    equivalence_witness,
    frobenius_twist,
    involution_star,
    k_galois_form,
    validate_cocycle,
)

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)
F9 = FieldSpec(3, 2, modulus=[1, 0, 1])

CTX1 = AlgebraCtx(F3, 10, 2)  # [10,8,2] reference setting
E1 = CTX1.elem_from_dict({0: 2, 2: 2, 4: 1, 6: 2, 8: 1})


def rand_elem(ctx, rng):
    return ctx.elem([ctx.field.from_index(rng.randrange(ctx.field.q)) for _ in range(ctx.n)])


def test_ctx_validation():
    with pytest.raises(ZeroLambda):
        AlgebraCtx(F3, 10, 0)
    with pytest.raises(ValueError):
        AlgebraCtx(F3, 0, 1)
    with pytest.raises(ValueError):
        AlgebraCtx(F3, 256, 1)


def test_gamma_values():
    assert CTX1.gamma(3, 4) == F3.one
    assert CTX1.gamma(6, 4) == F3.element(2)
    for j in range(10):
        assert CTX1.gamma(0, j) == F3.one
        assert CTX1.gamma(j, 0) == F3.one
    with pytest.raises(ExponentOutOfRange):
        CTX1.gamma(10, 0)


def test_gbar_wrap():
    # gbar * gbar^(n-1) = lam * 1
    assert CTX1.basis(1) * CTX1.basis(9) == CTX1.elem([2])
    # gbar^n = lam for every context, by repeated multiplication
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, [0, 1])):
        g = ctx.gbar
        acc = ctx.one
        for _ in range(ctx.n):
            acc = acc * g
        assert acc == ctx.elem([ctx.lam])
    # n = 1: the quotient relation makes gbar equal lam * 1
    ctx1 = AlgebraCtx(F3, 1, 2)
    assert ctx1.gbar == ctx1.elem([2])


def test_identity_and_basis_products():
    rng = random.Random(0)
    a = rand_elem(CTX1, rng)
    assert CTX1.one * a == a
    for i in range(10):
        for j in range(10):
            prod = CTX1.basis(i) * CTX1.basis(j)
            expected = CTX1.basis((i + j) % 10) * CTX1.gamma(i, j)
            assert prod == expected


def test_mul_associative_commutative():
    rng = random.Random(1)
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2)):
        for _ in range(100):
            a, b, c = (rand_elem(ctx, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def _elem_mul_double_loop(a, b):
    """The twisted convolution term by term, wrapping past gbar^(n-1) with lam."""
    ctx = a.ctx
    F, n = ctx.field, ctx.n
    out = [0] * n
    for i, x in enumerate(c.index for c in a.coeffs):
        for j, y in enumerate(c.index for c in b.coeffs):
            t = F.mul_index(x, y)
            if i + j >= n:
                t = F.mul_index(t, ctx.lam.index)
            out[(i + j) % n] = F.add_index(out[(i + j) % n], t)
    return tuple(F.from_index(i) for i in out)


# tables up to q = 256, computed entries above; n = 1; lam = 1 and lam != 1
INDEX_CONTEXTS = [
    (3, 10, 2), (5, 9, 4), (7, 6, 3), (9, 8, (1, 1)), (4, 5, (0, 1)), (2, 7, 1),
    (5, 1, 3), (9, 1, (2, 1)), (257, 4, 3), (729, 3, (1, 2)),
]


def rand_operands(ctx, rng):
    a, b = rand_elem(ctx, rng), rand_elem(ctx, rng)
    if rng.random() < 0.3:  # sparse operands, zero included
        a = ctx.elem([c if rng.random() < 0.3 else 0 for c in a.coeffs])
    return a, b


@pytest.mark.parametrize("q,n,lam", INDEX_CONTEXTS)
def test_elem_mul_matches_double_loop(q, n, lam):
    ctx = AlgebraCtx(GF(q), n, lam)
    rng = random.Random(q * 1000 + n)
    for _ in range(30):
        a, b = rand_operands(ctx, rng)
        assert elem_mul(a, b).coeffs == _elem_mul_double_loop(a, b)


def _str_from_coeffs(coeffs):
    """gbar notation from FieldElem coefficients: highest power first,
    no zero terms, no unit coefficients."""
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if c.is_zero():
            continue
        cs = str(c.index) if c.field.m == 1 else "(" + ",".join(map(str, c.coeffs)) + ")"
        power = "" if i == 0 else "g\u0304" if i == 1 else f"g\u0304^{i}"
        terms.append(cs + power if cs != "1" or i == 0 else power)
    return " + ".join(terms) or "0"


@pytest.mark.parametrize("q,n,lam", INDEX_CONTEXTS)
def test_index_ops_match_coefficient_ops(q, n, lam):
    ctx = AlgebraCtx(GF(q), n, lam)
    F = ctx.field
    # the involution needs lam^2 = 1: where lam is not such, use lam = -1
    star_ctx = ctx if ctx.lam * ctx.lam == F.one else AlgebraCtx(F, n, -F.one)
    star_lam_inv = star_ctx.lam.inverse()
    rng = random.Random(q * 1000 + n + 1)
    for _ in range(30):
        a, b = rand_operands(ctx, rng)
        ca, cb = a.coeffs, b.coeffs
        c = F.from_index(rng.randrange(q))
        assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
        assert (-a).coeffs == tuple(-x for x in ca)
        assert (a * c).coeffs == tuple(x * c for x in ca)
        assert c * a == a * c
        assert a.weight() == sum(1 for x in ca if not x.is_zero())
        assert a.is_zero() == all(x.is_zero() for x in ca)
        assert a.ser() == [x.index if F.m == 1 else list(x.coeffs) for x in ca]
        assert str(a) == _str_from_coeffs(ca)
        assert coeff_identity(a) == ca[0]
        for k in range(F.m):
            assert frobenius_twist(a, k).coeffs == tuple(x ** (F.p**k) for x in ca)
            form = F.zero
            for x, y in zip(ca, cb):
                form = form + x * y ** (F.p**k)
            assert k_galois_form(a, b, k) == form
        s = star_ctx.from_indices(a.indices)
        # position n - i takes lam^(-1) c_i
        want = [ca[0]] + [star_lam_inv * ca[n - j] for j in range(1, n)]
        assert involution_star(s).coeffs == tuple(want)


def test_ctx_mismatch():
    other = AlgebraCtx(F3, 10, 1)
    with pytest.raises(CtxMismatch):
        elem_mul(CTX1.one, other.one)


def test_reference_idempotent():
    assert E1 * E1 == E1
    assert involution_star(E1) == E1
    assert k_galois_form(E1, CTX1.one - E1, 0) == F3.zero


def test_involution_laws():
    assert involution_star(CTX1.one) == CTX1.one
    # lam = 1: plain coefficient reversal
    cyc = AlgebraCtx(F3, 10, 1)
    for i in range(1, 10):
        assert involution_star(cyc.basis(i)) == cyc.basis(10 - i)
    rng = random.Random(2)
    for ctx in (CTX1, cyc, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 8, 2)):
        assert ctx.has_involution and ctx.semisimple  # lam = +-1, p does not divide n
        for _ in range(100):
            a, b = rand_elem(ctx, rng), rand_elem(ctx, rng)
            assert involution_star(involution_star(a)) == a
            assert involution_star(a * b) == involution_star(a) * involution_star(b)
            assert involution_star(a + b) == involution_star(a) + involution_star(b)


def test_involution_undefined():
    ctx = AlgebraCtx(F5, 6, 2)  # 2^2 = 4 != 1 in GF(5)
    assert not ctx.has_involution and ctx.semisimple
    with pytest.raises(InvolutionUndefined):
        involution_star(ctx.one)


def test_frobenius_twist():
    rng = random.Random(3)
    ctx9 = AlgebraCtx(F9, 8, 2)
    for _ in range(50):
        a = rand_elem(ctx9, rng)
        assert frobenius_twist(a, 0) == a
        assert frobenius_twist(frobenius_twist(a, 1), 1) == a
    a = rand_elem(CTX1, rng)
    assert frobenius_twist(a, 0) == a
    with pytest.raises(ExponentOutOfRange):
        frobenius_twist(a, 1)  # m = 1 admits only k = 0


def test_k_galois_form_basics():
    assert k_galois_form(CTX1.one, CTX1.one, 0) == F3.one
    assert k_galois_form(E1, CTX1.zero, 0) == F3.zero
    rng = random.Random(4)
    ctx9 = AlgebraCtx(F9, 8, 2)
    for k in (0, 1):
        for _ in range(50):
            a, b, c = (rand_elem(ctx9, rng) for _ in range(3))
            assert k_galois_form(a + b, c, k) == k_galois_form(a, c, k) + k_galois_form(b, c, k)


def test_coeff_identity_matches_galois_form():
    assert coeff_identity(CTX1.one) == F3.one
    assert coeff_identity(CTX1.basis(1)) == F3.zero
    rng = random.Random(5)
    for ctx, ks in ((CTX1, (0,)), (AlgebraCtx(F9, 8, 2), (0, 1)), (AlgebraCtx(F5, 9, 4), (0,))):
        for k in ks:
            for _ in range(100):
                a, b = rand_elem(ctx, rng), rand_elem(ctx, rng)
                lhs = coeff_identity(a * involution_star(frobenius_twist(b, k)))
                assert lhs == k_galois_form(a, b, k)


def test_cocycle_table_validation():
    for ctx in (CTX1, AlgebraCtx(F5, 9, 4), AlgebraCtx(F9, 4, 2)):
        assert validate_cocycle(CocycleTable.from_ctx(ctx))
    n = 6
    ones = CocycleTable(F3, [[F3.one] * n for _ in range(n)])
    assert validate_cocycle(ones)
    # perturbing one interior entry must violate some triple: find one by
    # scanning independently, then expect the validator to agree
    bad = ones.with_entry(1, 1, F3.element(2))
    v = bad.values
    violated = False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if v[i][j] * v[(i + j) % n][k] != v[j][k] * v[i][(j + k) % n]:
                    violated = True
    assert violated
    assert not validate_cocycle(bad)


def test_cocycle_table_wellformedness():
    with pytest.raises(ZeroLambda):
        CocycleTable(F3, [[F3.one, F3.one], [F3.one, F3.zero]])
    with pytest.raises(ValueError):
        CocycleTable(F3, [[F3.one, F3.element(2)], [F3.one, F3.one]])


def test_equivalence_witness():
    assert equivalence_witness(F3, 10, F3.element(2), F3.element(2)) == F3.one
    assert equivalence_witness(F3, 10, F3.element(2), F3.one) is None
    # gcd(n, q-1) = 1 forces equivalence: gcd(3, 4) = 1 over GF(5)
    for li in range(1, 5):
        for bi in range(1, 5):
            assert equivalence_witness(F5, 3, F5.from_index(li), F5.from_index(bi)) is not None


def test_pairwise_inequivalent_count_is_gcd():
    from math import gcd

    for F in (F3, F5, F7, F9):
        for n in (1, 2, 3, 4, 6, 10):
            classes = []
            for i in range(1, F.q):
                lam = F.from_index(i)
                for rep in classes:
                    if equivalence_witness(F, n, lam, rep) is not None:
                        break
                else:
                    classes.append(lam)
            assert len(classes) == gcd(n, F.q - 1)


def test_apply_isometry():
    lam, beta = F5.element(2), F5.one
    w = equivalence_witness(F5, 3, lam, beta)
    assert w == F5.element(3)  # 3^3 = 27 = 2 mod 5
    src, dst = AlgebraCtx(F5, 3, lam), AlgebraCtx(F5, 3, beta)
    rng = random.Random(6)
    images = set()
    for _ in range(100):
        a, b = rand_elem(src, rng), rand_elem(src, rng)
        pa, pb = apply_isometry(a, w, dst), apply_isometry(b, w, dst)
        assert apply_isometry(a * b, w, dst) == pa * pb
        assert apply_isometry(a + b, w, dst) == pa + pb
        assert pa.weight() == a.weight()
        images.add(pa.coeffs)
    # identity witness between equal contexts
    same = AlgebraCtx(F5, 3, lam)
    a = rand_elem(src, rng)
    assert apply_isometry(a, F5.one, same) == a
    with pytest.raises(InvalidWitness):
        apply_isometry(a, F5.element(2), dst)  # 2^3 = 3 != 2


def test_apply_isometry_bijective():
    lam, beta = F5.element(2), F5.one
    w = equivalence_witness(F5, 3, lam, beta)
    src, dst = AlgebraCtx(F5, 3, lam), AlgebraCtx(F5, 3, beta)
    seen = set()
    for i in range(5**3):
        coeffs = [F5.from_index(i % 5), F5.from_index(i // 5 % 5), F5.from_index(i // 25)]
        seen.add(apply_isometry(src.elem(coeffs), w, dst).coeffs)
    assert len(seen) == 5**3
