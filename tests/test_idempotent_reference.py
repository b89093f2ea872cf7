"""Idempotents built from power sums of roots, against two reference
constructions by the Chinese remainder theorem.  primitive_idempotents
against e_i = (h_i^(-1) mod f_i) h_i, with the cofactor h_i = (x^n - lam)/f_i
from its recurrence and the inverse from the derivative; the idempotent of
a code, and the power-sum row of any monic divisor, against e = u g mod
(x^n - lam) with u g + v h = 1, g h = x^n - lam, by the extended Euclidean
algorithm."""

from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import mul

import pytest

from twistcodes import poly
from twistcodes.codes import LinearCode, generator_poly, idempotent_generator
from twistcodes.discover import iter_ideal_codes
from twistcodes.errors import NotSemisimple
from twistcodes.gf import GF
from twistcodes.poly import (
    Poly,
    _linear_rows,
    _power_sum_row,
    factor_xn_minus_lambda,
    is_irreducible,
    primitive_idempotents,
)
from twistcodes.talg import AlgebraCtx

# the contexts of the factor benchmark workload, all at lam = 1
FACTOR_CONTEXTS = (
    (2, 255), (2, 127), (4, 85), (3, 121), (5, 124), (8, 63),
    (9, 80), (49, 48), (64, 63), (128, 127), (256, 255),
)


def ref_cofactor(f, n):
    """h = (x^n - lam) / f for a monic factor f of x^n - lam, of degree d: the
    coefficients of x^d, ..., x^(n-1) in f h vanish, so h_j = -sum_(t<d)
    f_t h_(j+d-t), taken from the top down from h_(n-d) = 1."""
    F, d = f.field, f.degree
    ADD, MUL, NEG = F._add, F._mul, F._neg
    rows = [MUL[NEG[c]] for c in f.indices[:d]]
    top, lower = rows[-1], rows[:-1]
    h = [0] * (d - 1) + [1]
    for _ in range(n - d):
        acc = top[h[-1]]
        for row, y in zip(lower, h[-d:-1]):
            acc = ADD[acc][row[y]]
        h.append(acc)
    return Poly.from_indices(F, h[d - 1 :][::-1])


def ref_idempotents(F, n, lam, factors):
    """x^n - lam = f_i h_i differentiated, times x, mod f_i gives
    n lam = x f_i' h_i, so h_i^(-1) = x f_i' (n lam)^(-1) mod f_i."""
    p, MUL = F.p, F._mul
    unit = MUL[F._inv[MUL[n % p][lam.index]]]
    out = []
    for f in factors:
        u = Poly.from_indices(F, [unit[MUL[i % p][c]] for i, c in enumerate(f.indices)]) % f
        out.append(u * ref_cofactor(f, n))
    return out


def _contexts(qs, ns):
    """(F, n, lam) for every unit lam of every GF(q) and n coprime to p."""
    for q in qs:
        F = GF(q)
        for n in ns:
            if gcd(n, F.p) == 1:
                for li in range(1, q):
                    yield F, n, F.from_index(li)


def _assert_match(contexts):
    for F, n, lam in contexts:
        factors = factor_xn_minus_lambda(F, n, lam)
        got = primitive_idempotents(F, n, lam, factors)
        assert got == ref_idempotents(F, n, lam, factors), (F, n, lam)


def test_matches_reference_on_acceptance_matrix():
    """Every context of the acceptance matrix, n = 1 included, every lam."""
    _assert_match(_contexts((2, 3, 4, 5, 7, 9), range(1, 16)))


def test_matches_reference_on_extension_fields():
    _assert_match(_contexts((8, 16, 25, 27, 49), range(1, 40)))


def test_matches_reference_on_factor_workload():
    _assert_match((GF(q), n, GF(q).one) for q, n in FACTOR_CONTEXTS)


@pytest.mark.parametrize(
    "q,n,lam",
    [(257, 16, 3), (257, 12, 1), (257, 1, 5), (257, 8, 256), (512, 21, 1), (512, 7, 3),
     (729, 13, (0, 1)), (729, 8, 1), (729, 28, 2)],
)
def test_matches_reference_without_tables(q, n, lam):
    F = GF(q)
    assert not F.has_tables
    _assert_match([(F, n, F.element(lam))])


@pytest.mark.parametrize("q,n", [(256, 255), (49, 48), (7, 6)])
def test_linear_factors_by_gather_match_recurrence(q, n):
    """Every linear factor of x^n - lam, for every lam with n-th roots: the
    log-table gather and Newton's identities give the same row."""
    F = GF(q)
    seen = 0
    for li in range(1, q):
        if not F.nth_roots(n, li):
            continue
        lam = F.from_index(li)
        linear = [f for f in factor_xn_minus_lambda(F, n, lam) if f.degree == 1]
        gathered = _linear_rows(F, n, lam, [F._neg[f.indices[0]] for f in linear])
        assert gathered.tolist() == [_power_sum_row(f, n, lam) for f in linear], (q, n, li)
        seen += len(linear)
    assert seen >= n


def test_fields_above_256_take_the_recurrence(monkeypatch):
    def no_gather(*args):
        raise AssertionError("a field without tables has no log table to gather from")

    monkeypatch.setattr(poly, "_linear_rows", no_gather)
    for q, n, lam in ((257, 16, 1), (512, 21, 1)):
        F = GF(q)
        factors = factor_xn_minus_lambda(F, n, F.element(lam))
        assert any(f.degree == 1 for f in factors)
        assert primitive_idempotents(F, n, F.element(lam), factors) == ref_idempotents(
            F, n, F.element(lam), factors
        )


def test_tabled_linear_factors_skip_the_recurrence(monkeypatch):
    calls = []
    real = poly._power_sum_row
    monkeypatch.setattr(poly, "_power_sum_row", lambda f, *a: calls.append(f.degree) or real(f, *a))
    F = GF(8)
    primitive_idempotents(F, 63, F.one, factor_xn_minus_lambda(F, 63, F.one))
    assert calls and 1 not in calls


def _other_irreducible(f):
    """The first monic irreducible of f's degree other than f, in index
    order of its lower coefficients, or None if f is the only one."""
    for low in product(range(f.field.q), repeat=f.degree):
        g = Poly.from_indices(f.field, low + (1,))
        if g != f and is_irreducible(g):
            return g
    return None


@pytest.mark.parametrize(
    "q,n,lam", [(2, 15, 1), (9, 20, 2), (256, 17, 1), (257, 12, 1), (257, 16, 1), (512, 7, 1)]
)
def test_sum_check_fires_on_a_wrong_factor_list(q, n, lam):
    """A list with a factor dropped, or with a factor replaced by another
    monic irreducible of the same degree, trips the sum e_i = 1 check, on
    fields with tables and above 256."""
    F = GF(q)
    lam = F.element(lam)
    factors = factor_xn_minus_lambda(F, n, lam)
    replaced = 0
    for i, f in enumerate(factors):
        with pytest.raises(AssertionError, match="sum e_i = 1"):
            primitive_idempotents(F, n, lam, factors[:i] + factors[i + 1 :])
        g = _other_irreducible(f)
        if g is not None:  # x^2 + x + 1 is the only quadratic over GF(2)
            replaced += 1
            with pytest.raises(AssertionError, match="sum e_i = 1"):
                primitive_idempotents(F, n, lam, factors[:i] + [g] + factors[i + 1 :])
    assert replaced >= len(factors) - 1


@pytest.mark.parametrize(
    "q,n,lam,f,copies",
    [(2, 7, 1, (1, 0, 1, 1), 3), (3, 8, 1, (2, 2, 1), 4)],
)
def test_degree_check_fires_on_a_repeated_factor(q, n, lam, f, copies):
    """A factor listed p more times keeps sum e_i = 1, as the sum is linear
    in characteristic p, but not sum deg f_i = n: x^3 + x^2 + 1 three times
    over GF(2), x^2 + 2x + 2 four times over GF(3)."""
    F = GF(q)
    lam = F.element(lam)
    factors = factor_xn_minus_lambda(F, n, lam)
    f = Poly(F, f)
    assert f in factors
    with pytest.raises(AssertionError, match="sum deg f_i = n"):
        primitive_idempotents(F, n, lam, factors + [f] * (copies - 1))


def crt_idempotent(g, n, lam):
    """The idempotent of <g> by the Chinese remainder theorem: with
    g h = x^n - lam and u g + v h = 1, e = u g mod (x^n - lam)."""
    modulus = Poly.xn_minus(g.field, n, lam)
    d, u, _ = g.xgcd(modulus // g)
    assert d.is_one(), "generator and check polynomial are coprime in a semisimple ring"
    return (u * g) % modulus


def test_idempotent_generator_matches_crt_on_acceptance_matrix():
    """Every ideal of every acceptance-matrix context, n = 1 and every lam
    included, the zero and full codes among them: the idempotent of the
    check polynomial is the CRT idempotent and the lattice's sum of
    primitive idempotents."""
    ideals = zeros = fulls = 0
    for F, n, lam in _contexts((2, 3, 4, 5, 7, 9), range(1, 16)):
        ctx = AlgebraCtx(F, n, lam)
        for _, e, C in iter_ideal_codes(ctx):
            got = idempotent_generator(C, ctx)
            assert got == e, (F, n, lam, C)
            assert got == ctx.from_indices(crt_idempotent(generator_poly(C, ctx), n, lam).indices)
            ideals += 1
            zeros += C == LinearCode.zero(F, n)
            fulls += C == LinearCode.full(F, n)
    assert zeros == fulls == 258 and ideals == 4428


@pytest.mark.parametrize("q,n,lam", [(2, 4, 1), (3, 9, 2), (4, 6, 2), (5, 10, 4), (9, 3, 1)])
def test_idempotent_generator_not_semisimple(q, n, lam):
    """p | n: the power-sum row would read n^(-1) as 0."""
    F = GF(q)
    ctx = AlgebraCtx(F, n, F.from_index(lam))
    for C in (LinearCode.zero(F, n), LinearCode.full(F, n)):
        with pytest.raises(NotSemisimple):
            idempotent_generator(C, ctx)


def _product(fs, F):
    return reduce(mul, fs, Poly.one(F))


def _products(factors, sizes):
    """The products of the subsets of factors of each size in sizes."""
    for size in sizes:
        yield from (_product(sub, factors[0].field) for sub in combinations(factors, size))


@pytest.mark.parametrize("q,n,lam", [(257, 16, 1), (512, 21, 1)])
def test_power_sum_row_matches_crt_above_256(q, n, lam):
    """Where no code can be built, the row of a divisor h is the CRT
    idempotent of <g>, g = (x^n - lam) / h, on a slice of the divisors: the
    products of at most two factors, of all but one, and of all."""
    F = GF(q)
    lam = F.element(lam)
    factors = factor_xn_minus_lambda(F, n, lam)
    r = len(factors)
    modulus = Poly.xn_minus(F, n, lam)
    for h in _products(factors, (0, 1, 2, r - 1, r)):
        got = Poly.from_indices(F, _power_sum_row(h, n, lam))
        assert got == crt_idempotent(modulus // h, n, lam), (q, n, h)


@pytest.mark.parametrize("q,n,lam", [(2, 15, 1), (4, 15, 2), (9, 8, 2), (257, 16, 1)])
def test_power_sum_row_is_additive(q, n, lam):
    """e_(h1 h2) = e_h1 + e_h2 for coprime divisors h1, h2: every pair of
    disjoint nonempty sets of at most two of the first six factors; lam is
    an index."""
    F = GF(q)
    lam = F.from_index(lam)
    factors = factor_xn_minus_lambda(F, n, lam)[:6]
    assert len(factors) >= 3
    subsets = [set(s) for size in (1, 2) for s in combinations(range(len(factors)), size)]
    for s1, s2 in product(subsets, repeat=2):
        if s1 & s2:
            continue
        h1, h2 = (_product([factors[i] for i in s], F) for s in (s1, s2))
        row1, row2 = _power_sum_row(h1, n, lam), _power_sum_row(h2, n, lam)
        total = [(F.from_index(a) + F.from_index(b)).index for a, b in zip(row1, row2)]
        assert _power_sum_row(h1 * h2, n, lam) == total, (q, n, h1, h2)
