"""primitive_idempotents, built from power sums of the factors' roots,
against a reference construction by the Chinese remainder theorem:
e_i = (h_i^(-1) mod f_i) h_i with the cofactor h_i = (x^n - lam)/f_i from
its recurrence and the inverse from the derivative."""

from itertools import product
from math import gcd

import pytest

from twistcodes import poly
from twistcodes.gf import GF
from twistcodes.poly import (
    Poly,
    _linear_rows,
    _power_sum_row,
    factor_xn_minus_lambda,
    is_irreducible,
    primitive_idempotents,
)

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
