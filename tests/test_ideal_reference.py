"""Differential test of the generator-polynomial construction of ideals.

`ideal_from_element` builds <a> from the plain shifts of g = gcd(a, x^n - lam)
and `generator_poly` reads g off the last RREF row.  The references here
are the definitions they replace: the RREF of the n x n matrix of the
lam-wrapped shifts of phi^{-1}(a), and the gcd of x^n - lam with every
generator row.  Elements are drawn as zero, units, random elements and
lattice idempotents, also in contexts where p divides n.
"""

import functools
from itertools import product
from math import gcd

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes import codes  # noqa: E402
from twistcodes.codes import LinearCode, generator_poly, ideal_from_element  # noqa: E402
from twistcodes.discover import _mask_element  # noqa: E402
from twistcodes.gf import GF  # noqa: E402
from twistcodes.poly import Poly, factor_xn_minus_lambda, primitive_idempotents  # noqa: E402
from twistcodes.talg import AlgebraCtx  # noqa: E402

QS = (2, 3, 4, 5, 7, 8, 9)
# (q, n): the contexts where p divides n, so x^n - lam is not squarefree
P_DIVIDES_N = ((3, 9), (2, 6), (4, 6))


def wrapped_shift_code(a):
    """<a> as the RREF of the n lam-wrapped shifts of phi^{-1}(a): shift i
    moves entry j - i to j, times lam where it wrapped (j < i)."""
    ctx = a.ctx
    F, n = ctx.field, ctx.n
    j = np.arange(n)
    M = np.array(a.indices, dtype=np.uint8)[(j - j[:, None]) % n]
    wrapped = j < j[:, None]
    M[wrapped] = F.np_mul[ctx.lam.index][M[wrapped]]
    return LinearCode(F, n, *codes._rref(F, M))


def gcd_over_rows(C, ctx):
    """The monic gcd of x^n - lam with every code polynomial."""
    g = Poly.xn_minus(ctx.field, ctx.n, ctx.lam)
    for row in C.gen.tolist():
        g = g.gcd(Poly.from_indices(ctx.field, row))
    return g


@functools.lru_cache(maxsize=None)
def _idempotents(q, n, lam_index):
    F = GF(q)
    lam = F.from_index(lam_index)
    return primitive_idempotents(F, n, lam, factor_xn_minus_lambda(F, n, lam))


@st.composite
def elements(draw):
    """(ctx, a): a context, p | n in each of P_DIVIDES_N and in some of
    the others, and an element of it."""
    q, n = draw(
        st.sampled_from(P_DIVIDES_N)
        | st.tuples(st.sampled_from(QS), st.integers(1, 16)),
        label="q, n",
    )
    F = GF(q)
    lam = draw(st.integers(1, q - 1), label="lam")
    ctx = AlgebraCtx(F, n, F.from_index(lam))
    kinds = ["zero", "unit", "random"] + (["idempotent"] if gcd(n, F.p) == 1 else [])
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "zero":
        return ctx, ctx.zero
    if kind == "unit":  # c gbar^i, a unit as lam != 0
        c, i = draw(st.integers(1, q - 1)), draw(st.integers(0, n - 1))
        return ctx, ctx.from_indices([0] * i + [c])
    if kind == "random":
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        return ctx, ctx.from_indices(coeffs)
    prims = _idempotents(q, n, lam)
    return ctx, _mask_element(ctx, prims, draw(st.integers(0, (1 << len(prims)) - 1)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(drawn=elements())
def test_ideal_and_generator_match_references(drawn):
    ctx, a = drawn
    C = ideal_from_element(a)
    assert C == wrapped_shift_code(a)
    g = generator_poly(C, ctx)
    assert g == gcd_over_rows(C, ctx)
    M = Poly.xn_minus(ctx.field, ctx.n, ctx.lam)
    assert g == Poly.from_indices(ctx.field, a.indices).gcd(M)
    assert g.degree == ctx.n - C.k


@pytest.mark.parametrize("q, n", P_DIVIDES_N)
def test_every_divisor_when_p_divides_n(q, n):
    """x^n - 1 = (x^m - 1)^(p^v) for n = m p^v with p prime to m, so its
    monic divisors are the products of the factors of x^m - 1 to powers
    <= p^v.  Each divisor g times the unit (q - 1) x generates the code of
    dimension n - deg g, and generator_poly returns g; g = x^n - 1 gives
    the zero code."""
    F = GF(q)
    ctx, M = AlgebraCtx(F, n, F.one), Poly.xn_minus(F, n, F.one)
    pv = 1
    while n % (pv * F.p) == 0:
        pv *= F.p
    factors = factor_xn_minus_lambda(F, n // pv, F.one)
    unit = Poly.from_indices(F, (0, q - 1))
    for powers in product(range(pv + 1), repeat=len(factors)):
        g = Poly.one(F)
        for f, e in zip(factors, powers):
            for _ in range(e):
                g = g * f
        a = ctx.from_indices(((unit * g) % M).indices)
        C = ideal_from_element(a)
        assert C == wrapped_shift_code(a) and C.k == n - g.degree, (g, a)
        assert generator_poly(C, ctx) == gcd_over_rows(C, ctx) == g
