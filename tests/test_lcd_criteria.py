"""The three LCD derivations on random ideals: subspace intersection, the
factor orbits of Frobenius o reciprocal, and (when lam^2 = 1) the
idempotent criterion, together with membership in `search_lcd`."""

import functools
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes.codes import check_idempotent_lcd, ideal_from_element, is_lcd  # noqa: E402
from twistcodes.discover import (  # noqa: E402
    _is_union,
    _mask_element,
    _mask_elements,
    factor_orbits,
    search_lcd,
)
from twistcodes.gf import GF  # noqa: E402
from twistcodes.poly import factor_xn_minus_lambda, primitive_idempotents  # noqa: E402
from twistcodes.talg import AlgebraCtx  # noqa: E402

# prime fields and the extension fields whose Frobenius is not the identity
QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


@functools.lru_cache(maxsize=None)
def _context(q, n, lam_index):
    """The algebra, its canonical factors and its primitive idempotents."""
    ctx = AlgebraCtx(GF(q), n, GF(q).from_index(lam_index))
    F, lam = ctx.field, ctx.lam
    factors = factor_xn_minus_lambda(F, n, lam)
    return ctx, factors, primitive_idempotents(F, n, lam, factors)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from(QS), data=st.data())
def test_lcd_criteria_agree(q, data):
    F = GF(q)
    n = data.draw(st.integers(1, 16).filter(lambda n: gcd(n, F.p) == 1), label="n")
    # lam = +-1 takes the idempotent criterion's branch, so draw it often
    lam = data.draw(st.sampled_from((1, (-F.one).index)) | st.integers(1, q - 1), label="lam")
    k = data.draw(st.integers(0, F.m - 1), label="k")
    ctx, factors, prims = _context(q, n, lam)
    mask = data.draw(st.integers(0, (1 << len(factors)) - 1), label="mask")
    e = _mask_element(ctx, prims, mask)
    flag = is_lcd(ideal_from_element(e), k)
    orbits = factor_orbits(ctx, factors, k)
    assert (orbits is None or _is_union(mask, orbits)) == flag
    if ctx.lam * ctx.lam == F.one:
        assert check_idempotent_lcd(e, k) == flag
    assert (mask in {r.subset_mask for r in search_lcd(ctx, k, distances=False)}) == flag


@pytest.mark.parametrize("q, n, lam_index", [(2, 21, 1), (3, 10, 2), (4, 15, 1), (5, 24, 1), (7, 1, 3)])
def test_mask_walk_matches_mask_sums(q, n, lam_index):
    """The walk over one part per idempotent, and over the factor orbits of
    every k where they decide, yields the unions of the parts in ascending
    order, each element the sum of the idempotents its mask selects."""
    ctx, factors, prims = _context(q, n, lam_index)
    everything = range(1 << len(prims))
    orbit_lists = [factor_orbits(ctx, factors, k) for k in range(ctx.field.m)]
    for parts in [None] + [o for o in orbit_lists if o is not None]:
        walk = list(_mask_elements(ctx, prims, parts))
        masks = [m for m in everything if parts is None or _is_union(m, parts)]
        assert len(walk) >= 2
        assert [mask for mask, _ in walk] == masks
        assert [e for _, e in walk] == [_mask_element(ctx, prims, m) for m in masks]
