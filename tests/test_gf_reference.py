"""Differential test of the GF(q) index arithmetic against GF(p)[x] reference
arithmetic from :mod:`twistcodes.poly`, modulo the field's modulus."""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes.gf import GF  # noqa: E402
from twistcodes.poly import Poly  # noqa: E402

# Fields for the differential test: prime and extension fields with tables
# (q <= 256), and both scalar paths above the table limit.
DIFF_QS = (2, 3, 251, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243, 256, 257, 729, 2187)


@functools.lru_cache(maxsize=None)
def _field_and_prime_field(q, seed):
    F = GF(q, seed=seed)
    return F, GF(F.p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from(DIFF_QS), seed=st.integers(0, 2), data=st.data())
def test_index_arithmetic_matches_poly_reference(q, seed, data):
    """Every index operation against GF(p)[x] arithmetic modulo the modulus."""
    F, Fp = _field_and_prime_field(q, seed)
    # zero and one (indices 0 and 1) take shortcuts, so draw them often
    index_st = st.sampled_from((0, 1)) | st.integers(0, q - 1)
    i = data.draw(index_st, label="i")
    j = data.draw(index_st, label="j")
    e = data.draw(st.integers(0, 2 * q), label="e")
    M = Poly(Fp, F.modulus)

    def poly(idx):
        return Poly(Fp, F.from_index(idx).coeffs)

    def index(P):
        return F.element([c.index for c in P.coeffs]).index

    A, B = poly(i), poly(j)
    add, neg, mul = index((A + B) % M), index((-A) % M), index((A * B) % M)
    frob = index(A.pow_mod(F.p, M))
    assert F.add_index(i, j) == add
    assert F.neg_index(i) == neg
    assert F.mul_index(i, j) == mul
    assert F.frob_index(i) == frob
    assert F.pow_index(i, e) == index(A.pow_mod(e, M))
    inv = 0  # the numpy table's entry for zero
    if i:
        d, u, _ = A.xgcd(M)
        assert d.is_one()
        inv = index(u % M)
        assert F.inv_index(i) == inv
    if F.np_mul is not None:
        # against the reference values: the list tables are copies of these arrays
        assert F.np_add[i, j] == add
        assert F.np_mul[i, j] == mul
        assert F.np_neg[i] == neg
        assert F.np_frob[i] == frob
        assert F.np_inv[i] == inv
