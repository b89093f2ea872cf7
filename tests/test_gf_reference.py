"""Differential test of the GF(q) index arithmetic against GF(p)[x] reference
arithmetic from :mod:`twistcodes.poly`, modulo the field's modulus."""

import functools
import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes.gf import GF, FieldSpec  # noqa: E402
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
    if F.has_tables:
        # against the reference values: the list tables are copies of these arrays
        assert F.np_add[i, j] == add
        assert F.np_mul[i, j] == mul
        assert F.np_neg[i] == neg
        assert F.np_frob[i] == frob
        assert F.np_inv[i] == inv


@pytest.mark.parametrize("q", DIFF_QS)
def test_frobenius_matches_iterated_frob_index(q):
    """FieldSpec.frobenius(indices, j) against frob_index applied j mod m times,
    for j from -m to 2m; every index with tables, a seeded sample above."""
    F = GF(q)
    idx = tuple(range(q)) if q <= 256 else (0, 1, *random.Random(q).sample(range(2, q), 40))
    iterates = [idx]  # iterates[t] is x^(p^t) for every x in idx
    for _ in range(F.m):
        iterates.append(tuple(map(F.frob_index, iterates[-1])))
    assert iterates[F.m] == idx  # x^(p^m) = x
    for j in range(-F.m, 2 * F.m + 1):
        assert F.frobenius(idx, j) == iterates[j % F.m], j


# Moduli under which x does not generate F_q^*, so the discrete-log tables
# rest on another generator: x^2 + 1 over GF(3) (x has order 4),
# x^4 + x^3 + x^2 + x + 1 over GF(2) (order 5), and the AES modulus
# x^8 + x^4 + x^3 + x + 1 over GF(2) (order 51).
NON_PRIMITIVE = ((3, (1, 0, 1), 4), (2, (1, 1, 1, 1, 1), 5), (2, (1, 1, 0, 1, 1, 0, 0, 0, 1), 51))


@pytest.mark.parametrize("p,modulus,order", NON_PRIMITIVE)
def test_tables_under_non_primitive_modulus(p, modulus, order):
    """Every list and numpy table equals the GF(p)[x] reference values."""
    F, Fp = FieldSpec(p, len(modulus) - 1, modulus), GF(p)
    q, M = F.q, Poly(Fp, F.modulus)
    x = Poly.x(Fp)
    assert x.pow_mod(order, M).is_one() and not any(
        x.pow_mod(k, M).is_one() for k in range(1, order)
    )
    assert order < q - 1
    polys = [Poly(Fp, F._coeffs_of(i)) for i in range(q)]

    def index(P):
        return F._index_of([c.index for c in P.coeffs])

    ref = {
        "add": [[index((A + B) % M) for B in polys] for A in polys],
        "mul": [[index((A * B) % M) for B in polys] for A in polys],
        "neg": [index((-A) % M) for A in polys],
        "inv": [0] + [index(A.xgcd(M)[1] % M) for A in polys[1:]],  # numpy's entry for zero
        "frob": [index(A.pow_mod(p, M)) for A in polys],
    }
    for name, want in ref.items():
        assert getattr(F, "_" + name) == want, name
        assert getattr(F, "np_" + name).tolist() == want, name
    digits = [[i // p**k % p for k in range(F.m)] for i in range(q)]
    assert F._digits == digits
    assert F._json == [json.dumps(d) for d in digits]
