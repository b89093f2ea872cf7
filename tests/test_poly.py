import functools
import random
from math import gcd

import pytest

from twistcodes import poly
from twistcodes.errors import ConstantPolynomial, NotSquarefree, ZeroLambda
from twistcodes.gf import GF, FieldSpec, prime_factors
from twistcodes.poly import (
    Poly,
    _ddf,
    _edf,
    _root_orbits,
    _substitution,
    factor_xn_minus_lambda,
    is_irreducible,
    primitive_idempotents,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(4)
F5 = GF(5)
F7 = GF(7)
F9 = FieldSpec(3, 2, modulus=[1, 0, 1])


def rand_poly(F, deg, rng):
    return Poly(F, [F.from_index(rng.randrange(F.q)) for _ in range(deg + 1)])


def test_normalization():
    assert Poly(F3, [0, 0, 0]).is_zero()
    assert Poly(F3, [1, 2, 0]).degree == 1
    assert Poly.zero(F3).degree == -1


def test_gcd_frozen():
    # x^2 - 1 and x - 1 share the root 1; monic gcd is x + 2 over GF(3)
    g = Poly(F3, [2, 0, 1]).gcd(Poly(F3, [2, 1]))
    assert g == Poly(F3, [2, 1])


def test_divmod_frozen():
    # remainder of x^9 - 4 at x = 1 is 1 - 4 = -3 = 2 mod 5
    f = Poly.xn_minus(F5, 9, F5.element(4))
    q, r = divmod(f, Poly(F5, [4, 1]))
    assert q.degree == 8
    assert r == Poly(F5, [2])
    assert f.eval(F5.one) == F5.element(2)
    assert q * Poly(F5, [4, 1]) + r == f


def test_divmod_random_roundtrip():
    rng = random.Random(3)
    for F in (F3, F5, F9, F4):
        for _ in range(50):
            a = rand_poly(F, rng.randrange(0, 9), rng)
            b = rand_poly(F, rng.randrange(0, 5), rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert a % b == r and a // b == q


def test_xgcd_bezout():
    rng = random.Random(4)
    for F in (F3, F5, F9):
        for _ in range(40):
            a = rand_poly(F, rng.randrange(0, 7), rng)
            b = rand_poly(F, rng.randrange(0, 7), rng)
            if a.is_zero() and b.is_zero():
                continue
            d, u, v = a.xgcd(b)
            assert u * a + v * b == d
            assert d.is_monic
    # coprime pair: Bezout identity gives 1
    d, u, v = Poly(F3, [1, 0, 1]).xgcd(Poly(F3, [1, 1]))
    assert d.is_one()
    assert u * Poly(F3, [1, 0, 1]) + v * Poly(F3, [1, 1]) == d


def test_is_irreducible_frozen():
    assert is_irreducible(Poly(F3, [1, 0, 1]))  # x^2+1, no root mod 3
    assert not is_irreducible(Poly(F3, [2, 0, 1]))  # (x-1)(x+1)
    assert is_irreducible(Poly(F7, [4, 1]))  # linear
    with pytest.raises(ConstantPolynomial):
        is_irreducible(Poly(F3, [2]))


def test_is_irreducible_rejects_repeated_factors():
    assert not is_irreducible(Poly(F3, [1, 2, 1]))  # (x+1)^2
    assert not is_irreducible(Poly(F3, [0, 0, 1, 1]))  # x^2 (x+1)
    assert is_irreducible(Poly(F3, [2, 2, 0, 1]))  # x^3 - x - 1, no root


def test_is_irreducible_against_root_scan():
    # degree 2: irreducible over GF(q) iff no root in GF(q)
    rng = random.Random(5)
    for F in (F3, F5, F7, F9):
        for _ in range(40):
            f = rand_poly(F, 2, rng)
            if f.degree != 2:
                continue
            has_root = any(f.eval(F.from_index(i)).is_zero() for i in range(F.q))
            assert is_irreducible(f) == (not has_root)


def _monic(F, deg):
    """Every monic polynomial of the given degree over F."""
    for i in range(F.q**deg):
        yield Poly.from_indices(F, [i // F.q**j % F.q for j in range(deg)] + [1])


@pytest.mark.parametrize("F, max_deg", [(F2, 5), (F3, 4)])
def test_is_irreducible_against_products(F, max_deg):
    # f is irreducible iff it is no product of two monic polynomials of
    # lower positive degree
    reducible = {
        a * b
        for da in range(1, max_deg)
        for db in range(1, max_deg - da + 1)
        for a in _monic(F, da)
        for b in _monic(F, db)
    }
    for deg in range(1, max_deg + 1):
        for f in _monic(F, deg):
            assert is_irreducible(f) == (f not in reducible), f


def test_factor_preconditions():
    with pytest.raises(NotSquarefree):
        factor_xn_minus_lambda(F3, 9, F3.one)
    with pytest.raises(ZeroLambda):
        factor_xn_minus_lambda(F3, 10, F3.zero)


@pytest.mark.parametrize(
    "F,n,lam,degrees",
    [
        (F3, 10, 2, [2, 4, 4]),
        (F5, 1, 4, [1]),
        (F5, 9, 4, [1, 2, 6]),
        (F5, 21, 4, [1, 2, 6, 6, 6]),
        (F7, 19, 6, [1, 3, 3, 3, 3, 3, 3]),
        (F2, 15, 1, [1, 2, 4, 4, 4]),
        (F9, 8, 2, [2, 2, 2, 2]),
        (F4, 5, 1, [1, 2, 2]),
    ],
)
def test_factor_xn_minus_lambda(F, n, lam, degrees):
    lam = F.element(lam)
    factors = factor_xn_minus_lambda(F, n, lam)
    assert sorted(f.degree for f in factors) == degrees
    prod = Poly.one(F)
    for f in factors:
        assert f.is_monic
        assert is_irreducible(f)
        prod = prod * f
    assert prod == Poly.xn_minus(F, n, lam)
    # canonical order and determinism
    assert factors == sorted(factors, key=Poly.key)
    assert factors == factor_xn_minus_lambda(F, n, lam)


def _root_orbit_sizes(q, n, r):
    """Sizes of the orbits of s -> q*s on {1 + r*j mod r*n}: the roots of
    x^n - lam are w^s for w a primitive rn-th root of unity, r = ord(lam)."""
    seen, sizes = set(), []
    for j in range(n):
        s, size = (1 + r * j) % (r * n), 0
        while s not in seen:
            seen.add(s)
            s, size = s * q % (r * n), size + 1
        if size:
            sizes.append(size)
    return sorted(sizes)


@pytest.mark.parametrize(
    "q,n,lam",
    [(7, 255, 1), (2, 255, 1), (3, 10, 2), (5, 21, 4), (7, 19, 3), (9, 20, (0, 1)),
     (4, 21, (0, 1)), (25, 24, (2, 1)), (8, 9, (1, 1, 0)), (11, 30, 2), (16, 17, (0, 0, 1))],
)
def test_factor_degrees_are_root_orbits(q, n, lam):
    F = GF(q)
    lam = F.element(lam)
    r = next(k for k in range(1, q) if (lam**k).index == 1)
    factors = factor_xn_minus_lambda(F, n, lam)
    assert sorted(f.degree for f in factors) == _root_orbit_sizes(q, n, r)
    assert all(f.is_monic for f in factors)


@pytest.mark.parametrize("F", [F2, F3, F4, F5, F7, GF(8), F9, GF(11), GF(13), GF(16)], ids=repr)
def test_factor_degrees_are_root_orbits_for_every_lambda(F):
    """The root-orbit degrees, for every unit lam and every n < 40 coprime to p."""
    for li in range(1, F.q):
        lam = F.from_index(li)
        r = next(k for k in range(1, F.q) if F.pow_index(li, k) == 1)
        for n in range(1, 40):
            if n % F.p:
                factors = factor_xn_minus_lambda(F, n, lam)
                assert sorted(f.degree for f in factors) == _root_orbit_sizes(F.q, n, r), (n, li)


def test_n_one_factor():
    assert factor_xn_minus_lambda(F5, 1, F5.element(4)) == [Poly(F5, [1, 1])]


# Every table field: each prime power q <= 256, plus moduli under which x
# does not generate F_q^*: x^2 + 1 over GF(3) and the AES x^8 + x^4 + x^3 + x + 1.
ROOT_FIELDS = [GF(q) for q in range(2, 257) if len(prime_factors(q)) == 1] + [
    FieldSpec(3, 2, (1, 0, 1)),
    FieldSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
]


def _root_ns(F):
    """Every n | q - 1 (n = 1 among them), and the first three n coprime to p
    that do not divide q - 1."""
    ns = [n for n in range(1, F.q) if (F.q - 1) % n == 0]
    return ns + [n for n in range(2, 2 * F.q) if n % F.p and (F.q - 1) % n][:3]


@pytest.mark.parametrize("F", ROOT_FIELDS, ids=repr)
def test_nth_roots_match_power_scan(F):
    for n in _root_ns(F):
        by_power = {}
        for a in range(1, F.q):
            by_power.setdefault(F.pow_index(a, n), []).append(a)
        for t in range(1, F.q):
            assert F.nth_roots(n, t) == by_power.get(t, []), (n, t)


def test_nth_roots_scan_above_table_limit():
    """Above 256 the units are scanned: with c = gcd(n, q - 1), t has c n-th
    roots when t^((q - 1)/c) = 1 and none otherwise."""
    cases = ((GF(257), 16, 3), (GF(257), 16, 16), (GF(257), 5, 7), (GF(729), 8, 1), (GF(729), 8, 2))
    for F, n, t in cases:
        assert F.log is None
        c = gcd(n, F.q - 1)
        roots = F.nth_roots(n, t)
        assert roots == sorted(set(roots)) and all(F.pow_index(a, n) == t for a in roots)
        assert len(roots) == (c if F.pow_index(t, (F.q - 1) // c) == 1 else 0), (F, n, t)


@pytest.mark.parametrize("F", ROOT_FIELDS, ids=repr)
def test_linear_factors_from_roots_match_splitting(F):
    """The linear factors read from the log table are those Cantor-Zassenhaus
    splits off the degree-1 part; no linear part exists without an n-th root.
    Splitting a linear part of degree n costs about n^2, so n stops at 40
    except for n = q - 1 at q = 49, 64, 128 and 256, the all-linear contexts
    of the factor benchmark; test_nth_roots_match_power_scan takes every n."""
    rng = random.Random(F.q)
    units = list(range(1, F.q))
    lams = units if F.q <= 32 else [1, F.exp[1], rng.choice(units)]
    for n in _root_ns(F):
        if n > 40 and not (n == F.q - 1 and F.q in (49, 64, 128, 256)):
            continue
        for li in lams:
            lam = F.from_index(li)
            linear = [part for part, d in _ddf(Poly.xn_minus(F, n, lam), _pow_mod_q) if d == 1]
            if not F.nth_roots(n, li):
                assert linear == [], (n, li)  # so the root route is never taken
                continue
            got = [f for f in factor_xn_minus_lambda(F, n, lam) if f.degree == 1]
            split = _edf(linear[0], 1, rng, _substitution(F, n, lam, F.p, frob=True))
            assert got == sorted(split, key=Poly.key), (n, li)


def _pow_mod_q(g, f):
    """The generic q-th power step of _ddf: g^q = sum_i g_i x^(iq) mod f, as
    the q-th power is additive and fixes GF(q)."""
    out = Poly.zero(f.field)
    for c, row in zip((g % f).indices, _qth_rows(f)):
        out = out + row._scale(c)
    return out


@functools.lru_cache(maxsize=None)
def _qth_rows(f):
    """x^(iq) mod f for i < deg f, from one square and multiply x^q mod f."""
    xq, rows = Poly.x(f.field).pow_mod(f.field.q, f), [Poly.one(f.field) % f]
    for _ in range(1, f.degree):
        rows.append((rows[-1] * xq) % f)
    return rows


# Every table field at seeds 0 and 1 (a prime field is the same object at both)
ORBIT_FIELDS = list({id(F): F for q in range(2, 257) if len(prime_factors(q)) == 1
                     for F in (GF(q), GF(q, seed=1))}.values())


def _orbit_ns(F):
    """The first five n >= 2 coprime to p that do not divide q - 1, so that
    parts of degree >= 2 occur, and the largest n <= 40 that divides q - 1."""
    ns = [n for n in range(2, 41) if n % F.p and (F.q - 1) % n][:5]
    return ns + [max(n for n in range(1, 41) if (F.q - 1) % n == 0)]


@pytest.mark.parametrize("F", ORBIT_FIELDS, ids=repr)
def test_root_orbit_factors_match_splitting(F):
    """Each part of degree d with q^d <= 256 of the distinct-degree split gives
    the factors from the root orbits in GF(q^d) that Cantor-Zassenhaus splits
    off it, for every lam when q <= 32 and three lams above."""
    rng = random.Random(F.q)
    units = list(range(1, F.q))
    lams = units if F.q <= 32 else [1, F.exp[1], rng.choice(units)]
    for n in _orbit_ns(F):
        for li in lams:
            lam = F.from_index(li)
            power = _substitution(F, n, lam, F.p, frob=True)
            for part, d in _ddf(Poly.xn_minus(F, n, lam), _pow_mod_q):
                if F.q**d <= 256:
                    got = sorted(_root_orbits(F, n, lam, d), key=Poly.key)
                    assert got == sorted(_edf(part, d, rng, power), key=Poly.key), (n, li, d)


@pytest.mark.parametrize(
    "F,n,degrees,split",
    [(GF(2), 45, [1, 2, 4, 4, 4, 6, 12, 12], {12}), (GF(3), 7, [1, 6], {6}),
     (GF(257), 16, [1] * 16, {1}), (GF(512), 21, [1] * 7 + [2] * 7, {1, 2})],
    ids=repr,
)
def test_cantor_zassenhaus_only_without_tables(F, n, degrees, split, monkeypatch):
    """CZ splits exactly the parts of degree d with q^d > 256, whole: above
    q = 256 that is every part, the linear one too; the root orbits the rest."""
    calls = []

    def spy(f, d, rng, power, edf=_edf):
        calls.append((f, d))
        return edf(f, d, rng, power)

    monkeypatch.setattr(poly, "_edf", spy)
    factors = factor_xn_minus_lambda(F, n, F.one)
    assert [f.degree for f in factors] == degrees
    parts = _ddf(Poly.xn_minus(F, n, F.one), _pow_mod_q)
    assert {d for _, d in calls} == split
    assert [c for c in calls if c in parts] == [(f, d) for f, d in parts if d in split]


DDF_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 243, 256, 343, 729)


class _Split(Exception):
    """Carries the distinct-degree split out of factor_xn_minus_lambda."""


@pytest.mark.parametrize("q", DDF_QS)
def test_ddf_by_algebra_frobenius_matches_pow_mod(q, monkeypatch):
    """The distinct-degree split factor_xn_minus_lambda takes of x^n - lam,
    driven by the q-th power map x -> x^q of F_q[x]/(x^n - lam), is the split that
    square and multiply mod each remaining part gives, for every n < 40
    coprime to p and several lam.  The spy stops the call after the split."""

    def spy(f, qth):
        raise _Split(f, _ddf(f, qth))

    F = GF(q)
    monkeypatch.setattr(poly, "_ddf", spy)
    rng = random.Random(q)
    for n in range(1, 40):
        if n % F.p == 0:
            continue
        for li in sorted({1, q - 1, rng.randrange(1, q)}):
            lam = F.from_index(li)
            with pytest.raises(_Split) as split:
                factor_xn_minus_lambda(F, n, lam)
            f, got = split.value.args
            assert f == Poly.xn_minus(F, n, lam)
            assert got == _ddf(f, _pow_mod_q), (n, li)


def test_primitive_idempotents_irreducible_case():
    # x^2 - 2 = x^2 + 1 is irreducible over GF(3): single idempotent 1
    lam = F3.element(2)
    assert primitive_idempotents(F3, 2, lam, factor_xn_minus_lambda(F3, 2, lam)) == [Poly.one(F3)]


def _assert_crt_identities(F, n, lam, es):
    M = Poly.xn_minus(F, n, lam)
    total = Poly.zero(F)
    for i, e in enumerate(es):
        assert e.degree < n
        assert ((e * e - e) % M).is_zero()
        for j, e2 in enumerate(es):
            if i != j:
                assert ((e * e2) % M).is_zero()
        total = total + e
    assert (total % M).is_one()


@pytest.mark.parametrize(
    "F,n,lam",
    [(F3, 10, 2), (F5, 9, 4), (F7, 19, 6), (F9, 8, 2), (F4, 15, 1), (F2, 15, 1),
     # lam != 1 in characteristic 2, and above the table limit
     (F4, 21, (0, 1)), (GF(8), 9, (0, 1, 1)), (GF(256), 17, (1, 1)),
     (GF(257), 16, 3), (GF(729), 13, (0, 1))],
)
def test_primitive_idempotents_crt_identities(F, n, lam):
    lam = F.element(lam)
    es = primitive_idempotents(F, n, lam, factor_xn_minus_lambda(F, n, lam))
    _assert_crt_identities(F, n, lam, es)


def test_factor_above_table_limit_in_characteristic_2():
    # x^21 - 1 over GF(2^9): 512 = 8 mod 21 has order 2, so the 7 multiples
    # of 3 give linear factors and the other 14 residues quadratic ones
    F = GF(512)
    assert F.q > 256 and F.np_mul is None
    factors = factor_xn_minus_lambda(F, 21, F.one)
    assert sorted(f.degree for f in factors) == [1] * 7 + [2] * 7
    prod = Poly.one(F)
    for f in factors:
        assert f.is_monic and is_irreducible(f)
        prod = prod * f
    assert prod == Poly.xn_minus(F, 21, F.one)
    _assert_crt_identities(F, 21, F.one, primitive_idempotents(F, 21, F.one, factors))


def test_idempotent_subset_matches_reference_element():
    # one subset of the primitive idempotents of F_5[x]/(x^9 - 4) sums to
    # the bundled [9,2,6] generator
    target = Poly(F5, [3, 4, 1, 2, 1, 4, 3, 4, 1])
    lam = F5.element(4)
    es = primitive_idempotents(F5, 9, lam, factor_xn_minus_lambda(F5, 9, lam))
    sums = []
    for mask in range(1 << len(es)):
        s = Poly.zero(F5)
        for i, e in enumerate(es):
            if mask >> i & 1:
                s = s + e
        sums.append(s)
    assert target in sums


def test_idempotent_subset_sums_are_idempotent():
    F, n, lam = F5, 21, F5.element(4)
    M = Poly.xn_minus(F, n, lam)
    es = primitive_idempotents(F, n, lam, factor_xn_minus_lambda(F, n, lam))
    rng = random.Random(6)
    for _ in range(12):
        mask = rng.randrange(1 << len(es))
        s = Poly.zero(F)
        for i, e in enumerate(es):
            if mask >> i & 1:
                s = s + e
        assert ((s * s - s) % M).is_zero()


def test_pow_mod():
    f = Poly(F5, [1, 0, 1])
    x = Poly.x(F5)
    big = x.pow_mod(5**6, f)
    # match naive repeated squaring through the generic operator path
    ref = Poly.one(F5)
    b = x % f
    e = 5**6
    while e:
        if e & 1:
            ref = (ref * b) % f
        b = (b * b) % f
        e >>= 1
    assert big == ref
