"""Differential test of Poly arithmetic against a pure-Python reference that
computes every coefficient from base-p digits, independently of the field's
operation tables."""

import functools
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes.gf import GF  # noqa: E402
from twistcodes.poly import Poly, _substitution  # noqa: E402

# prime and extension fields with tables, and the scalar paths above 256
DIFF_QS = (2, 3, 7, 4, 8, 9, 16, 25, 256, 257, 729)


class RefField:
    """GF(p^m) on element indices, by digit arithmetic mod p."""

    def __init__(self, F):
        self.p, self.m, self.q, self.mod = F.p, F.m, F.q, F.modulus

    def digits(self, i):
        return [i // self.p**k % self.p for k in range(self.m)]

    def index(self, ds):
        return sum(d * self.p**k for k, d in enumerate(ds))

    def add(self, i, j):
        return self.index([(a + b) % self.p for a, b in zip(self.digits(i), self.digits(j))])

    def neg(self, i):
        return self.index([-a % self.p for a in self.digits(i)])

    def mul(self, i, j):
        p, m = self.p, self.m
        if m == 1:
            return i * j % p
        t = [0] * (2 * m - 1)
        for s, a in enumerate(self.digits(i)):
            for u, b in enumerate(self.digits(j)):
                t[s + u] = (t[s + u] + a * b) % p
        for k in range(2 * m - 2, m - 1, -1):  # x^m = -(mod[0] + ... + mod[m-1] x^(m-1))
            c, t[k] = t[k], 0
            for s in range(m):
                t[k - m + s] = (t[k - m + s] - c * self.mod[s]) % p
        return self.index(t[:m])

    def inv(self, i):
        acc, x, e = 1, i, self.q - 2
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            x, e = self.mul(x, x), e >> 1
        return acc


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def ref_add(R, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim(R.add(x, y) for x, y in zip(a, b))


def ref_sub(R, a, b):
    return ref_add(R, a, [R.neg(y) for y in b])


def ref_mul(R, a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return _trim(out)


def ref_divmod(R, a, b):
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = R.inv(b[-1])
    while len(r) >= len(b):
        c, s = R.mul(r[-1], inv), len(r) - len(b)
        q[s] = c
        r = ref_sub(R, r, [0] * s + [R.mul(c, y) for y in b])
    return _trim(q), r


def ref_xgcd(R, a, b):
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = ref_divmod(R, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(R, s0, ref_mul(R, q, s1))
        t0, t1 = t1, ref_sub(R, t0, ref_mul(R, q, t1))
    if not r0:
        return r0, s0, t0
    inv = R.inv(r0[-1])
    return tuple([R.mul(x, inv) for x in p] for p in (r0, s0, t0))


def ref_pow_mod(R, a, e, m):
    acc, base = ref_divmod(R, [1], m)[1], ref_divmod(R, a, m)[1]
    while e:
        if e & 1:
            acc = ref_divmod(R, ref_mul(R, acc, base), m)[1]
        base, e = ref_divmod(R, ref_mul(R, base, base), m)[1], e >> 1
    return acc


@functools.lru_cache(maxsize=None)
def _fields(q):
    F = GF(q)
    return F, RefField(F)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from(DIFF_QS), data=st.data())
def test_poly_matches_digit_reference(q, data):
    F, R = _fields(q)
    # zero and one take shortcuts in the scalar path, so draw them often
    coef = st.sampled_from((0, 1)) | st.integers(0, q - 1)
    a = data.draw(st.lists(coef, max_size=9), label="a")
    b = data.draw(st.lists(coef, max_size=6), label="b")
    e = data.draw(st.integers(0, 3 * q), label="e")
    A, B = (Poly(F, [F.from_index(i) for i in c]) for c in (a, b))
    a, b = _trim(a), _trim(b)
    assert list(A.indices) == a and list(B.indices) == b

    def idx(P):
        return list(P.indices)

    assert idx(A * B) == ref_mul(R, a, b)
    assert idx(A + B) == ref_add(R, a, b)
    assert idx(A - B) == ref_sub(R, a, b)
    if b:
        Q, Rm = divmod(A, B)
        assert (idx(Q), idx(Rm)) == ref_divmod(R, a, b)
        assert idx(A.pow_mod(e, B)) == ref_pow_mod(R, a, e, b)
    d, u, v = A.xgcd(B)
    ref = ref_xgcd(R, a, b)
    assert (idx(d), idx(u), idx(v)) == ref
    assert idx(A.gcd(B)) == ref[0]


# every characteristic the splitting meets: prime and extension fields with
# tables, p > n (GF(257)), and the scalar paths above 256
POWER_QS = (2, 3, 4, 5, 7, 9, 25, 27, 49, 256, 257, 512, 729)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_algebra_frobenius_matches_pow_mod(data):
    """The p-th power map of F_q[x]/(x^n - lam), x -> x^p on the coefficients'
    p-th powers, raises to the p-th power exactly as t.pow_mod(p, x^n - lam)
    does, and x -> x^q to the q-th, in every field of POWER_QS, for n coprime
    to p, a unit lam and deg t < n."""
    for q in POWER_QS:
        F = _fields(q)[0]
        n = data.draw(st.integers(1, 30).filter(lambda n: n % F.p), label="n")
        lam = F.from_index(data.draw(st.integers(1, q - 1), label="lam"))
        t = Poly.from_indices(F, data.draw(st.lists(st.integers(0, q - 1), max_size=n), label="t"))
        power, xn = _substitution(F, n, lam, F.p, frob=True), Poly.xn_minus(F, n, lam)
        assert Poly.from_indices(F, power(t.indices)) == t.pow_mod(F.p, xn)
        qth = _substitution(F, n, lam, q)
        assert Poly.from_indices(F, qth(t.indices)) == t.pow_mod(q, xn)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_substitution_matches_pow_mod(data):
    """t(x) -> t'(u x^a), t' = t or its coefficients' p-th powers, equals
    sum_i t'_i (u x^a)^i reduced mod x^n - lam by Poly, for a unit u and
    0 <= a <= 3n coprime to n: the callers' (a, u) are (p, 1), (q, 1),
    (n - 1, lam^(-1)) and (1, witness), and a >= n carries powers of lam."""
    for q in POWER_QS:
        F = _fields(q)[0]
        n = data.draw(st.sampled_from((1, 2, 3, 7, 12, 30)).filter(lambda n: n % F.p), label="n")
        a = data.draw(st.integers(0, 3 * n).filter(lambda a: gcd(a, n) == 1), label="a")
        lam, u = (F.from_index(data.draw(st.integers(1, q - 1))) for _ in range(2))
        t = data.draw(st.lists(st.integers(0, q - 1), max_size=n), label="t")
        xn = Poly.xn_minus(F, n, lam)
        y = Poly.x(F).pow_mod(a, xn)._scale(u.index)  # u x^a mod x^n - lam
        for frob in (False, True):
            want, y_i = Poly.zero(F), Poly.one(F) % xn
            for c in t:
                want, y_i = want + y_i._scale(F._frob[c] if frob else c), (y_i * y) % xn
            got = _substitution(F, n, lam, a, u.index, frob)(t)
            assert Poly.from_indices(F, got) == want, (q, n, a, u, frob)
