"""Univariate polynomials over GF(q), factorization of x^n - lambda, and
the primitive CRT idempotents of F_q[x]/(x^n - lambda).

Coefficients are stored little-endian as FieldElem tuples; the zero
polynomial is the empty tuple and the leading stored coefficient is
always nonzero.  Factorization runs distinct-degree factorization
followed by Cantor-Zassenhaus equal-degree splitting with a seeded RNG,
and the factor list is sorted by (degree, coefficient indices) so every
downstream enumeration order is reproducible.
"""

from __future__ import annotations

import random
from math import gcd as int_gcd
from typing import Sequence

from .errors import (
    ConstantPolynomial,
    FieldMismatch,
    NotSquarefree,
    ZeroLambda,
)
from .gf import FieldElem, FieldSpec, prime_factors


class Poly:
    """A polynomial over a FieldSpec."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Sequence[FieldElem]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_ints(cls, field: FieldSpec, ints: Sequence[int]) -> "Poly":
        """Coefficients given as prime-subfield integers."""
        return cls(field, [field.element(c) for c in ints])

    @classmethod
    def xn_minus(cls, field: FieldSpec, n: int, lam: FieldElem) -> "Poly":
        """x^n - lam."""
        cs = [field.zero] * (n + 1)
        cs[0] = -lam
        cs[n] = field.one
        return cls(field, cs)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def key(self) -> tuple:
        """Deterministic sort key: (degree, coefficient indices)."""
        return (self.degree, tuple(c.index for c in self.coeffs))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        F = self.field
        out_idx = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai.index == 0:
                continue
            for j, bj in enumerate(other.coeffs):
                if bj.index:
                    out_idx[i + j] = F.add_index(
                        out_idx[i + j], F.mul_index(ai.index, bj.index)
                    )
        return Poly(F, [F.from_index(i) for i in out_idx])

    def scale(self, c: FieldElem) -> "Poly":
        return Poly(self.field, [a * c for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.coeffs[-1].inverse()
        q = [F.zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            coef = rem[-1] * inv_lead
            shift = len(rem) - 1 - db
            q[shift] = coef
            for i, bc in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - coef * bc
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(F, q), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic:
            return self
        return self.scale(self.coeffs[-1].inverse())

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(d, u, v) with u*self + v*other = d, d monic."""
        self._check(other)
        F = self.field
        r0, r1 = self, other
        s0, s1 = Poly.one(F), Poly.zero(F)
        t0, t1 = Poly.zero(F), Poly.one(F)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        lead_inv = r0.coeffs[-1].inverse()
        return r0.scale(lead_inv), s0.scale(lead_inv), t0.scale(lead_inv)

    def eval(self, x: FieldElem) -> FieldElem:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self^e reduced modulo mod; e >= 0 (supports big integers)."""
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.field) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if cs == "1" else f"{cs}{xs}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"

    def ser(self) -> list:
        return [c.ser() for c in self.coeffs]


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(q) via the Frobenius-power divisibility test:
    f of degree n is irreducible iff x^(q^n) = x mod f and
    gcd(x^(q^(n/t)) - x, f) = 1 for every prime t | n."""
    n = f.degree
    if n < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    if n == 1:
        return True
    F = f.field
    q = F.q
    fm = f.monic()
    x = Poly.x(F) % fm
    powers = {}  # i -> x^(q^i) mod fm
    h = x
    for i in range(1, n + 1):
        h = h.pow_mod(q, fm)
        powers[i] = h
    if not (powers[n] - x).is_zero():
        return False
    for d in {n // t for t in prime_factors(n)}:
        if not (powers[d] - x).gcd(fm).is_one():
            return False
    return True


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree f: [(product, degree)]."""
    F = f.field
    q = F.q
    x = Poly.x(F)
    out = []
    g = x % f
    d = 0
    while 2 * (d + 1) <= f.degree:
        d += 1
        g = g.pow_mod(q, f)
        h = (g - (x % f)).gcd(f)
        if not h.is_one():
            out.append((h, d))
            f = f // h
            if f.degree < 1:
                return out
            g = g % f
    if f.degree >= 1:
        out.append((f, f.degree))
    return out


def _edf(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus equal-degree splitting: f is a monic squarefree
    product of irreducibles, all of degree d."""
    if f.degree == d:
        return [f]
    F = f.field
    q, p, m = F.q, F.p, F.m
    while True:
        r = Poly(F, [F.from_index(rng.randrange(q)) for _ in range(f.degree)])
        if r.is_zero() or r.degree < 1:
            continue
        g = r.gcd(f)
        if not g.is_one():
            break
        if p == 2:
            # trace of r from F_{q^d} down to GF(2)
            s = Poly.zero(F)
            t = r % f
            for _ in range(m * d):
                s = (s + t) % f
                t = (t * t) % f
            g = s.gcd(f)
        else:
            s = r.pow_mod((q**d - 1) // 2, f)
            g = (s - Poly.one(F)).gcd(f)
        if not g.is_one() and g.degree < f.degree:
            break
    return _edf(g.monic(), d, rng) + _edf((f // g).monic(), d, rng)


def factor_xn_minus_lambda(
    field: FieldSpec, n: int, lam: FieldElem, seed: int = 0
) -> list[Poly]:
    """The distinct monic irreducible factors of x^n - lam, sorted by
    (degree, coefficient order).

    Requires gcd(n, p) = 1 so the polynomial is squarefree; the CZ
    splitting RNG is seeded deterministically from (seed, field, n, lam).
    """
    if lam.is_zero():
        raise ZeroLambda("lambda must be a nonzero field element")
    if n < 1:
        raise ValueError("n must be >= 1")
    if int_gcd(n, field.p) != 1:
        raise NotSquarefree(
            f"x^{n} - lambda is not squarefree over GF({field.q}): p = {field.p} divides n"
        )
    f = Poly.xn_minus(field, n, lam)
    rng = random.Random(
        (seed * 0x9E3779B1) ^ (field.q << 24) ^ (n << 12) ^ lam.index
    )
    factors: list[Poly] = []
    for part, d in _ddf(f):
        factors.extend(_edf(part.monic(), d, rng))
    factors.sort(key=Poly.key)
    return factors


def primitive_idempotents(
    field: FieldSpec, n: int, lam: FieldElem, seed: int = 0
) -> list[Poly]:
    """The primitive idempotents of F_q[x]/(x^n - lam), one per irreducible
    factor f_i, ordered like factor_xn_minus_lambda.

    e_i = (h_i^{-1} mod f_i) * h_i mod (x^n - lam) with h_i = (x^n - lam)/f_i;
    they satisfy e_i^2 = e_i, e_i e_j = 0 for i != j, and sum e_i = 1.
    """
    factors = factor_xn_minus_lambda(field, n, lam, seed=seed)
    modulus = Poly.xn_minus(field, n, lam)
    out = []
    for fi in factors:
        hi = modulus // fi
        d, u, _ = hi.xgcd(fi)
        assert d.is_one(), "factors of a squarefree polynomial must be coprime"
        out.append((u * hi) % modulus)
    return out
