"""Univariate polynomials over GF(q), factorization of x^n - lambda, and
the primitive idempotents of F_q[x]/(x^n - lambda).

Coefficients are stored little-endian as a tuple of integer field
indices, trimmed so the leading one is nonzero; FieldElem appears only
at the boundary.  Each operation binds the field's operation tables once
and loops over indices.  x^n - lam is factored in A = F_q[x]/(x^n - lam),
whose p-th power map permutes the monomials, each scaled by a power of
lam.  Distinct-degree factorization raises to the q-th power by it; on
fields with a log table (q <= 256) the linear part splits into x - a for
the n-th roots a of lam, read from that table, and every other part by
Cantor-Zassenhaus splitting, by the absolute trace in every
characteristic, summed in A by the same map.  The factor list is sorted
by (degree, coefficient indices), so every downstream enumeration order
is reproducible.
`primitive_idempotents` takes that list from its caller, so one
factorization serves both.  One formula, with no cofactor and no inverse,
gives the idempotent of any monic divisor f of x^n - lam, of degree d,
irreducible or not (codes applies it to a check polynomial): with P_k the
power sums of f's roots, e_f = n^(-1) d + (n lam)^(-1) sum_(j>=1) P_(n-j) x^j.
Newton's identities, which hold in every characteristic, give P_1, ...,
P_(n-1) from f's coefficients in one recurrence; on fields with a log
table a linear factor x - a has P_k = a^k, so all linear factors take one
gather from that table, by the same rule as their roots.
"""

from __future__ import annotations

import random
from math import gcd as int_gcd
from typing import Sequence

import numpy as np

from .errors import (
    ConstantPolynomial,
    FieldMismatch,
    NotSquarefree,
    ZeroLambda,
)
from .gf import FieldElem, FieldSpec, _power


class Poly:
    """A polynomial over a FieldSpec."""

    __slots__ = ("field", "indices")

    def __init__(self, field: FieldSpec, coeffs: Sequence[FieldElem]):
        self.field = field
        self.indices = Poly.from_indices(field, [field.element(c).index for c in coeffs]).indices

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_indices(cls, field: FieldSpec, indices: Sequence[int]) -> "Poly":
        """Coefficients given as field indices, little-endian."""
        cs = list(indices)
        while cs and not cs[-1]:
            cs.pop()
        p = cls.__new__(cls)
        p.field = field
        p.indices = tuple(cs)
        return p

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls.from_indices(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls.from_indices(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls.from_indices(field, (0, 1))

    @classmethod
    def xn_minus(cls, field: FieldSpec, n: int, lam: FieldElem) -> "Poly":
        """x^n - lam, for n >= 1."""
        return cls.from_indices(field, [(-field.element(lam)).index] + [0] * (n - 1) + [1])

    # -- basics ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(map(self.field.from_index, self.indices))

    @property
    def degree(self) -> int:
        return len(self.indices) - 1

    def is_zero(self) -> bool:
        return not self.indices

    def is_one(self) -> bool:
        return self.indices == (1,)

    @property
    def is_monic(self) -> bool:
        return bool(self.indices) and self.indices[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.field, self.indices))

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def key(self) -> tuple:
        """Deterministic sort key: (degree, coefficient indices)."""
        return (self.degree, self.indices)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.indices, other.indices
        if len(a) < len(b):
            a, b = b, a
        ADD = self.field._add
        return Poly.from_indices(self.field, [ADD[x][y] for x, y in zip(a, b)] + list(a[len(b) :]))

    def __neg__(self) -> "Poly":
        NEG = self.field._neg
        return Poly.from_indices(self.field, [NEG[x] for x in self.indices])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        F, a, b = self.field, self.indices, other.indices
        if not a or not b:
            return Poly.zero(F)
        ADD, MUL = F._add, F._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row, j = MUL[x], i + len(b)
                out[i:j] = [ADD[o][row[y]] for o, y in zip(out[i:j], b)]
        return Poly.from_indices(F, out)

    def _scale(self, c: int) -> "Poly":
        row = self.field._mul[c]
        return Poly.from_indices(self.field, [row[x] for x in self.indices])

    def _reduce(self, other: "Poly") -> tuple[list[int], "Poly"]:
        """(quotient indices, remainder) of self by other, by long division;
        `%` reads the remainder, `divmod` and `//` both."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F, a, db = self.field, self.indices, other.degree
        if len(a) <= db:
            return [], self
        ADD, MUL, NEG = F._add, F._mul, F._neg
        inv_lead = F._inv[other.indices[-1]]
        nb = [NEG[y] for y in other.indices[:db]]  # the divisor below its lead, negated
        r = list(a)
        q = [0] * (len(a) - db)
        for s in range(len(a) - 1 - db, -1, -1):
            c = r[s + db]
            if c:
                c = q[s] = MUL[c][inv_lead]
                row = MUL[c]
                r[s : s + db] = [ADD[x][row[y]] for x, y in zip(r[s : s + db], nb)]
        return q, Poly.from_indices(F, r[:db])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = self._reduce(other)
        return Poly.from_indices(self.field, q), r

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self._reduce(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic:
            return self
        return self._scale(self.field._inv[self.indices[-1]])

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
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if not r0.is_zero():
            lead_inv = F._inv[r0.indices[-1]]
            r0, s0 = r0._scale(lead_inv), s0._scale(lead_inv)
        # v follows from u: it is the exact quotient (d - u*self) / other
        return r0, s0, Poly.zero(F) if other.is_zero() else (r0 - s0 * self) // other

    def eval(self, x: FieldElem) -> FieldElem:
        F = self.field
        ADD, row = F._add, F._mul[F.element(x).index]
        acc = 0
        for c in reversed(self.indices):
            acc = ADD[row[acc]][c]
        return F.from_index(acc)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self^e reduced modulo mod; e >= 0 (supports big integers)."""
        if e < 0:
            raise ValueError("negative exponent")
        return _power(self % mod, e, Poly.one(self.field) % mod, lambda a, b: (a * b) % mod)

    def __str__(self):
        return _terms(self.field, self.indices, "x")

    def __repr__(self):
        return f"Poly({self.field!r}, {self})"

    def ser(self) -> list:
        """FieldElem.ser of each coefficient: residues, or coordinate lists."""
        return self.field.ser(self.indices)


def _terms(field: FieldSpec, indices: Sequence[int], var: str) -> str:
    """Highest power first, without zero terms or unit coefficients; "0" if empty."""
    terms = []
    for i in range(len(indices) - 1, -1, -1):
        if not indices[i]:
            continue
        cs = field.index_str(indices[i])
        if i == 0:
            terms.append(cs)
        else:
            xs = var if i == 1 else f"{var}^{i}"
            terms.append(xs if cs == "1" else f"{cs}{xs}")
    return " + ".join(terms) if terms else "0"


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(q): f is irreducible iff the distinct-degree
    split of its monic associate is the single part (f, deg f)."""
    if f.degree < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    fm = f.monic()
    return _ddf(fm, lambda g, f: g.pow_mod(f.field.q, f)) == [(fm, fm.degree)]


def _ddf(f: Poly, qth) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic f: [(product, degree)].  For a
    squarefree f each product is that of the irreducible factors of its
    degree.  Any reducible monic f has an irreducible factor of degree
    <= deg/2, which the split finds even when f is not squarefree.
    qth(g, f) is congruent to g^q mod the current f, reduced here; g runs
    through x^(q^d) mod f."""
    x = Poly.x(f.field)
    out = []
    g = x % f
    d = 0
    while 2 * (d + 1) <= f.degree:
        d += 1
        g = qth(g, f) % f
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


def _frobenius(field: FieldSpec, n: int, lam: FieldElem):
    """power(t, j) = t^(p^j) in A = F_q[x]/(x^n - lam), p the characteristic,
    on index lists of length <= n, as a list of length n: x^n = lam gives
    (c x^i)^p = c^p lam^(p i // n) x^(p i % n), a permutation of the monomials
    as gcd(n, p) = 1, and power holds mod every factor of x^n - lam."""
    p, MUL, FROB = field.p, field._mul, field._frob
    moves = [(p * i % n, MUL[field.pow_index(lam.index, p * i // n)]) for i in range(n)]

    def power(t: Sequence[int], j: int = 1) -> list[int]:
        for _ in range(j):
            out = [0] * n
            for c, (at, row) in zip(t, moves):
                out[at] = row[FROB[c]]
            t = out
        return t

    return power


def _edf(f: Poly, d: int, rng: random.Random, power) -> list[Poly]:
    """Cantor-Zassenhaus equal-degree splitting: f is a monic squarefree
    product of irreducibles, all of degree d, dividing x^n - lam, and power
    is the p-th power map of F_q[x]/(x^n - lam) (_frobenius).  A random r of
    degree < deg f has, modulo each factor, an absolute trace T in GF(p),
    summed in that algebra and reduced mod f once; f splits by gcd(T, f)
    for p = 2, or by gcd(T^((p-1)/2) - 1, f)."""
    if f.degree == d:
        return [f]
    F = f.field
    q, p, k, ADD = F.q, F.p, F.m * d, F._add
    while True:
        s = r = [rng.randrange(q) for _ in range(f.degree)]
        for _ in range(k - 1):  # s = r + s^p, so s = sum of r^(p^j), j < k
            s = power(s)
            s[: len(r)] = [ADD[a][b] for a, b in zip(s, r)]
        s = Poly.from_indices(F, s) % f
        g = s.gcd(f) if p == 2 else (s.pow_mod((p - 1) // 2, f) - Poly.one(F)).gcd(f)
        if not g.is_one() and g.degree < f.degree:
            break
    return _edf(g, d, rng, power) + _edf(f // g, d, rng, power)


def factor_xn_minus_lambda(field: FieldSpec, n: int, lam: FieldElem) -> list[Poly]:
    """The distinct monic irreducible factors of x^n - lam, sorted by
    (degree, coefficient order).

    Requires gcd(n, p) = 1 so the polynomial is squarefree.  On fields
    with tables (q <= 256) the linear factors are x - a for the roots a
    that `FieldSpec.nth_roots` reads from the log table, and CZ splitting,
    with random draws fixed by (field, n, lam), acts only on the parts of
    degree >= 2; above q = 256 it splits every part.
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
    rng = random.Random((field.q << 24) ^ (n << 12) ^ lam.index)
    power = _frobenius(field, n, lam)
    factors: list[Poly] = []
    for part, d in _ddf(f, lambda g, _: Poly.from_indices(field, power(g.indices, field.m))):
        if d == 1 and field.has_tables:
            roots = field.nth_roots(n, lam.index)
            # distinct roots, each a root of part: as many as deg part means the same set
            assert len(roots) == part.degree, "the linear part is the product of x - a, a^n = lam"
            factors.extend(Poly.from_indices(field, (field._neg[a], 1)) for a in roots)
        else:
            factors.extend(_edf(part, d, rng, power))
    factors.sort(key=Poly.key)
    return factors


def _power_sum_row(f: Poly, n: int, lam: FieldElem) -> list[int]:
    """The n coefficients of the idempotent of the monic divisor f of x^n - lam
    of degree d, from the power sums P_k of its roots by Newton's identities,
    which hold in every characteristic: P_k = -sum_(t=1)^(min(k-1, d))
    f_(d-t) P_(k-t) - k f_(d-k), the last term only for k <= d; needs gcd(n, p) = 1."""
    F, d, fs = f.field, f.degree, f.indices
    ADD, MUL, NEG, INV, p = F._add, F._mul, F._neg, F._inv, F.p
    rows = [MUL[NEG[c]] for c in fs[:d]]  # -f_0, ..., -f_(d-1)
    P = [0] * d  # P_(1-d), ..., P_0 as zeros: for k <= d the term k f_(d-k) stands in
    for k in range(1, n):
        acc = MUL[k % p][NEG[fs[d - k]]] if k <= d else 0
        for row, y in zip(rows, P[k - 1 :]):
            acc = ADD[acc][row[y]]
        P.append(acc)
    unit = MUL[INV[MUL[n % p][lam.index]]]  # (n lam)^(-1)
    return [MUL[INV[n % p]][d % p]] + [unit[y] for y in reversed(P[d:])]


def _linear_rows(field: FieldSpec, n: int, lam: FieldElem, roots: Sequence[int]) -> np.ndarray:
    """The idempotents of the linear factors x - a, a in roots, as the rows
    of an array, on a field with tables: there P_k = a^k, so coefficient
    j >= 1 is exp[(log (n lam)^(-1) + (n - j) log a) mod (q - 1)], one
    gather for all rows, and coefficient 0 is n^(-1)."""
    MUL, INV, p = field._mul, field._inv, field.p
    log_unit = field.log[INV[MUL[n % p][lam.index]]]
    log_a = np.array([field.log[a] for a in roots], dtype=np.int64)
    rows = np.empty((len(roots), n), dtype=np.uint8)
    rows[:, 0] = INV[n % p]
    powers = np.outer(log_a, np.arange(n - 1, 0, -1))
    powers += log_unit
    powers %= field.q - 1  # log of (n lam)^(-1) a^(n-j), in place to keep one index array
    rows[:, 1:] = np.asarray(field.exp, dtype=np.uint8)[powers]
    return rows


def primitive_idempotents(
    field: FieldSpec, n: int, lam: FieldElem, factors: Sequence[Poly]
) -> list[Poly]:
    """The primitive idempotents of F_q[x]/(x^n - lam), one per factor of
    the canonical list factor_xn_minus_lambda returns, in its order.

    For a factor f of degree d with power sums P_k of its roots,
    e_f = n^(-1) d + (n lam)^(-1) sum_(j=1)^(n-1) P_(n-j) x^j: e_f(b) is
    n^(-1) sum_a sum_(j<n) (b/a)^j over the roots a of f, 1 at the roots of f
    and 0 at every other root b of x^n - lam, as a^(-j) = a^(n-j)/lam.  On
    fields with tables the linear factors take one log-table gather
    (_linear_rows), every other factor Newton's identities (_power_sum_row).
    The e_i satisfy e_i^2 = e_i, e_i e_j = 0 for i != j, and sum e_i = 1.
    """
    ADD, rows, total = field._add, {}, [0] * n
    # x - a with a != 0: the root 0 of x has no log, and x divides no x^n - lam
    linear = [i for i, f in enumerate(factors) if f.degree == 1 and f.indices[0]]
    if field.has_tables and linear:
        block = _linear_rows(field, n, lam, [field._neg[factors[i].indices[0]] for i in linear])
        rows.update(zip(linear, block.tolist()))
        while len(block) > 1:  # sum the rows pairwise
            h = len(block) // 2
            block = np.concatenate((field.np_add[block[:h], block[h : 2 * h]], block[2 * h :]))
        total = block[0].tolist()
    for i, f in enumerate(factors):
        if i not in rows:
            rows[i] = _power_sum_row(f, n, lam)
            total = [ADD[a][b] for a, b in zip(total, rows[i])]
    # the roots of all factors together have the power sums of x^n - lam,
    # 0 for 0 < k < n, and degrees adding up to n mod p, iff the sum is 1;
    # a factor listed p more times keeps that sum, but not the degrees' sum n
    assert total == [1] + [0] * (n - 1), "sum e_i = 1 iff the factors' roots are those of x^n - lam"
    assert sum(f.degree for f in factors) == n, "sum deg f_i = n: no factor is listed twice"
    return [Poly.from_indices(field, rows[i]) for i in range(len(factors))]
