"""Exact arithmetic in small finite fields GF(p^m).

Elements are stored in the polynomial basis relative to a fixed monic
irreducible modulus of degree m over GF(p).  Every element also has an
integer index in [0, q): the little-endian base-p encoding of its
coordinate tuple.

Multiplication has one definition: take every product a_s b_t of the
base-p digits mod p and sum them against the precomputed rows
x^(s+t) mod modulus, batched over leading axes.  For q <= 256 the field
applies it to one row at a time until it finds a generator g of F_q^*
(the modulus need not be primitive), and gathers the multiplication,
inverse and Frobenius tables from the exp/log arrays of g; addition and
negation are digitwise.  It keeps full operation tables (numpy arrays
for the matrix and distance kernels in :mod:`twistcodes.codes`,
python-list copies, a digit table and each index's JSON text for scalar
work and output), and the exp/log lists themselves, from which
`nth_roots` reads the n-th roots of a unit in O(gcd(n, q - 1)) steps.
The `*_index` methods compute one entry per call at every size (addition
and negation digitwise, products by the same multiplication on a single
pair, inverse by extended Euclid over GF(p), Frobenius as a power);
above 256 the list tables are stand-ins that call them when read, and
`nth_roots` scans the units.  The field decides table or compute once,
when it is built (`has_tables`), and owns the Frobenius powers of index
sequences and the check of the Galois parameter 0 <= k < m.
Prime fields work with integers mod p throughout.  The modulus search
and validation use :mod:`twistcodes.poly` over GF(p); each seeded search
and each modulus's test run, `GF` builds each field of one modulus, and
`embedding` maps a field into an extension with tables, once per process.

Fields are immutable after construction and safe to share; all element
operations are pure.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial, reduce
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DegreeMismatch,
    ExponentOutOfRange,
    FieldMismatch,
    NonPrime,
    ReducibleModulus,
    ZeroTarget,
)

MAX_PRIME = 1 << 16
TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for p <= 2^16."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _field(p: int, m: int, modulus: tuple[int, ...]) -> "FieldSpec":
    """GF(p^m) of a resolved modulus (_modulus), one per process: fields are immutable."""
    return FieldSpec(p, m, modulus)


def _modulus(p: int, m: int, modulus: Optional[Sequence[int]], seed: int) -> tuple[int, ...]:
    """The modulus of GF(p^m): x for m = 1, else the given one or the seeded
    search's.  A given modulus is validated first, also for m = 1."""
    if modulus is not None:
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise DegreeMismatch(f"modulus must be monic of degree {m}, got {list(modulus)}")
        if m > 1 and not _is_irreducible(p, mod):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
    if m == 1:
        return (0, 1)  # elements are residues mod p, whatever x + c was given
    return _find_irreducible(p, m, seed) if modulus is None else mod


@lru_cache(maxsize=None)
def _is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Irreducibility over GF(p) of the monic little-endian coeffs, degree >= 2."""
    from .poly import Poly, is_irreducible  # poly imports gf

    return is_irreducible(Poly.from_indices(_field(p, 1, (0, 1)), coeffs))


@lru_cache(maxsize=None)
def _find_irreducible(p: int, m: int, seed: int) -> tuple[int, ...]:
    """Seeded random search for a monic irreducible of degree m over GF(p);
    a pure function of its arguments, so each search runs once per process."""
    rng = random.Random(seed * 0x9E3779B1 + p * 1315423911 + m)
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(m)) + (1,)
        if coeffs[0] == 0:
            continue  # x | f, never irreducible for m > 1
        if _is_irreducible(p, coeffs):
            return coeffs


def _power(x, e: int, one, mul):
    """x^e by square and multiply, for any associative mul with identity one:
    e.bit_length() - 1 squarings and popcount(e) - 1 products, so none at all
    for e = 1 and one square for e = 2."""
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if acc is None else acc


class _OnDemand(partial):
    """A read-only table computed when read: t[i] calls the partial with i."""

    __getitem__ = partial.__call__


# ---------------------------------------------------------------------------


class FieldElem:
    """An element of a FieldSpec, identified by its index in [0, q)."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FieldSpec", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Polynomial-basis coordinates, little-endian, length m."""
        return tuple(self.field._coeffs_of(self.index))

    def _check(self, other) -> bool:
        if isinstance(other, FieldElem) and self.field != other.field:
            raise FieldMismatch("operands belong to different fields")
        return isinstance(other, FieldElem)

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        return self.field.from_index(self.field._add[self.index][other.index])

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.field.from_index(self.field._neg[self.index])

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        return self.field.from_index(self.field._mul[self.index][other.index])

    def __truediv__(self, other):
        if not self._check(other):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "FieldElem":
        if self.index == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.field.from_index(self.field._inv[self.index])

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        return self.field.from_index(self.field.pow_index(self.index, e))

    def frobenius(self, k: int = 1) -> "FieldElem":
        """x -> x^(p^k); k is reduced mod m."""
        return self.field.from_index(self.field.frobenius((self.index,), k)[0])

    def is_zero(self) -> bool:
        return self.index == 0

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.field, self.index))

    def ser(self) -> Union[int, list[int]]:
        """Serialized form: single residue for prime fields, else coordinates."""
        return self.field.ser((self.index,))[0]

    def __str__(self):
        return self.field.index_str(self.index)

    def __repr__(self):
        return f"GF({self.field.q}):{self}"


class FieldSpec:
    """GF(p^m) with a fixed monic irreducible modulus of degree m.

    When no modulus is supplied and m > 1, one is found by a seeded random
    search; the chosen modulus is stored on the field (and serialized)
    so runs are reproducible.  A prime field's modulus is x.
    """

    def __init__(
        self,
        p: int,
        m: int = 1,
        modulus: Optional[Sequence[int]] = None,
        seed: int = 0,
    ):
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrime(f"p = {p} is not prime")
        if p > MAX_PRIME:
            raise NonPrime(f"p = {p} exceeds the supported bound 2^16")
        if m < 1:
            raise DegreeMismatch("extension degree m must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = _modulus(p, m, modulus, seed)

        self._reduction = self._reduction_rows() if m > 1 else None
        self.np_add = self.np_mul = self.np_neg = self.np_inv = self.np_frob = None
        self.exp = self.log = None  # exp[k] = g^k and log[g^k] = k, q <= 256 only
        # the one table-or-compute decision; other modules ask has_tables
        self.has_tables = self.q <= TABLE_LIMIT
        if self.has_tables:
            self._build_tables()
        else:
            # the tables' lookups, each computed when read, so that the
            # polynomial loops keep one path whatever the field size
            self._add = _OnDemand(_OnDemand, self.add_index)  # _add[i] is a row
            self._mul = _OnDemand(_OnDemand, self.mul_index)
            self._neg, self._inv = _OnDemand(self.neg_index), _OnDemand(self.inv_index)
            self._frob, self._digits = _OnDemand(self.frob_index), _OnDemand(self._coeffs_of)
            self._json = _OnDemand(self._json_of)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; mod={list(self.modulus)})"

    # -- index-level arithmetic --------------------------------------------

    def _coeffs_of(self, index: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(index % p)
            index //= p
        return out

    def _index_of(self, coeffs: Sequence[int]) -> int:
        idx = 0
        for c in reversed(list(coeffs)[: self.m]):
            idx = idx * self.p + (c % self.p)
        return idx

    # Each *_index method computes its entry per call; on fields with tables
    # the tables hold the same values, and every hot path reads those.

    def add_index(self, i: int, j: int) -> int:
        if self.m == 1:
            return (i + j) % self.p
        a, b = self._coeffs_of(i), self._coeffs_of(j)
        return self._index_of([(x + y) % self.p for x, y in zip(a, b)])

    def neg_index(self, i: int) -> int:
        if self.m == 1:
            return (-i) % self.p
        return self._index_of([(-c) % self.p for c in self._coeffs_of(i)])

    def mul_index(self, i: int, j: int) -> int:
        if self.m == 1:
            return (i * j) % self.p
        if i <= 1 or j <= 1:  # indices 0 and 1 are zero and one
            return i * j
        a, b = (np.array(self._coeffs_of(k), dtype=np.int64) for k in (i, j))
        return self._index_of(self._mul_digits(a, b).tolist())

    def pow_index(self, i: int, e: int) -> int:
        """Index of x^e for the element of index i; e >= 0."""
        if self.m == 1:
            return pow(i, e, self.p)
        mul = self._mul
        return _power(i, e, 1, lambda a, b: mul[a][b])

    def inv_index(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.m == 1:
            return self.pow_index(i, self.q - 2)
        # extended Euclid over GF(p): the cofactor of i against the modulus
        from .poly import Poly  # poly imports gf

        Fp = _field(self.p, 1, (0, 1))
        u = Poly.from_indices(Fp, self._coeffs_of(i)).xgcd(Poly.from_indices(Fp, self.modulus))[1]
        return self._index_of(u.indices)

    def frob_index(self, i: int) -> int:
        """Index of x^p for the element of index i."""
        return self.pow_index(i, self.p)  # i^p = i for m = 1

    def frobenius(self, indices: Sequence[int], j: int) -> tuple[int, ...]:
        """The indices of x^(p^j) for each index x; j is reduced mod m."""
        FROB, out = self._frob, tuple(indices)
        for _ in range(j % self.m):
            out = tuple(FROB[x] for x in out)
        return out

    def check_galois(self, k: int):
        """Raise ExponentOutOfRange unless 0 <= k < m, the Galois parameters."""
        if not 0 <= k < self.m:
            raise ExponentOutOfRange(f"Galois parameter k = {k} outside 0..{self.m - 1}")

    def _mul_digits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of base-p digit arrays a and b, which broadcast over
        their leading axes: every digit product a_s b_t, reduced mod p,
        times the row x^(s+t) mod modulus."""
        prod = a[..., :, None] * b[..., None, :] % self.p
        return prod.reshape(prod.shape[:-2] + (-1,)) @ self._reduction % self.p

    def _reduction_rows(self) -> np.ndarray:
        """Row s*m + t holds the digits of x^(s+t) mod modulus; m > 1."""
        p, m = self.p, self.m
        red = np.zeros((2 * m - 1, m), dtype=np.int64)
        red[:m] = np.eye(m, dtype=np.int64)
        red[m] = [-c % p for c in self.modulus[:m]]
        for s in range(m + 1, 2 * m - 1):
            red[s, 1:] = red[s - 1, :-1]
            red[s] = (red[s] + red[s - 1, -1] * red[m]) % p
        return red[np.add.outer(np.arange(m), np.arange(m)).ravel()]

    def _build_tables(self):
        """Addition and negation digit by digit; multiplication, inverse and
        Frobenius gathered from the exp/log arrays of a generator of F_q^*.
        No temporary exceeds q^2 small integers."""
        q, p, m = self.q, self.p, self.m
        r = np.arange(q, dtype=np.int64)
        place = p ** np.arange(m, dtype=np.int64)
        digits = r[:, None] // place % p
        add = np.zeros((q, q), dtype=np.uint16)  # a sum of two residues fits in 16 bits
        for k in range(m):
            d = digits[:, k].astype(np.uint16)
            add += (d[:, None] + d) % p * place[k].item()
        exp = self._generator_powers(digits, place)
        log = np.zeros(q, dtype=np.uint16)
        log[exp] = np.arange(q - 1)
        exp2 = np.concatenate((exp, exp))  # exp2[a + b] = g^(a + b) for a, b < q - 1
        mul, inv, frob = np.zeros((q, q), np.uint8), np.zeros(q, np.uint8), np.zeros(q, np.uint8)
        mul[1:, 1:] = exp2[log[1:, None] + log[1:]]
        inv[1:] = exp2[q - 1 - log[1:]]  # inv[0] = 0
        frob[1:] = exp[p * log[1:].astype(np.int64) % (q - 1)]
        self.np_add, self.np_mul, self.np_inv, self.np_frob = add.astype(np.uint8), mul, inv, frob
        self.np_neg = ((-digits) % p @ place).astype(np.uint8)
        self._add, self._mul, self._neg, self._inv, self._frob, self._digits, self.exp, self.log = (
            t.tolist() for t in (self.np_add, mul, self.np_neg, inv, frob, digits, exp, log)
        )
        self._json = list(map(self._json_of, range(q)))

    def _generator_powers(self, digits: np.ndarray, place: np.ndarray) -> np.ndarray:
        """exp[k] = g^k for the first g whose powers cover F_q^*, each candidate
        tried by walking its multiplication row; q <= 256.  The units of GF(p)
        generate no more than GF(p)^*, so for m > 1 the search starts at x."""
        q = self.q
        for g in range(self.p if self.m > 1 else 1, q):
            if self.m == 1:
                row = (g * digits[:, 0] % self.p).tolist()
            else:
                row = (self._mul_digits(digits[g], digits) @ place).tolist()
            exp, e = [1], row[1]
            while e != 1:
                exp.append(e)
                e = row[e]
            if len(exp) == q - 1:
                return np.array(exp, dtype=np.uint8)
        raise AssertionError("F_q^* is cyclic")

    def nth_roots(self, n: int, target: int) -> list[int]:
        """Ascending indices of all a with a^n = target, for a unit index
        target and n >= 1.  With a log table, a = g^L solves n L = log target
        mod q - 1: none unless c = gcd(n, q - 1) divides log target, else the
        c exponents L0 + j (q - 1)/c.  Above 256 the units are scanned."""
        return list(self._iter_nth_roots(n, target))

    def _iter_nth_roots(self, n: int, target: int):
        """nth_roots as an iterator, so a scan above 256 can stop early."""
        if target == 0:
            raise ZeroTarget("target must be a nonzero field element")
        if n < 1:
            raise ValueError("n must be >= 1")
        if not self.has_tables:
            return (a for a in range(1, self.q) if self.pow_index(a, n) == target)
        ell, c = self.log[target], gcd(n, self.q - 1)
        if ell % c:
            return iter(())
        u = (self.q - 1) // c
        return iter(sorted(self.exp[ell // c * pow(n // c, -1, u) % u :: u]))

    # -- element constructors ------------------------------------------------

    def from_index(self, i: int) -> FieldElem:
        if not 0 <= i < self.q:
            raise ValueError(f"element index {i} out of range for GF({self.q})")
        return FieldElem(self, i)

    def element(self, x: Union[int, Sequence[int], FieldElem]) -> FieldElem:
        """Coerce x: an int means a prime-subfield value, a sequence means
        polynomial-basis coordinates."""
        if isinstance(x, FieldElem):
            if x.field != self:
                raise FieldMismatch("element belongs to a different field")
            return x
        if isinstance(x, int):
            return self.from_index(x % self.p)
        coeffs = list(x)
        if len(coeffs) > self.m:
            raise DegreeMismatch(
                f"coordinate list of length {len(coeffs)} for extension degree {self.m}"
            )
        coeffs += [0] * (self.m - len(coeffs))
        return self.from_index(self._index_of(coeffs))

    @property
    def zero(self) -> FieldElem:
        return self.from_index(0)

    @property
    def one(self) -> FieldElem:
        return self.from_index(1)

    def ser(self, indices: Sequence[int]) -> list:
        """The elements of the given indices as residues, or coordinate lists."""
        return list(indices) if self.m == 1 else [self._digits[i][:] for i in indices]

    def _json_of(self, i: int) -> str:
        return str(self.ser((i,))[0])  # an int's or int list's str is its JSON text

    def ser_json(self, indices: Sequence[int]) -> str:
        """json.dumps(self.ser(indices)), joined from the text of each index."""
        return "[" + ", ".join(map(self._json.__getitem__, indices)) + "]"

    def index_str(self, i: int) -> str:
        """The printed element of index i: its residue, or "(c0,c1,...)"."""
        if self.m == 1:
            return str(i)
        return "(" + ",".join(map(str, self._digits[i])) + ")"

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "FieldSpec":
        """The shared field of GF, for the dict of any field."""
        return _field(d["p"], d["m"], _modulus(d["p"], d["m"], d["modulus"], 0))


def GF(q: int, modulus=None, seed: int = 0) -> FieldSpec:
    """GF(q) for a prime power q = p^m: the process's one field of the modulus
    given or, without one, picked by the seed."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise NonPrime(f"q = {q} is not a prime power")
    m = next(m for m in range(1, q) if ps[0] ** m == q)
    return _field(ps[0], m, _modulus(ps[0], m, modulus, seed))


@lru_cache(maxsize=None)
def embedding(F: FieldSpec, E: FieldSpec) -> tuple[int, ...]:
    """emb[i] is the index in E, an extension of F with tables, of the element
    c_0 + c_1 x + ... of index i in F: c_0 + c_1 b + ... for b the least-index
    root in E of F's modulus, so any modulus works on either side; it is the
    identity when E is F (b = x) or F is prime (b = 0).  One map per field
    pair: fields are immutable."""
    ADD, MUL = E._add, E._mul

    def value(cs: Sequence[int], b: int) -> int:  # sum c_j b^j in E by Horner, c_j in GF(p)
        return reduce(lambda acc, c: ADD[MUL[acc][b]][c], reversed(cs), 0)

    b = next(b for b in range(E.q) if not value(F.modulus, b))
    emb = tuple(value(F._digits[i], b) for i in range(F.q))
    assert len(set(emb)) == F.q, "a ring map out of a field is injective"
    return emb


def nth_power_witness(
    field: FieldSpec, target: FieldElem, n: int
) -> Optional[FieldElem]:
    """The unit a of least index with a^n = target, or None; above 256 the
    scan of the units stops at it."""
    root = next(field._iter_nth_roots(n, field.element(target).index), None)
    return None if root is None else field.from_index(root)


def norm_image_classes(field: FieldSpec, n: int) -> tuple[int, list[FieldElem]]:
    """Cosets of the n-th powers inside the unit group.

    Returns (count, representatives): count = |F_q^* / (F_q^*)^n|, which
    equals gcd(n, q-1), with one representative per coset in ascending
    element-index order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    image = field.nth_roots((field.q - 1) // gcd(n, field.q - 1), 1)  # the n-th powers
    seen: set[int] = set()
    reps: list[FieldElem] = []
    for i in range(1, field.q):
        if i in seen:
            continue
        reps.append(field.from_index(i))
        seen.update(field._mul[i][im] for im in image)
    assert len(reps) == gcd(n, field.q - 1)
    return len(reps), reps
