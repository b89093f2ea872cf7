"""The twisted group algebra F_q^gamma C_n for the wrap cocycle gamma_lam.

The algebra has basis gbar^0, ..., gbar^(n-1) with gbar^i * gbar^j equal
to gbar^(i+j) when i+j < n and lam * gbar^(i+j-n) otherwise, so that
gbar^n = lam * 1.  Elements are dense length-n tuples of field indices,
as in Poly; FieldElem appears only where values cross the API.  The
module also provides the classical involution, the coefficientwise
Frobenius twist, the k-Galois form, equivalence witnesses between two
wrap cocycles, and the induced weight-preserving isometry, plus a
validator for arbitrary cocycle tables on C_n.

Contexts and elements are immutable; everything here is pure.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Optional, Sequence, Union

from .errors import (
    CtxMismatch,
    ExponentOutOfRange,
    InvalidWitness,
    InvolutionUndefined,
    LengthMismatch,
    ZeroLambda,
)
from .gf import FieldElem, FieldSpec, nth_power_witness
from .poly import Poly, _substitution, _terms

MAX_N = 255


class AlgebraCtx:
    """F_q^{gamma_lam} C_n: the field, the group order, and the wrap unit.

    It answers the questions the LCD criteria ask of the algebra: whether
    it is semisimple (gcd(n, p) = 1), whether the classical involution
    exists (lam^2 = 1), and which constant the k-Galois duals of its ideals
    are constacyclic for."""

    def __init__(self, field: FieldSpec, n: int, lam: Union[FieldElem, int, Sequence[int]]):
        lam = field.element(lam)
        if lam.is_zero():
            raise ZeroLambda("the wrap constant must be a unit")
        if not 1 <= n <= MAX_N:
            raise ValueError(f"group order n = {n} outside supported range 1..{MAX_N}")
        self.field = field
        self.n = n
        self.lam = lam
        self.semisimple = gcd(n, field.p) == 1
        self.has_involution = lam * lam == field.one

    @cached_property
    def _star(self):
        """The substitution of involution_star, built on its first call."""
        F = self.field
        return _substitution(F, self.n, self.lam, self.n - 1, F._inv[self.lam.index])

    def dual_constant(self, k: int) -> FieldElem:
        """lam^(-p^(m-k)): the k-Galois dual of a lam-constacyclic code is
        constacyclic for this constant; 0 <= k < m."""
        self.field.check_galois(k)
        return self.lam.frobenius(self.field.m - k).inverse()

    def gamma(self, i: int, j: int) -> FieldElem:
        """The wrap cocycle: lam when i+j >= n, else 1."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ExponentOutOfRange(f"exponents ({i},{j}) outside 0..{self.n - 1}")
        return self.lam if i + j >= self.n else self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraCtx)
            and self.field == other.field
            and self.n == other.n
            and self.lam == other.lam
        )

    def __hash__(self):
        return hash((self.field, self.n, self.lam))

    def __repr__(self):
        return f"AlgebraCtx(GF({self.field.q}), n={self.n}, lam={self.lam})"

    # -- element constructors -------------------------------------------------

    def elem(self, coeffs) -> "AlgElem":
        """Element from a coefficient sequence (index i = gbar^i), padded
        with zeros up to length n.  Entries may be FieldElem, prime-subfield
        ints, or coordinate lists."""
        return self.from_indices([self.field.element(c).index for c in coeffs])

    def from_indices(self, indices: Sequence[int]) -> "AlgElem":
        """Element from field indices (index i = gbar^i), padded with zeros
        up to length n."""
        if len(indices) > self.n:
            raise LengthMismatch(f"{len(indices)} coefficients for n = {self.n}")
        return AlgElem(self, tuple(indices) + (0,) * (self.n - len(indices)))

    def elem_from_dict(self, terms: dict[int, int]) -> "AlgElem":
        cs = [0] * self.n
        for i, c in terms.items():
            cs[i] = c
        return self.elem(cs)

    @property
    def zero(self) -> "AlgElem":
        return self.elem([])

    @property
    def one(self) -> "AlgElem":
        return self.elem([1])

    def basis(self, i: int) -> "AlgElem":
        """gbar^i."""
        if not 0 <= i < self.n:
            raise ExponentOutOfRange(f"basis exponent {i} outside 0..{self.n - 1}")
        return self.from_indices([0] * i + [1])

    @property
    def gbar(self) -> "AlgElem":
        """The image of the group generator: gbar^1 for n > 1; for n = 1
        the quotient relation gbar = lam * 1 takes over.  Multiplication by
        this element is exactly the lam-twisted cyclic shift."""
        if self.n == 1:
            return self.elem([self.lam])
        return self.basis(1)


class AlgElem:
    """An element sum_i c_i gbar^i of a twisted group algebra, held as the
    field indices of c_0, ..., c_(n-1)."""

    __slots__ = ("ctx", "indices")

    def __init__(self, ctx: AlgebraCtx, indices: tuple[int, ...]):
        assert len(indices) == ctx.n
        self.ctx = ctx
        self.indices = indices

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(map(self.ctx.field.from_index, self.indices))

    def _check(self, other: "AlgElem"):
        if not isinstance(other, AlgElem) or other.ctx != self.ctx:
            raise CtxMismatch("elements of different twisted group algebras")

    def __add__(self, other):
        self._check(other)
        ADD = self.ctx.field._add
        return AlgElem(self.ctx, tuple([ADD[x][y] for x, y in zip(self.indices, other.indices)]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        NEG = self.ctx.field._neg
        return AlgElem(self.ctx, tuple([NEG[x] for x in self.indices]))

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            F = self.ctx.field
            row = F._mul[F.element(other).index]
            return AlgElem(self.ctx, tuple([row[x] for x in self.indices]))
        self._check(other)
        return elem_mul(self, other)

    __rmul__ = __mul__  # a scalar on the left, which commutes with every element

    def __eq__(self, other):
        return (
            isinstance(other, AlgElem)
            and self.ctx == other.ctx
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.ctx, self.indices))

    def is_zero(self) -> bool:
        return not any(self.indices)

    def weight(self) -> int:
        """Hamming weight of the coefficient sequence."""
        return sum(1 for x in self.indices if x)

    def ser(self) -> list:
        return self.ctx.field.ser(self.indices)

    def __str__(self):
        return _terms(self.ctx.field, self.indices, "ḡ")

    def __repr__(self):
        return f"<{self} in {self.ctx!r}>"


def elem_mul(a: AlgElem, b: AlgElem) -> AlgElem:
    """Twisted cyclic convolution: the polynomial product, with the part
    past gbar^(n-1) folded back times lam."""
    if a.ctx != b.ctx:
        raise CtxMismatch("elements of different twisted group algebras")
    ctx = a.ctx
    F, n = ctx.field, ctx.n
    prod = (Poly.from_indices(F, a.indices) * Poly.from_indices(F, b.indices)).indices
    low, high = list(prod[:n]), prod[n:]
    ADD, row = F._add, F._mul[ctx.lam.index]
    low[: len(high)] = [ADD[x][row[y]] for x, y in zip(low, high)]
    return ctx.from_indices(low)


def involution_star(a: AlgElem) -> AlgElem:
    """The classical involution sum c_i gbar^i -> sum c_i (gbar^i)^(-1).

    Since (gbar^i)^(-1) = lam^(-1) gbar^(n-i) = (lam^(-1) gbar^(n-1))^i, it is
    the substitution gbar -> lam^(-1) gbar^(n-1).  Only defined when lam^2 = 1;
    otherwise the map would fail to be an involution.
    """
    ctx = a.ctx
    if not ctx.has_involution:
        raise InvolutionUndefined(
            f"classical involution needs lam^2 = 1; lam = {ctx.lam} over GF({ctx.field.q})"
        )
    return AlgElem(ctx, tuple(ctx._star(a.indices)))


def frobenius_twist(a: AlgElem, k: int) -> AlgElem:
    """Apply x -> x^(p^k) to every coefficient."""
    a.ctx.field.check_galois(k)
    return AlgElem(a.ctx, a.ctx.field.frobenius(a.indices, k))


def k_galois_form(a: AlgElem, b: AlgElem, k: int) -> FieldElem:
    """[a, b]_k = sum_i a_i * b_i^(p^k); k = 0 is the Euclidean inner
    product."""
    if a.ctx != b.ctx:
        raise CtxMismatch("elements of different twisted group algebras")
    F = a.ctx.field
    F.check_galois(k)
    ADD, MUL, acc = F._add, F._mul, 0
    for x, y in zip(a.indices, F.frobenius(b.indices, k)):
        acc = ADD[acc][MUL[x][y]]
    return F.from_index(acc)


def coeff_identity(a: AlgElem) -> FieldElem:
    """The coefficient of gbar^0; for lam^2 = 1 it satisfies
    coeff_identity(a * star(frobenius_twist(b, k))) = [a, b]_k."""
    return a.ctx.field.from_index(a.indices[0])


class CocycleTable:
    """An explicit n x n table of cocycle values gamma(g^i, g^j).

    Entries must be nonzero and the table normalized (row 0 and column 0
    all ones).  Used only for validating the 2-cocycle identity; algebra
    construction is restricted to the wrap cocycles.
    """

    def __init__(self, field: FieldSpec, values: Sequence[Sequence[FieldElem]]):
        n = len(values)
        vals = tuple(tuple(field.element(v) for v in row) for row in values)
        if any(len(row) != n for row in vals):
            raise LengthMismatch("cocycle table must be square")
        for row in vals:
            for v in row:
                if v.is_zero():
                    raise ZeroLambda("cocycle values must be units")
        one = field.one
        if any(vals[0][j] != one for j in range(n)) or any(
            vals[i][0] != one for i in range(n)
        ):
            raise ValueError("cocycle table must be normalized (row/column 0 all ones)")
        self.field = field
        self.n = n
        self.values = vals

    @classmethod
    def from_ctx(cls, ctx: AlgebraCtx) -> "CocycleTable":
        return cls(
            ctx.field,
            [[ctx.gamma(i, j) for j in range(ctx.n)] for i in range(ctx.n)],
        )

    def with_entry(self, i: int, j: int, value: FieldElem) -> "CocycleTable":
        """Copy of the table with one entry replaced (for perturbation tests)."""
        rows = [list(row) for row in self.values]
        rows[i][j] = value
        return CocycleTable(self.field, rows)


def validate_cocycle(table: CocycleTable) -> bool:
    """Check gamma(x,y) gamma(xy,z) = gamma(y,z) gamma(x,yz) over all n^3
    triples of C_n, indices reduced mod n."""
    n = table.n
    v = table.values
    for i in range(n):
        for j in range(n):
            ij = (i + j) % n
            vij = v[i][j]
            row_j = v[j]
            row_ij = v[ij]
            for k in range(n):
                if vij * row_ij[k] != row_j[k] * v[i][(j + k) % n]:
                    return False
    return True


def equivalence_witness(
    field: FieldSpec, n: int, lam: FieldElem, beta: FieldElem
) -> Optional[FieldElem]:
    """A unit a with lam = a^n * beta, or None.

    None means the wrap-cocycle algebras for lam and beta are inequivalent
    and hence not isometric.
    """
    if lam.is_zero() or beta.is_zero():
        raise ZeroLambda("wrap constants must be units")
    return nth_power_witness(field, lam * beta.inverse(), n)


def apply_isometry(a: AlgElem, witness: FieldElem, target: AlgebraCtx) -> AlgElem:
    """Map the lam-algebra to the beta-algebra along a witness of
    lam = witness^n * beta: gbar -> witness gbar, so c_i goes to c_i * witness^i.

    The map is a ring isomorphism and preserves Hamming weight.
    """
    ctx = a.ctx
    if target.field != ctx.field or target.n != ctx.n:
        raise CtxMismatch("isometry target must share the field and group order")
    if witness**ctx.n * target.lam != ctx.lam:
        raise InvalidWitness(
            f"witness {witness} does not satisfy lam = a^{ctx.n} * beta"
        )
    shift = _substitution(ctx.field, ctx.n, ctx.lam, 1, witness.index)
    return AlgElem(target, tuple(shift(a.indices)))
