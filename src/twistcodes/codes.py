"""Linear and constacyclic codes over GF(q)^n.

A LinearCode is a k-dimensional subspace held as its unique reduced
row-echelon generator matrix, so code equality is matrix equality.  The
matrix kernels (RREF, null space, rank) run on numpy arrays of element
indices using the field's operation tables, which keeps the ideal sweeps
and the minimum-distance enumerations fast without any compiled code.
The idempotent generator of an ideal <g> is that of its check polynomial
h = (x^n - lam) / g, by poly's one power-sum formula for any monic divisor.

Minimum distance enumerates all q^k codewords when that is small enough,
and otherwise the messages of one information set in increasing weight,
certifying d once the weight bound passes the best codeword found.  The
q - 1 nonzero multiples a M of a message share its support and weight, so
both compare only the first of each such class in their visiting order
and count the whole class as work.  Both share one compare kernel: each
message is a prefix codeword p plus an entry t of a small table, and the
weight of p + t is a start weight plus the number of positions where
t != -p, so the inner loop reads no field table; it counts a slab of
positions per numpy pass.  The exhaustive method compares all n positions
from 0.  In the information-set method the pivot entries of a codeword
are its message, so the weight is the message weight plus the mismatches
on the n - k redundancy columns, the only columns compared.  There a
support is a head plus a tail of its last one or two rows, taken from one
table of every such tail built per call, and each weight level builds the
codewords of all its heads at once, in chunks.  A level where a codeword
must match its tail on all but a few of those columns to beat the best
so far is a pigeonhole join: the columns are cut into one block more
than the mismatches allowed, and only the pairs that agree exactly on a
block, found by key, are counted in full (collision search, Stern 1989).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    Error,
    FieldMismatch,
    InvolutionUndefined,
    LengthMismatch,
    NotConstacyclic,
    NotIdempotent,
    NotSemisimple,
    ZeroCode,
    ZeroLambda,
)
from .gf import FieldElem, FieldSpec
from .poly import Poly, _power_sum_row
from .talg import AlgebraCtx, AlgElem, elem_mul, frobenius_twist, involution_star

Vector = tuple[FieldElem, ...]

EXHAUSTIVE_LIMIT = 10**7
DEFAULT_BUDGET = 5 * 10**7
_BLOCK = 1 << 15


def _tables(field: FieldSpec):
    if not field.has_tables:
        raise Error(f"code arithmetic needs operation tables; GF({field.q}) is too large")
    return field.np_add, field.np_mul, field.np_neg, field.np_inv


def _vec_idx(v: Sequence[FieldElem]) -> np.ndarray:
    return np.array([c.index for c in v], dtype=np.uint8)


def _vec_elems(field: FieldSpec, row: np.ndarray) -> Vector:
    return tuple(field.from_index(int(i)) for i in row)


def _rref(field: FieldSpec, M: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    ADD, MUL, NEG, INV = _tables(field)
    M = M.astype(np.uint8)
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nzr = np.nonzero(M[r:, c])[0]
        if nzr.size == 0:
            continue
        pr = r + int(nzr[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        pv = int(M[r, c])
        if pv != 1:
            M[r] = MUL[INV[pv], M[r]]
        col = M[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            M[nz] = ADD[M[nz], MUL[NEG[col[nz]][:, None], M[r][None, :]]]
        pivots.append(c)
        r += 1
    return M[:r].copy(), tuple(pivots)


def _rank(field: FieldSpec, *blocks: np.ndarray) -> int:
    """The rank of the rows of the blocks stacked."""
    return len(_rref(field, np.vstack(blocks))[1])


class LinearCode:
    """A subspace of GF(q)^n in canonical reduced-row-echelon form."""

    __slots__ = ("field", "n", "gen", "pivots")

    def __init__(self, field: FieldSpec, n: int, gen: np.ndarray, pivots: tuple[int, ...]):
        self.field = field
        self.n = n
        self.gen = gen
        self.pivots = pivots

    @classmethod
    def from_vectors(
        cls, field: FieldSpec, n: int, vectors: Iterable[Sequence[FieldElem]]
    ) -> "LinearCode":
        rows = []
        for v in vectors:
            v = tuple(v)
            if len(v) != n:
                raise LengthMismatch(f"vector of length {len(v)}, expected {n}")
            for c in v:
                if c.field != field:
                    raise FieldMismatch("vector entry from a different field")
            rows.append(_vec_idx(v))
        if not rows:
            return cls.zero(field, n)
        R, piv = _rref(field, np.array(rows, dtype=np.uint8))
        return cls(field, n, R, piv)

    @classmethod
    def zero(cls, field: FieldSpec, n: int) -> "LinearCode":
        _tables(field)
        return cls(field, n, np.zeros((0, n), dtype=np.uint8), ())

    @classmethod
    def full(cls, field: FieldSpec, n: int) -> "LinearCode":
        _tables(field)
        return cls(field, n, np.eye(n, dtype=np.uint8), tuple(range(n)))

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def basis(self) -> list[Vector]:
        return [_vec_elems(self.field, row) for row in self.gen]

    def contains(self, v: Sequence[FieldElem]) -> bool:
        if len(v) != self.n:
            raise LengthMismatch(f"vector of length {len(v)}, expected {self.n}")
        return _rank(self.field, self.gen, _vec_idx(v)) == self.k

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen.shape == other.gen.shape
            and bool((self.gen == other.gen).all())
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen.tobytes()))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over GF({self.field.q})"

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "rows": [self.field.ser(row) for row in self.gen.tolist()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearCode":
        field = FieldSpec.from_dict(d["field"])
        vecs = [[field.element(c) for c in row] for row in d["rows"]]
        return cls.from_vectors(field, d["n"], vecs)


# ---------------------------------------------------------------------------
# the phi correspondence and constacyclic structure


def phi(ctx: AlgebraCtx, v: Sequence[FieldElem]) -> AlgElem:
    """(c_0, ..., c_{n-1}) -> c_0 + c_1 gbar + ... + c_{n-1} gbar^{n-1}."""
    if len(v) != ctx.n:
        raise LengthMismatch(f"vector of length {len(v)}, expected {ctx.n}")
    return ctx.elem(v)


def phi_inv(a: AlgElem) -> Vector:
    return a.coeffs


def constacyclic_shift(lam: FieldElem, v: Sequence[FieldElem]) -> Vector:
    """(c_0, ..., c_{n-1}) -> (lam * c_{n-1}, c_0, ..., c_{n-2})."""
    if lam.is_zero():
        raise ZeroLambda("shift constant must be a unit")
    v = tuple(v)
    return (lam * v[-1],) + v[:-1]


def is_lambda_constacyclic(C: LinearCode, lam: FieldElem) -> bool:
    """True iff the code is closed under the lam-twisted shift (checked on
    the generator rows, which suffices by linearity)."""
    if lam.is_zero():
        raise ZeroLambda("shift constant must be a unit")
    shifted = np.roll(C.gen, 1, axis=1)
    shifted[:, 0] = _tables(C.field)[1][C.field.element(lam).index][shifted[:, 0]]
    return _rank(C.field, C.gen, shifted) == C.k


def ideal_from_element(a: AlgElem) -> LinearCode:
    """The principal ideal <a> as a linear code.  <a> = <g> for
    g = gcd(a, x^n - lam), which the k = n - deg g plain shifts
    g, x g, ..., x^(k-1) g span, none wrapping; returns their RREF."""
    F, n = a.ctx.field, a.ctx.n
    _tables(F)
    g = Poly.from_indices(F, a.indices).gcd(Poly.xn_minus(F, n, a.ctx.lam)).indices
    M = np.zeros((n + 1 - len(g), n), dtype=np.uint8)
    for i in range(len(M)):
        M[i, i : i + len(g)] = g
    return LinearCode(F, n, *_rref(F, M))


def generator_poly(C: LinearCode, ctx: AlgebraCtx) -> Poly:
    """The monic generator g of degree n - k, read off the last RREF row.

    The rows x^i g, i < k, are in echelon form with pivots 0..k-1, so the
    last RREF row is x^(k-1) times a scalar multiple of g; the zero code
    yields x^n - lam itself.
    """
    if C.field != ctx.field or C.n != ctx.n:
        raise FieldMismatch(
            f"code over GF({C.field.q}) length {C.n} does not match context "
            f"GF({ctx.field.q}) n={ctx.n}"
        )
    if not is_lambda_constacyclic(C, ctx.lam):
        raise NotConstacyclic(f"code is not {ctx.lam}-constacyclic")
    if not C.k:
        return Poly.xn_minus(ctx.field, ctx.n, ctx.lam)
    return Poly.from_indices(ctx.field, C.gen[-1, C.k - 1 :].tolist()).monic()


def idempotent_generator(C: LinearCode, ctx: AlgebraCtx) -> AlgElem:
    """The unique idempotent e with <e> = C: that of the check polynomial
    h = (x^n - lam) / g, 1 at the roots of h and 0 at those of g, from the
    power sums of h's roots (poly._power_sum_row)."""
    if not ctx.semisimple:  # the row reads n^(-1), which p | n would leave 0
        raise NotSemisimple(
            f"idempotent generators need gcd(n, p) = 1; n = {ctx.n}, p = {ctx.field.p}"
        )
    h = Poly.xn_minus(ctx.field, ctx.n, ctx.lam) // generator_poly(C, ctx)
    return ctx.from_indices(_power_sum_row(h, ctx.n, ctx.lam))


# ---------------------------------------------------------------------------
# duals and LCD


def dual(C: LinearCode, k: int = 0) -> LinearCode:
    """The k-Galois dual.

    k = 0 is the Euclidean dual (null space).  For general k the dual is
    the coordinatewise p^(m-k) Frobenius image of the Euclidean dual:
    sum_i a_i b_i^(p^k) = 0 for all a iff the p^(m-k) power of b lies in
    the Euclidean dual.
    """
    field = C.field
    field.check_galois(k)
    NEG = _tables(field)[2]
    n = C.n
    free = sorted(set(range(n)).difference(C.pivots))
    if not free:
        return LinearCode.zero(field, n)
    # row r: 1 at column free[r], -gen[i, free[r]] at column pivots[i]
    N = np.zeros((len(free), n), dtype=np.uint8)
    N[:, free] = np.eye(len(free), dtype=np.uint8)
    N[:, list(C.pivots)] = NEG[C.gen[:, free]].T
    for _ in range(field.m - k if k else 0):  # the p^(m-k) power, none for k = 0
        N = field.np_frob[N]
    R, piv = _rref(field, N)
    return LinearCode(field, n, R, piv)


def intersection_dim(C: LinearCode, D: LinearCode) -> int:
    """dim(C ∩ D) = dim C + dim D - dim(C + D)."""
    if C.field != D.field or C.n != D.n:
        raise FieldMismatch("codes live in different ambient spaces")
    if C.k == 0 or D.k == 0:
        return 0
    return C.k + D.k - _rank(C.field, C.gen, D.gen)


def is_lcd(C: LinearCode, k: int = 0) -> bool:
    """True iff C meets its k-Galois dual trivially."""
    return intersection_dim(C, dual(C, k)) == 0


def check_idempotent_lcd(e: AlgElem, k: int = 0) -> bool:
    """LCD test straight from the idempotent generator.

    k = 0: the ideal <e> is Euclidean LCD iff star(e) = e.
    k > 0: <e> is k-Galois LCD iff e = e * star(frobenius_twist(e, k)).
    Needs e idempotent and lam^2 = 1 (so the involution exists).
    """
    ctx = e.ctx
    if elem_mul(e, e) != e:
        raise NotIdempotent("element is not idempotent")
    if not ctx.has_involution:
        raise InvolutionUndefined("idempotent LCD criterion needs lam^2 = 1")
    ctx.field.check_galois(k)
    if k == 0:
        return involution_star(e) == e
    return e == elem_mul(e, involution_star(frobenius_twist(e, k)))


# ---------------------------------------------------------------------------
# minimum distance


@dataclass(frozen=True)
class DistanceCertificate:
    """Outcome of a minimum-distance computation.

    work counts the messages covered, each compared message standing for
    its q - 1 nonzero multiples; for the info-set method, message_weight
    is the last fully enumerated message weight, which certifies that no
    codeword of weight <= message_weight was missed.
    """

    d: int
    witness: Vector
    method: str  # "exhaustive" | "info-set"
    work: int
    message_weight: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "witness": [c.ser() for c in self.witness],
            "method": self.method,
            "work": self.work,
            "message_weight": self.message_weight,
        }


def min_distance(
    C: LinearCode, budget: int = DEFAULT_BUDGET, method: str = "auto"
) -> DistanceCertificate:
    """Certified minimum Hamming distance with a weight-d witness.

    method "auto" enumerates all q^k codewords when q^k <= 10^7 and
    otherwise runs the single-information-set search over messages of
    increasing weight, stopping when the weight-(w+1) lower bound meets
    the best codeword found.  Either compares one message of each class
    {a M : a != 0}, the first in its visiting order, and counts the q - 1
    it covers against the budget; the info-set search counts in full only
    the messages that can still beat the best codeword on levels where few
    can.  Work, witness and bounds are those of visiting every message in
    order.  Raises BudgetExceeded with the bounds established so far if the
    work limit is hit first.
    """
    if C.k == 0:
        raise ZeroCode("the zero code has no minimum distance")
    if method == "auto":
        method = "exhaustive" if C.field.q**C.k <= EXHAUSTIVE_LIMIT else "info-set"
    searches = {"exhaustive": _min_distance_exhaustive, "info-set": _min_distance_infoset}
    if method not in searches:
        raise ValueError(f"unknown method {method!r}")
    try:
        cert = searches[method](C, budget)
    except BudgetExceeded as exc:
        # d >= lower holds; both bounds are monotone in d, so only a lower
        # bound can contradict them (a partial search's upper may exceed them)
        _check_bounds(C.field.q, C.n, C.k, exc.lower, "minimum distance lower bound: ")
        raise
    _check_bounds(C.field.q, C.n, C.k, cert.d, "certified minimum distance: ")
    return cert


def _check_bounds(q: int, n: int, k: int, d: int, where: str, error: type = Error):
    """Raise error(where + reason) when no [n, k, d] code over GF(q) exists
    by the Singleton bound d <= n - k + 1 or the Griesmer bound
    n >= sum_{i<k} ceil(d / q^i)."""
    if d > n - k + 1:
        raise error(f"{where}d = {d} exceeds the Singleton bound n - k + 1 = {n - k + 1}")
    griesmer = sum(-(-d // q**i) for i in range(k))
    if griesmer > n:
        raise error(
            f"{where}[{n},{k},{d}] over GF({q}) breaks the Griesmer bound: n >= {griesmer} needed"
        )


def _codewords(field: FieldSpec, rows: np.ndarray, digits: np.ndarray, start: int, stop: int):
    """Entries start..stop-1 of the span sum_j d_j rows[j] over every digit
    tuple over `digits`, one codeword per row, little-endian: the digit of
    rows[0] varies fastest.  Builds no table of more than
    stop - start + 2 * _BLOCK rows."""
    ADD, MUL, _, _ = _tables(field)
    b = max(b for b in range(len(rows) + 1) if len(digits) ** b <= _BLOCK)
    low = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for g in rows[:b]:
        low = ADD[MUL[digits][:, g][:, None], low[None]].reshape(len(digits) * len(low), -1)
    if b == len(rows):
        return low[start:stop]
    t = len(low)
    high = _codewords(field, rows[b:], digits, start // t, -(-stop // t))
    both = ADD[high[:, None], low[None]].reshape(len(high) * t, -1)
    return both[start % t : start % t + stop - start]


def _scan(field: FieldSpec, P: np.ndarray, T: np.ndarray, m: int, start: int, bound: int):
    """The compare kernel: the weight of P[i] + t is start plus the number
    of positions where t != -P[i], so no field table is read per codeword.

    T holds one codeword per column, in groups of m columns, on the columns
    of P.  The mismatches of a slab of positions are counted by one
    broadcast compare and one sum, its bools at most 16 * _BLOCK bytes.
    Weights are visited by group, then by row of P, then within the
    group; returns (weight, r, c) of the first minimum in visiting order,
    the codeword P[r] + T[:, c].  A batch whose minimum is not below bound
    cannot improve on the best, so it returns None without looking for it.
    """
    NP = field.np_neg[P].T[:, :, None]  # rows of P outside, columns of T inside
    dtype = np.uint8 if start + len(T) < 256 else np.uint16
    W = np.full((len(P), T.shape[1]), start, dtype=dtype)
    slab = max(1, 16 * _BLOCK // W.size)  # columns per compare: at most 16 * _BLOCK bools
    for c in range(0, len(T), slab):
        W += (NP[c : c + slab] != T[c : c + slab, None]).view(np.uint8).sum(axis=0, dtype=dtype)
    if int(W.min()) >= bound:
        return None
    W = W.reshape(len(P), -1, m).transpose(1, 0, 2).ravel()
    i = int(W.argmin())
    g, r = divmod(i, len(P) * m)
    return int(W[i]), r // m, g * m + r % m


def _min_distance_exhaustive(C: LinearCode, budget: int) -> DistanceCertificate:
    field, G, k = C.field, C.gen, C.k
    q, digits = field.q, np.arange(field.q)
    total = q**k
    stop = total if total <= budget else max(0, budget // _BLOCK * _BLOCK)
    # message i is prefix i // t (rows b..k-1) plus entry i % t of T (rows 0..b-1)
    b = max(b for b in range(k + 1) if q**b <= max(1, min(stop, _BLOCK)))
    T = np.ascontiguousarray(_codewords(field, G[:b], digits, 0, q**b).T)
    t = T.shape[1]
    full, rem = divmod(stop, t)
    best, pb = None, max(1, _BLOCK // t)
    # a class {a M : a != 0} shares one weight: only its first message is
    # compared, whose highest nonzero digit is 1, in [q^j, 2 q^j).  Prefix 0
    # meets those columns of T; the prefixes in [q^j, 2 q^j) meet all of T in
    # spans cut at multiples of _BLOCK, and prefix full its first rem entries
    spans = [(0, 1, T[:, [c for j in range(b) for c in range(q**j, 2 * q**j)]])] if b else []
    for lo, hi in [(q**j, 2 * q**j) for j in range(k - b)]:
        cuts = [lo, *range(lo - lo % _BLOCK + _BLOCK, min(hi, full), _BLOCK), min(hi, full)]
        spans += [(s0, s1, T) for s0, s1 in zip(cuts, cuts[1:]) if s0 < s1]
        spans += [(full, full + 1, T[:, :rem])] if rem and lo <= full < hi else []
    for s0, s1, U in spans:
        P = _codewords(field, G[b:], digits, s0, s1)
        for i in range(0, len(P), pb):
            hit = _scan(field, P[i : i + pb], U, U.shape[1], 0, best[0] if best else C.n + 1)
            if hit:
                w, r, c = hit
                best = w, field.np_add[P[i + r], U[:, c]]
    if stop < total:
        raise BudgetExceeded(best[0] if best else None, 1, stop)
    return DistanceCertificate(best[0], _vec_elems(field, best[1]), "exhaustive", stop)


def _ranges(lo: np.ndarray, cnt: np.ndarray, size: int):
    """The ranges lo[i], ..., lo[i] + cnt[i] - 1 one after another, in windows
    of at most size entries, each a pair (i, value) of arrays."""
    end = np.cumsum(cnt)
    start, total = end - cnt, int(end[-1]) if len(end) else 0
    for x0 in range(0, total, size):
        x1 = min(x0 + size, total)
        a, b = np.searchsorted(end, (x0, x1 - 1), side="right")  # the owners in the window
        own = np.arange(a, b + 1)
        i = np.repeat(own, np.minimum(end[own], x1) - np.maximum(start[own], x0))
        yield i, lo[i] + np.arange(x0, x1) - start[i]


def _heads(ADD: np.ndarray, V: np.ndarray, L: int, size: int):
    """The L-row heads over the k = len(V) rows in combinations order, in
    chunks (H, P) of at most max(1, size // c) heads, c = m^(L-1): H[i] is a
    head and P[i*c : (i+1)*c] its codewords whose first row has value 1,
    little-endian over the reversed head.  A chunk extends a chunk of
    (L-1)-row heads by a last row, one gather per entry."""
    k, m, r = V.shape
    if L == 0:
        yield np.zeros((1, 0), np.intp), np.zeros((1, r), np.uint8)
        return
    mm, c = (m if L > 1 else 1), m ** (L - 1)  # the first row takes the value 1 only
    for H0, P0 in _heads(ADD, V, L - 1, size):
        first = H0[:, -1] + 1 if L > 1 else np.zeros(1, np.intp)
        for i, x in _ranges(first, k - first, max(1, size // c)):
            # ADD[a, b] read as ADD.flat[a * q + b], a 1-D take
            P = P0.reshape(len(H0), -1, 1, r)[i].astype(np.uint16) * len(ADD)
            P = ADD.ravel().take(P + V[x, None, :mm]).reshape(-1, r)
            yield np.column_stack((H0[i], x)), P


def _joins(q: int, r: int, sigma: int) -> bool:
    """Whether a weight level is searched by the pigeonhole join: its pairs
    may differ on at most sigma of the r compared columns, so they agree on
    one of sigma + 1 blocks, which at most 1/8 of random pairs do.  At most
    8 blocks, so the index holds at most 8 keys per tail column."""
    return sigma < min(r, 8) and q ** (r // (sigma + 1)) >= 8 * (sigma + 1)


def _keys(A: np.ndarray, blocks: list, bits: int) -> np.ndarray:
    """K[b, i]: the entries of A[i] on the columns of blocks[b], bits apiece."""
    K = np.zeros((len(blocks), len(A)), np.int64)
    for key, cols in zip(K, blocks):
        for c in cols:
            key <<= bits
            key |= A[:, c]
    return K


def _index(TT: np.ndarray, blocks: list, bits: int):
    """The tail columns (rows of TT) bucketed by block and key, one bucket per
    key value.  A block keys on as many of its first columns as fit in one
    bit more than len(TT) needs, so a random key matches about one column."""
    cut = max(1, (len(TT).bit_length() + 1) // bits)  # key columns per block
    blocks = [cols[:cut] for cols in blocks]
    sizes = [1 << (bits * len(cols)) for cols in blocks]
    base = np.cumsum([0] + sizes[:-1])[:, None]
    ids = (_keys(TT, blocks, bits) + base).ravel()
    starts = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=sum(sizes)))))
    return blocks, bits, base, starts, np.argsort(ids) % len(TT)


def _candidates(NP, index, lo, hi, size):
    """The pairs (i, c) of a negated head codeword NP[i] and a tail column
    lo[i] <= c < hi[i] whose keys agree on some block of the index, in
    windows of at most size pairs before the range test."""
    blocks, bits, base, starts, cols = index
    ids = _keys(NP, blocks, bits) + base
    a = starts[ids]
    for o, pos in _ranges(a.ravel(), (starts[ids + 1] - a).ravel(), size):
        i, c = o % len(NP), cols[pos]
        keep = (lo[i] <= c) & (c < hi[i])
        yield i[keep], c[keep]


def _min_distance_infoset(C: LinearCode, budget: int) -> DistanceCertificate:
    """A message of weight w has exactly w nonzero pivot entries, so only the
    r = n - k redundancy columns are compared and every weight starts at w.

    A support is a head, its first w - s rows, plus a tail, its last
    s = min(w, 2) rows (s = 1 when the pairs of rows with all their values
    would exceed _BLOCK columns).  One table per call holds every s-row tail
    with every nonzero value tuple; the tails of a head ending at row h are
    the s-subsets of h+1..k-1, a contiguous suffix of that table.  A nonempty
    head compares only its m^(w-s-1) codewords whose first row has value 1,
    the first multiple of each message.

    Each weight level takes its heads in combinations order, cut where the
    budget ends, and builds their codewords in chunks of about 16 * _BLOCK
    entries (a head too long for one chunk in parts).  With best the least
    weight so far, a pair improves on it only with at most
    sigma = best - w - 1 mismatches, so it agrees exactly on one of sigma + 1
    blocks of the columns.  Where _joins says so, only the pairs whose keys
    agree on some block are counted in full; elsewhere each head meets its
    tails through _scan.  The minimum kept is the least (weight, w, head,
    tail, head codeword, tail value), the visiting order of the messages."""
    field, G, k = C.field, C.gen, C.k
    ADD, MUL, NEG, _ = _tables(field)
    q, m, nz = field.q, field.q - 1, np.arange(1, field.q)
    R = G[:, [c for c in range(C.n) if c not in C.pivots]]
    r = R.shape[1]
    V = MUL[nz][:, R].transpose(1, 0, 2)  # V[i, j] = nz[j] * R[i]
    s_max = 1 if comb(k, 2) * m * m > _BLOCK else 2
    best, work, completed = None, 0, 0  # best: (weight, order, support, message)

    def limit():  # a tie can come first only on the level that found best
        return best[0] + (best[1][0] == w) if best else C.n + 1

    def improve(x, h, tail, p, val):
        nonlocal best
        order = (w, rank + int(h), int(tail), int(p), int(val))
        if best is None or (x, order) < best[:2]:
            best = int(x), order, tuple(H[h]) + tuple(tails[tail]), int(p) * g + int(val)

    for w in range(1, k + 1):
        if w <= s_max:  # s = min(w, s_max) grows
            s = w
            # every s-row tail in combinations order, its values in product order
            tails = np.array(list(combinations(range(k), s)))
            T = V[tails[:, 0]]
            if s == 2:
                T = ADD[T[:, :, None], V[tails[:, 1]][:, None]]
            g = m**s  # columns per tail
            TT = T.reshape(len(tails) * g, -1)  # one tail column per row, for gathers
            T = np.ascontiguousarray(TT.T)
            suffix = np.searchsorted(tails[:, 0], np.arange(k + 1))
        n_vals, n_head = m**w, m ** max(0, w - s - 1)  # messages covered, head codewords
        sigma, blocks = best[0] - w - 1 if best else r, []
        if _joins(q, r, sigma):
            blocks = np.array_split(np.arange(r), sigma + 1) if sigma < r else [[]]
            index = _index(TT, blocks, m.bit_length())
        # codewords per chunk: r bytes each, and per block a key and a bucket
        rows = max(1, 16 * _BLOCK // (r + 1 + 24 * len(blocks)))
        whole, pb = n_head <= rows, max(1, min(n_head, _BLOCK // g))
        chunks = _heads(ADD, V, w - s, rows) if whole else (  # else one head at a time
            (np.array([head]), None) for head in combinations(range(k), w - s)
        )
        left, rank = max(0, budget - work) // n_vals, 0  # whole tails the budget covers
        for H, P in chunks:
            t0 = suffix[H[:, -1] + 1 if w > s else np.zeros(1, np.intp)]
            nt = len(tails) - t0
            used = np.cumsum(nt)
            cut = len(H) if left >= int(used[-1]) else int(np.searchsorted(used, left, "right"))
            stop = cut < len(H)
            if stop:  # the budget ends within head cut
                nt[cut] = left - (used[cut - 1] if cut else 0)
                H, t0, nt = H[: cut + 1], t0[: cut + 1], nt[: cut + 1]
                P = P[: (cut + 1) * n_head] if whole else P
            covered = int(nt.sum())
            parts = [(P, 0)] if whole else (
                (_codewords(field, R[H[0, ::-1]], nz, p0, min(p0 + rows, n_head)), p0)
                for p0 in range(0, n_head if covered else 0, rows)
            )
            for Q, p0 in parts:
                n_rows = n_head if whole else len(Q)  # rows per head
                if blocks:
                    NQ = NEG.take(Q)
                    lo, hi = np.repeat(t0 * g, n_rows), np.repeat((t0 + nt) * g, n_rows)
                    for i, c in _candidates(NQ, index, lo, hi, rows):
                        wt = w + (NQ[i] != TT[c]).sum(axis=1)
                        keep = wt < limit()
                        if keep.any():
                            keep &= wt == wt[keep].min()
                            (h, p), (tail, val) = divmod(i[keep], n_rows), divmod(c[keep], g)
                            j = int((((h * len(tails) + tail) * n_rows + p) * g + val).argmin())
                            improve(wt[keep][j], h[j], tail[j], p0 + p[j], val[j])
                    continue
                for h in np.flatnonzero(nt):
                    end = t0[h] + nt[h]
                    for p in range(0, n_rows, pb):
                        Pa = Q[h * n_rows + p : h * n_rows + min(p + pb, n_rows)]
                        step = max(1, _BLOCK // (len(Pa) * g))  # tails per batch
                        for l0 in range(t0[h], end, step):
                            U = T[:, l0 * g : min(l0 + step, end) * g]
                            hit = _scan(field, Pa, U, g, w, limit())
                            if hit:
                                x, i, c = hit
                                improve(x, h, l0 + c // g, p0 + p + i, c % g)
            work, left, rank = work + covered * n_vals, left - covered, rank + len(H)
            if stop:
                raise BudgetExceeded(best[0] if best else None, completed + 1, work)
        completed = w
        if w + 1 >= best[0]:
            break
    supp, i = best[2], best[3]
    witness = _codewords(field, G[list(supp[::-1])], nz, i, i + 1)[0]
    return DistanceCertificate(best[0], _vec_elems(field, witness), "info-set", work, completed)
