"""Enumeration and search over the ideal lattice of F_q^gamma C_n.

Every ideal of the semisimple quotient is generated by a unique sum of
primitive idempotents, so the 2^r subset masks over the ordered factor
list walk the whole lattice; `_lattice` factors x^n - lam once and is
this module's only way in.  LCD has three derivations: subspace
intersection, the idempotent criterion (when lam^2 = 1), and the orbits
of Frobenius o reciprocal on the factors (when lam^(1 + p^(m-k)) = 1;
otherwise every ideal is LCD).  `iter_ideal_codes` yields every ideal
with its code; `search_lcd` decides by the orbits, visits only the LCD
masks, and checks each record by one of the other two; both walk the
lattice with `_mask_elements`.  Records carry the code parameters, the
LCD flags, and a best-known comparison.  A built-in verifier replays
four bundled reference examples of good LCD codes end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from importlib.resources import files as resource_files
from typing import Iterator, Optional, Sequence

from .codes import (
    DEFAULT_BUDGET,
    DistanceCertificate,
    LinearCode,
    _check_bounds,
    check_idempotent_lcd,
    dual,
    ideal_from_element,
    is_lcd,
    min_distance,
)
from .errors import (
    BudgetExceeded,
    Error,
    TableMissing,
    TableParseError,
    TooManyFactors,
)
from .gf import GF, FieldElem
from .poly import Poly, factor_xn_minus_lambda, primitive_idempotents
from .talg import AlgebraCtx, AlgElem, elem_mul, involution_star

MAX_FACTORS = 24


@dataclass(frozen=True)
class Verdict:
    """Comparison against a best-known table entry."""

    status: str  # "optimal" | "suboptimal" | "exceeds-table" | "unknown"
    gap: Optional[int] = None

    def __str__(self):
        if self.status in ("suboptimal", "exceeds-table"):
            return f"{self.status}({self.gap})"
        return self.status


@dataclass(frozen=True)
class CodeRecord:
    """One enumerated ideal: parameters, generator idempotent, LCD flags,
    distance bounds with their certificate, and the best-known comparison."""

    q: int
    n: int
    lam: FieldElem
    subset_mask: int
    idempotent: AlgElem
    k: int
    d: Optional[int]
    lcd_euclid: bool
    lcd_galois: dict[int, bool]
    best_known_d: Optional[int]
    verdict: Verdict
    certificate: Optional[DistanceCertificate] = None
    d_lower: Optional[int] = None  # set when the distance search ran
    d_upper: Optional[int] = None

    def to_dict(self) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "lam": self.lam.ser(),
            "mask": self.subset_mask,
            "k": self.k,
            "d": self.d,
            "lcd_euclid": self.lcd_euclid,
            "lcd_galois": {str(k): v for k, v in sorted(self.lcd_galois.items())},
            "best_known_d": self.best_known_d,
            "verdict": str(self.verdict),
            "idempotent": self.idempotent.ser(),
        }
        if self.d_lower is not None:
            cert = self.certificate
            out["d_lower"], out["d_upper"] = self.d_lower, self.d_upper
            out["certificate"] = None if cert is None else {
                "method": cert.method, "work": cert.work, "message_weight": cert.message_weight
            }
        return out


class BestKnownTable:
    """Best-known distances keyed by (q, n, k), from a q,n,k,d text file."""

    def __init__(self, entries: dict[tuple[int, int, int], int]):
        self.entries = dict(entries)

    @classmethod
    def load(cls, path) -> "BestKnownTable":
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise TableMissing(f"best-known table not found: {path}")
        except OSError as exc:
            raise TableMissing(f"best-known table unreadable: {path}: {exc.strerror or exc}")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # decoded whole, so the offset is the file's
            raise TableParseError(f"{path}: not UTF-8 at byte {exc.start}")
        return cls._parse(text, str(path))

    @classmethod
    def _parse(cls, text: str, source: str) -> "BestKnownTable":
        entries: dict[tuple[int, int, int], int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise TableParseError(f"{source}:{lineno}: expected q,n,k,d, got {raw!r}")
            try:
                q, n, k, d = (int(p) for p in parts)
            except ValueError:
                raise TableParseError(f"{source}:{lineno}: non-integer field in {raw!r}")
            if d < 1:
                raise TableParseError(f"{source}:{lineno}: d must be >= 1")
            if q < 2 or not 1 <= k <= n:
                raise TableParseError(f"{source}:{lineno}: need q >= 2 and 1 <= k <= n in {raw!r}")
            _check_bounds(q, n, k, d, f"{source}:{lineno}: ", TableParseError)
            entries[(q, n, k)] = d
        return cls(entries)

    @classmethod
    def bundled(cls) -> "BestKnownTable":
        """The table shipped with the package, parsed once per process;
        each call returns its own copy."""
        return cls(_bundled_entries())

    def lookup(self, q: int, n: int, k: int) -> Optional[int]:
        return self.entries.get((q, n, k))


@cache
def _bundled_entries() -> dict[tuple[int, int, int], int]:
    text = resource_files("twistcodes").joinpath("data/best_known.csv").read_text()
    return BestKnownTable._parse(text, "bundled").entries


def _verdict(d: Optional[int], best: Optional[int]) -> Verdict:
    if d is None or best is None:
        return Verdict("unknown")
    if d > best:
        # a certified d above the best-known entry: a table error or a record
        return Verdict("exceeds-table", best - d)
    if d == best:
        return Verdict("optimal", 0)
    return Verdict("suboptimal", best - d)


def _mask_element(ctx: AlgebraCtx, prims: Sequence[Poly], mask: int) -> AlgElem:
    """The sum of the primitive idempotents whose bits the mask sets."""
    e = sum((p for i, p in enumerate(prims) if mask >> i & 1), Poly.zero(ctx.field))
    return ctx.from_indices(e.indices)


def _mask_elements(
    ctx: AlgebraCtx, prims: Sequence[Poly], parts: Optional[Sequence[int]] = None
) -> Iterator[tuple[int, AlgElem]]:
    """(mask, _mask_element of the mask) for every union of the parts, in
    ascending mask order.  The parts are disjoint masks ordered by their
    highest bit (as factor_orbits returns them), by default one per
    idempotent.  Each part's sum is formed once and each union as the union
    less its lowest part t plus the sum of part t: one addition per union.
    high[t] holds the union of the current union's parts above t, the only
    earlier union a later one still reads."""
    if parts is None:
        parts = [1 << i for i in range(len(prims))]
    sums = [_mask_element(ctx, prims, part) for part in parts]
    zero = 0, ctx.from_indices(())
    high = [zero] * len(parts)
    yield zero
    for b in range(1, 1 << len(parts)):
        t = (b & -b).bit_length() - 1
        mask, e = high[t]
        union = mask | parts[t], e + sums[t]
        high[:t] = [union] * t
        yield union


def iter_ideal_codes(ctx: AlgebraCtx) -> Iterator[tuple[int, AlgElem, LinearCode]]:
    """All 2^r ideals in ascending subset-mask order, as
    (mask, idempotent, code) triples; bit i of the mask selects the i-th
    primitive idempotent in the canonical factor order."""
    _, prims = _lattice(ctx)
    for mask, e in _mask_elements(ctx, prims):
        yield mask, e, ideal_from_element(e)


def _lattice(ctx: AlgebraCtx) -> tuple[list[Poly], list[Poly]]:
    """The canonical factors of x^n - lam and their primitive idempotents,
    from one factorization; more than MAX_FACTORS factors raise before
    the idempotents are formed."""
    factors = factor_xn_minus_lambda(ctx.field, ctx.n, ctx.lam)
    if len(factors) > MAX_FACTORS:
        raise TooManyFactors(f"{len(factors)} irreducible factors exceed the limit {MAX_FACTORS}")
    return factors, primitive_idempotents(ctx.field, ctx.n, ctx.lam, factors)


def factor_orbits(ctx: AlgebraCtx, factors: Sequence[Poly], k: int) -> Optional[list[int]]:
    """The orbits of pi = Frob^(m-k) o reciprocal on the canonical factor
    list of x^n - lam, as bitmasks ordered by their highest bit; None when
    the k-Galois dual constant lam^(-p^(m-k)) is not lam, that is when
    lam^(1 + p^(m-k)) != 1.

    pi reverses a factor's coefficients, raises each to the power
    p^(m-k) and makes the result monic.  When the dual constant is lam the
    k-Galois dual of an ideal is again an ideal of the algebra, and the
    ideal with mask S is k-Galois LCD exactly when S is a union of orbits
    (Yang-Massey 1994; Liu-Fan-Liu, FFA 2018).  Otherwise the dual is
    constacyclic for another constant and every ideal is k-Galois LCD.
    """
    if ctx.dual_constant(k) != ctx.lam:
        return None
    F = ctx.field
    position = {f.indices: i for i, f in enumerate(factors)}
    perm = []
    for f in factors:
        image = Poly.from_indices(F, F.frobenius(f.indices[::-1], F.m - k)).monic()
        if image.indices not in position:
            raise Error(
                f"pi maps the factor {f} to {image}, which is not a factor of "
                f"x^{ctx.n} - {ctx.lam} over GF({F.q})"
            )
        perm.append(position[image.indices])
    orbits, seen = [], 0
    for i in range(len(perm)):
        orbit, j = 0, i
        while not (seen | orbit) >> j & 1:
            orbit, j = orbit | 1 << j, perm[j]
        if orbit:
            orbits.append(orbit)
            seen |= orbit
    return sorted(orbits, key=int.bit_length)


def _is_union(mask: int, orbits: Sequence[int]) -> bool:
    return all(mask & o in (0, o) for o in orbits)


def _agree(ctx: AlgebraCtx, mask: int, k: int, flag: bool, other: bool, what: str):
    if flag != other:
        raise Error(
            f"{what} (q={ctx.field.q}, n={ctx.n}, lam={ctx.lam}, mask={mask}, k={k})"
        )


def search_lcd(
    ctx: AlgebraCtx,
    k: int = 0,
    distances: bool = True,
    budget: int = DEFAULT_BUDGET,
    table: Optional[BestKnownTable] = None,
    min_dim: int = 0,
) -> list[CodeRecord]:
    """All k-Galois LCD ideals of the context, sorted by dimension then
    distance, both descending.

    The factor orbits decide LCD (see factor_orbits), so only the LCD
    masks are visited, and the dimension is the degree sum of the chosen
    factors.  Each record is checked independently: by the idempotent
    criterion when lam^2 = 1 (for k and for the Euclidean flag), and
    otherwise by subspace intersection wherever the orbits decided; where
    lam^(1 + p^(m-k)) != 1 every ideal is LCD by the theorem.  A code is
    built only for that check and for the minimum distance, and the
    distance reuses the code C when the check built it.
    """
    factors, prims = _lattice(ctx)
    orbits = factor_orbits(ctx, factors, k)
    euclid = orbits if k == 0 else factor_orbits(ctx, factors, 0)
    records = []
    for mask, e in _mask_elements(ctx, prims, orbits):
        dim = sum(f.degree for i, f in enumerate(factors) if mask >> i & 1)
        if dim < min_dim:
            continue
        flags = {0: euclid is None or _is_union(mask, euclid), k: True}
        C = None
        if ctx.has_involution:
            for j, flag in flags.items():
                _agree(ctx, mask, j, flag, check_idempotent_lcd(e, j),
                       "idempotent LCD criterion disagrees with the factor orbits")
        elif orbits is not None:
            C = ideal_from_element(e)
            _agree(ctx, mask, k, True, is_lcd(C, k),
                   "subspace intersection disagrees with the factor orbits")
        d = cert = lower = upper = None
        if distances and dim >= 1:
            try:
                cert = min_distance(C if C is not None else ideal_from_element(e), budget=budget)
                d = lower = upper = cert.d
            except BudgetExceeded as exc:
                lower, upper = exc.lower, exc.upper
        best = table.lookup(ctx.field.q, ctx.n, dim) if table else None
        records.append(CodeRecord(
            q=ctx.field.q,
            n=ctx.n,
            lam=ctx.lam,
            subset_mask=mask,
            idempotent=e,
            k=dim,
            d=d,
            lcd_euclid=flags[0],
            lcd_galois={j: v for j, v in flags.items() if j != 0},
            best_known_d=best,
            verdict=_verdict(d, best),
            certificate=cert,
            d_lower=lower,
            d_upper=upper,
        ))
    records.sort(key=lambda r: (-r.k, -(r.d if r.d is not None else -1)))
    return records


# ---------------------------------------------------------------------------
# bundled reference examples


@dataclass(frozen=True)
class ReferenceExample:
    """A known good pair of complementary LCD constacyclic codes.

    params lists the expected (dimension, weight) of the two codes
    generated by e and f = 1 - e, as an unordered pair: the sources for
    these examples do not bind the parameter claims reliably to which of
    the two complementary idempotents carries them.
    """

    name: str
    q: int
    n: int
    lam: int
    e_terms: dict[int, int]
    f_terms: dict[int, int]
    params: tuple[tuple[int, int], tuple[int, int]]


REFERENCE_EXAMPLES = (
    ReferenceExample(
        name="GF(3), n=10, lam=2: [10,8,2] and [10,2,5]",
        q=3,
        n=10,
        lam=2,
        e_terms={8: 1, 6: 2, 4: 1, 2: 2, 0: 2},
        f_terms={8: 2, 6: 1, 4: 2, 2: 1, 0: 2},
        params=((8, 2), (2, 5)),
    ),
    ReferenceExample(
        name="GF(5), n=9, lam=4: [9,7,2] and [9,2,6]",
        q=5,
        n=9,
        lam=4,
        e_terms={8: 1, 7: 4, 6: 3, 5: 4, 4: 1, 3: 2, 2: 1, 1: 4, 0: 3},
        f_terms={8: 4, 7: 1, 6: 2, 5: 1, 4: 4, 3: 3, 2: 4, 1: 1, 0: 3},
        params=((7, 2), (2, 6)),
    ),
    ReferenceExample(
        name="GF(5), n=21, lam=4: [21,6,12] and [21,15,3]",
        q=5,
        n=21,
        lam=4,
        e_terms={
            19: 4, 18: 4, 15: 1, 14: 2, 13: 4, 12: 4, 11: 4,
            10: 1, 9: 1, 8: 1, 7: 3, 6: 4, 3: 1, 2: 1, 0: 1,
        },
        f_terms={
            19: 1, 18: 1, 15: 4, 14: 3, 13: 1, 12: 1, 11: 1,
            10: 4, 9: 4, 8: 4, 7: 2, 6: 1, 3: 4, 2: 4,
        },
        params=((6, 12), (15, 3)),
    ),
    ReferenceExample(
        name="GF(7), n=19, lam=6: [19,7,10] and [19,12,6]",
        q=7,
        n=19,
        lam=6,
        e_terms={
            18: 3, 17: 6, 16: 1, 15: 5, 14: 1, 13: 5, 12: 3, 11: 4, 10: 2,
            9: 5, 8: 3, 7: 4, 6: 2, 5: 6, 4: 2, 3: 6, 2: 1, 1: 4,
        },
        f_terms={
            18: 4, 17: 1, 16: 6, 15: 2, 14: 6, 13: 2, 12: 4, 11: 3, 10: 5,
            9: 2, 8: 4, 7: 3, 6: 5, 5: 1, 4: 5, 3: 1, 2: 6, 1: 3, 0: 1,
        },
        params=((7, 10), (12, 6)),
    ),
)


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class ExampleReport:
    name: str
    checks: list[Check] = dc_field(default_factory=list)

    def add(self, label: str, passed: bool, detail: str = ""):
        self.checks.append(Check(label, passed, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class VerifyReport:
    examples: list[ExampleReport] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.examples)


def make_reference_ctx(ex: ReferenceExample):
    """(ctx, e, f) for a reference example."""
    ctx = AlgebraCtx(GF(ex.q), ex.n, ex.lam)
    return ctx, ctx.elem_from_dict(ex.e_terms), ctx.elem_from_dict(ex.f_terms)


def verify_reference_examples(
    names: Optional[Sequence[str]] = None,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Re-derive every claim of the bundled reference examples.

    For each example: the stated e is idempotent, f is its complement,
    both are fixed by the involution, the generated codes have the stated
    dimensions and distances and are Euclidean LCD under both criteria,
    and lattice enumeration rediscovers the identical idempotents.  A name
    that matches no example raises Error.
    """
    unmatched = [s for s in names or () if not any(s in ex.name for ex in REFERENCE_EXAMPLES)]
    if unmatched:
        raise Error(f"no reference example matches {', '.join(map(repr, unmatched))}")
    report = VerifyReport()
    table = BestKnownTable.bundled()
    for ex in REFERENCE_EXAMPLES:
        if names is not None and not any(s in ex.name for s in names):
            continue
        rep = ExampleReport(ex.name)
        ctx, e, f = make_reference_ctx(ex)
        rep.add("e^2 = e", elem_mul(e, e) == e)
        rep.add("f = 1 - e", f == ctx.one - e)
        rep.add("f^2 = f", elem_mul(f, f) == f)
        rep.add("star(e) = e", involution_star(e) == e)
        rep.add("star(f) = f", involution_star(f) == f)
        Ce, Cf = ideal_from_element(e), ideal_from_element(f)
        got = []
        for label, code in (("<e>", Ce), ("<f>", Cf)):
            try:
                cert = min_distance(code, budget=budget)
                got.append((code.k, cert.d))
                rep.add(
                    f"{label} distance certified",
                    True,
                    f"[{ex.n},{code.k},{cert.d}] via {cert.method}, work {cert.work}",
                )
            except BudgetExceeded as exc:
                got.append((code.k, None))
                rep.add(f"{label} distance certified", False, str(exc))
        want = {ex.params[0], ex.params[1]}
        rep.add(
            f"parameters {sorted(want)} reproduced",
            set(got) == want,
            f"got {sorted(got)}",
        )
        for label, code, elem in (("<e>", Ce, e), ("<f>", Cf, f)):
            sub = is_lcd(code, 0)
            idem = check_idempotent_lcd(elem, 0)
            rep.add(f"{label} Euclidean LCD (both criteria)", sub and idem)
        rep.add("dual<e> = <f>", dual(Ce, 0) == Cf)
        _, prims = _lattice(ctx)
        found = [elem for _, elem in _mask_elements(ctx, prims)]
        rep.add(
            "enumeration rediscovers e and f",
            e in found and f in found,
            f"{len(found)} ideals scanned",
        )
        verdicts = [_verdict(d, table.lookup(ex.q, ex.n, k)) for k, d in got]
        rep.add(
            "best-known verdicts",
            all(v.status in ("optimal", "suboptimal") for v in verdicts),
            ", ".join(f"[{ex.n},{k},{d}]: {v}" for (k, d), v in zip(got, verdicts)),
        )
        report.examples.append(rep)
    return report
