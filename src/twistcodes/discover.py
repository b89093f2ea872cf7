"""Enumeration and search over the ideal lattice of F_q^gamma C_n.

Every ideal of the semisimple quotient is generated by a unique sum of
primitive idempotents, so the 2^r subset masks over the ordered factor
list walk the whole lattice.  Records carry the code parameters, both
LCD verdicts (subspace intersection and the idempotent criterion, which
must agree when lam^2 = 1), and a comparison against a best-known-codes
table.  A built-in verifier replays four bundled reference examples of
good LCD codes end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from importlib.resources import files as resource_files
from typing import Iterator, Optional, Sequence

from .codes import (
    DEFAULT_BUDGET,
    DistanceCertificate,
    LinearCode,
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
from .poly import Poly, primitive_idempotents
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

    def __init__(self, entries: dict[tuple[int, int, int], int], source: str = "<memory>"):
        self.entries = dict(entries)
        self.source = source

    @classmethod
    def load(cls, path) -> "BestKnownTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise TableMissing(f"best-known table not found: {path}")
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
            entries[(q, n, k)] = d
        return cls(entries, source)

    @classmethod
    def bundled(cls) -> "BestKnownTable":
        text = resource_files("twistcodes").joinpath("data/best_known.csv").read_text()
        return cls._parse(text, "bundled")

    def lookup(self, q: int, n: int, k: int) -> Optional[int]:
        return self.entries.get((q, n, k))


def compare(record: CodeRecord, table: Optional[BestKnownTable]) -> Verdict:
    """Verdict of a record's distance against the table."""
    if table is None or record.d is None:
        return Verdict("unknown")
    return _verdict(record.d, table.lookup(record.q, record.n, record.k))


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
    e = Poly.zero(ctx.field)
    for i, p in enumerate(prims):
        if mask >> i & 1:
            e = e + p
    return ctx.from_indices(e.indices)


def iter_ideal_codes(
    ctx: AlgebraCtx, seed: int = 0, max_factors: int = MAX_FACTORS
) -> Iterator[tuple[int, AlgElem, LinearCode]]:
    """All 2^r ideals in ascending subset-mask order, as
    (mask, idempotent, code) triples; bit i of the mask selects the i-th
    primitive idempotent in the canonical factor order."""
    prims = primitive_idempotents(ctx.field, ctx.n, ctx.lam, seed=seed)
    r = len(prims)
    if r > max_factors:
        raise TooManyFactors(f"{r} irreducible factors exceed the limit {max_factors}")
    for mask in range(1 << r):
        e = _mask_element(ctx, prims, mask)
        yield mask, e, ideal_from_element(e)


def _build_record(
    ctx: AlgebraCtx,
    mask: int,
    e: AlgElem,
    C: LinearCode,
    galois_ks: Sequence[int],
    distances: bool,
    budget: int,
    table: Optional[BestKnownTable],
    assume_lcd: frozenset[int] = frozenset(),
) -> CodeRecord:
    field = ctx.field
    lam2_trivial = ctx.lam * ctx.lam == field.one
    flags: dict[int, bool] = {}
    for k in galois_ks:
        if k in assume_lcd:
            flags[k] = True
            continue
        flag = is_lcd(C, k)
        if lam2_trivial and check_idempotent_lcd(e, k) != flag:
            raise Error(
                f"idempotent LCD criterion disagrees with subspace intersection "
                f"(q={field.q}, n={ctx.n}, lam={ctx.lam}, mask={mask}, k={k})"
            )
        flags[k] = flag
    d = cert = lower = upper = None
    if distances and C.k >= 1:
        try:
            cert = min_distance(C, budget=budget)
            d = lower = upper = cert.d
        except BudgetExceeded as exc:
            lower, upper = exc.lower, exc.upper
    best = table.lookup(field.q, ctx.n, C.k) if table else None
    return CodeRecord(
        q=field.q,
        n=ctx.n,
        lam=ctx.lam,
        subset_mask=mask,
        idempotent=e,
        k=C.k,
        d=d,
        lcd_euclid=flags[0] if 0 in flags else is_lcd(C, 0),
        lcd_galois={k: v for k, v in flags.items() if k != 0},
        best_known_d=best,
        verdict=_verdict(d, best),
        certificate=cert,
        d_lower=lower,
        d_upper=upper,
    )


def enumerate_ideals(
    ctx: AlgebraCtx,
    galois_ks: Optional[Sequence[int]] = None,
    distances: bool = True,
    budget: int = DEFAULT_BUDGET,
    table: Optional[BestKnownTable] = None,
    seed: int = 0,
    max_factors: int = MAX_FACTORS,
) -> Iterator[CodeRecord]:
    """Stream a CodeRecord for every ideal of the context, ascending mask
    order.  Needs gcd(n, p) = 1.  When lam^2 = 1 both LCD criteria are
    evaluated and must agree."""
    ks = list(galois_ks) if galois_ks is not None else list(range(ctx.field.m))
    if 0 not in ks:
        ks = [0] + ks
    for mask, e, C in iter_ideal_codes(ctx, seed=seed, max_factors=max_factors):
        yield _build_record(ctx, mask, e, C, ks, distances, budget, table)


def search_lcd(
    ctx: AlgebraCtx,
    k: int = 0,
    distances: bool = True,
    budget: int = DEFAULT_BUDGET,
    table: Optional[BestKnownTable] = None,
    seed: int = 0,
    min_dim: int = 0,
    max_factors: int = MAX_FACTORS,
) -> list[CodeRecord]:
    """All k-Galois LCD ideals of the context, sorted by dimension then
    distance, both descending.

    When lam^(1 + p^(m-k)) != 1 every constacyclic code is LCD, so the
    per-ideal intersection test is skipped (a sample is still verified).
    """
    field = ctx.field
    exponent = 1 + field.p ** ((field.m - k) % field.m)
    all_lcd = ctx.lam**exponent != field.one
    records = []
    triples = list(iter_ideal_codes(ctx, seed=seed, max_factors=max_factors))
    if all_lcd:
        sample = {m for m, _, _ in triples[:4]} | {m for m, _, _ in triples[-4:]}
        for mask, _, C in triples:
            if mask in sample and not is_lcd(C, k):
                raise Error(
                    f"fast-path assumption violated: ideal mask={mask} is not "
                    f"{k}-Galois LCD despite lam^(1+p^(m-k)) != 1"
                )
    assume = frozenset([k]) if all_lcd else frozenset()
    for mask, e, C in triples:
        if C.k < min_dim:
            continue
        rec = _build_record(ctx, mask, e, C, [k], distances, budget, table, assume)
        flag = rec.lcd_euclid if k == 0 else rec.lcd_galois.get(k, False)
        if flag:
            records.append(rec)
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
    seed: int = 0,
) -> VerifyReport:
    """Re-derive every claim of the bundled reference examples.

    For each example: the stated e is idempotent, f is its complement,
    both are fixed by the involution, the generated codes have the stated
    dimensions and distances and are Euclidean LCD under both criteria,
    and lattice enumeration rediscovers the identical idempotents.  The
    seed drives the factorization behind that enumeration; the canonical
    factor order keeps the report independent of it.
    """
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
        found_e = found_f = False
        masks = 0
        for _, cand, _C in iter_ideal_codes(ctx, seed=seed):
            masks += 1
            if cand == e:
                found_e = True
            if cand == f:
                found_f = True
        rep.add(
            "enumeration rediscovers e and f",
            found_e and found_f,
            f"{masks} ideals scanned",
        )
        verdicts = [_verdict(d, table.lookup(ex.q, ex.n, k)) for k, d in got]
        rep.add(
            "best-known verdicts",
            all(v.status in ("optimal", "suboptimal") for v in verdicts),
            ", ".join(f"[{ex.n},{k},{d}]: {v}" for (k, d), v in zip(got, verdicts)),
        )
        report.examples.append(rep)
    return report
