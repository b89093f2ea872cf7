"""Command-line interface.

Every subcommand echoes its configuration (including the seed) in an
output header and supports two formats: a human-readable table that
prints algebra elements in gbar notation, and JSON lines where each
record is one object.  Identical configuration produces byte-identical
output.  Commands add their records to an Emitter, and main prints them
only after the command has returned.

Exit status: 0 on success, 1 when a verification or certification fails
(reference-example check failures, LCD criterion disagreement, distance
budget exhausted) or the reader closes the output pipe early, 2 on usage
or input errors, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Callable, Optional

from . import __version__
from .codes import (
    DEFAULT_BUDGET,
    LinearCode,
    check_idempotent_lcd,
    dual,
    ideal_from_element,
    idempotent_generator,
    is_lcd,
    min_distance,
)
from .discover import (
    BestKnownTable,
    _mask_element,
    search_lcd,
    verify_reference_examples,
)
from .errors import BudgetExceeded, Error
from .gf import GF, FieldElem, FieldSpec, norm_image_classes
from .poly import Poly, factor_xn_minus_lambda, primitive_idempotents
from .talg import AlgebraCtx, AlgElem, equivalence_witness

ENV_TABLE = "TWISTCODES_TABLE"


# ---------------------------------------------------------------------------
# parsing helpers


def parse_field(args) -> FieldSpec:
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    return GF(args.q, modulus=modulus, seed=args.seed)


def parse_elem(field: FieldSpec, text: str) -> FieldElem:
    """A single element: '5' (prime-subfield value) or '1,2' (coordinates)."""
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        return field.element(parts[0])
    return field.element(parts)


def parse_elem_seq(field: FieldSpec, text: str) -> list[FieldElem]:
    """A coefficient sequence: elements separated by ';', coordinates of
    one element by ','.  Prime fields may use ',' between elements."""
    if ";" in text:
        return [parse_elem(field, chunk) for chunk in text.split(";")]
    parts = [int(p) for p in text.split(",")]
    if field.m == 1:
        return [field.element(p) for p in parts]
    return [field.element(parts)]


def load_table(args) -> Optional[BestKnownTable]:
    path = args.table or os.environ.get(ENV_TABLE)
    if path:
        return BestKnownTable.load(path)
    return BestKnownTable.bundled()


# ---------------------------------------------------------------------------
# output


class Emitter:
    """Collects a command's output lines; main prints them once the command
    has returned, so a command that fails prints nothing to stdout."""

    def __init__(self, args):
        self.args = args
        self.lines: list[str] = []

    def header(self, **extra):
        a = self.args
        items = " ".join(f"{k}={extra[k]}" for k in sorted(extra))
        self.record(
            {"record": "header", "command": a.command, "seed": a.seed, "version": __version__, **extra},
            lambda: f"# twistcodes {a.command} seed={a.seed} {items}".rstrip(),
        )

    def record(self, rec: dict, human: Callable[[], str], raw: Optional[dict] = None):
        """Add rec as JSON, or the line human() builds in table mode.  raw maps
        further keys to their JSON text, already rendered; the line is still
        json.dumps of the whole record with sorted keys."""
        if self.args.format != "json":
            line = human()
        elif raw is None:
            line = json.dumps(rec, sort_keys=True)
        else:
            text = {k: json.dumps(v, sort_keys=True) for k, v in rec.items()} | raw
            line = "{" + ", ".join(f"{json.dumps(k)}: {text[k]}" for k in sorted(text)) + "}"
        self.lines.append(line)


def field_header(field: FieldSpec) -> dict:
    return {"q": field.q, "p": field.p, "m": field.m, "modulus": list(field.modulus)}


def ctx_header(args, out: Emitter, **extra) -> AlgebraCtx:
    """The algebra that -q, -n and --lam name; its header carries extra too."""
    field = parse_field(args)
    ctx = AlgebraCtx(field, args.n, parse_elem(field, args.lam))
    out.header(**field_header(field), n=ctx.n, lam=str(ctx.lam), **extra)
    return ctx


def subject(args, out: Emitter, **extra) -> tuple[AlgebraCtx, AlgElem, LinearCode]:
    """(ctx, e, <e>) of the code-like subcommands; e is an explicit
    idempotent, a generator polynomial, or a subset mask."""
    ctx = ctx_header(args, out, **extra)
    F = ctx.field
    given = [x is not None for x in (args.idempotent, args.genpoly, args.mask)]
    if sum(given) != 1:
        raise Error("exactly one of --idempotent, --genpoly, --mask is required")
    if args.idempotent is not None:
        e = ctx.elem(parse_elem_seq(F, args.idempotent))
    elif args.genpoly is not None:
        g = Poly(F, parse_elem_seq(F, args.genpoly)) % Poly.xn_minus(F, ctx.n, ctx.lam)
        e = ctx.from_indices(g.indices)
    else:
        factors = factor_xn_minus_lambda(F, ctx.n, ctx.lam)
        if not 0 <= args.mask < (1 << len(factors)):
            raise Error(f"mask {args.mask} out of range for {len(factors)} factors")
        e = _mask_element(ctx, primitive_idempotents(F, ctx.n, ctx.lam, factors), args.mask)
    return ctx, e, ideal_from_element(e)


def fmt_rows(code: LinearCode) -> str:
    lines = ["  [" + " ".join(code.field.index_str(int(i)) for i in row) + "]" for row in code.gen]
    return "\n".join(lines) if lines else "  (no rows)"


# ---------------------------------------------------------------------------
# subcommands


def cmd_factor(args, out: Emitter) -> int:
    ctx = ctx_header(args, out)
    for i, f in enumerate(factor_xn_minus_lambda(ctx.field, ctx.n, ctx.lam)):
        out.record(
            {"record": "factor", "index": i, "degree": f.degree},
            lambda: f"factor {i}: {f}",
            raw={"coeffs": ctx.field.ser_json(f.indices)},
        )
    return 0


def cmd_idempotents(args, out: Emitter) -> int:
    ctx = ctx_header(args, out)
    factors = factor_xn_minus_lambda(ctx.field, ctx.n, ctx.lam)
    for i, p in enumerate(primitive_idempotents(ctx.field, ctx.n, ctx.lam, factors)):
        e = ctx.from_indices(p.indices)
        out.record(
            {"record": "idempotent", "index": i},
            lambda: f"e_{i} = {e}",
            raw={"coeffs": ctx.field.ser_json(e.indices)},
        )
    return 0


def cmd_code(args, out: Emitter) -> int:
    ctx, e, C = subject(args, out)
    out.record(
        {"record": "code", **C.to_dict(), "generator": e.ser()},
        lambda: f"[{C.n},{C.k}] code over GF({ctx.field.q}), generator {e}\n{fmt_rows(C)}",
    )
    return 0


def cmd_dual(args, out: Emitter) -> int:
    ctx, e, C = subject(args, out, galois=args.galois)
    k = args.galois
    D, shift_const = dual(C, k), ctx.dual_constant(k)
    out.record(
        {"record": "dual", "galois_k": k, **D.to_dict(), "shift_constant": shift_const.ser()},
        lambda: f"{k}-Galois dual: [{D.n},{D.k}] code, {shift_const}-constacyclic\n{fmt_rows(D)}",
    )
    return 0


def cmd_distance(args, out: Emitter) -> int:
    ctx, e, C = subject(args, out, budget=args.budget)
    try:
        cert = min_distance(C, budget=args.budget, method=args.method)
    except BudgetExceeded as exc:
        upper = exc.upper if exc.upper is not None else "?"
        out.record(
            {
                "record": "distance",
                "status": "budget-exceeded",
                "lower": exc.lower,
                "upper": exc.upper,
                "work": exc.work,
            },
            lambda: f"budget exceeded: {exc.lower} <= d <= {upper}, work {exc.work}",
        )
        return 1
    out.record(
        {"record": "distance", **cert.to_dict()},
        lambda: f"[{C.n},{C.k},{cert.d}] via {cert.method}, work {cert.work}, "
        f"witness ({' '.join(str(c) for c in cert.witness)})",
    )
    return 0


def cmd_lcd_check(args, out: Emitter) -> int:
    ctx, e, C = subject(args, out, galois=args.galois)
    sub = is_lcd(C, args.galois)
    # the idempotent criterion needs a semisimple algebra and lam^2 = 1
    if not ctx.semisimple:
        idem, why = None, "n/a (p divides n)"
    elif not ctx.has_involution:
        idem, why = None, "n/a (lam^2 != 1)"
    else:
        idem = check_idempotent_lcd(idempotent_generator(C, ctx), args.galois)
        why = str(idem)
    agree = (idem is None) or (idem == sub)
    out.record(
        {
            "record": "lcd-check",
            "galois_k": args.galois,
            "k": C.k,
            "subspace_lcd": sub,
            "idempotent_lcd": idem,
            "agree": agree,
        },
        lambda: f"[{C.n},{C.k}]: subspace criterion {sub}, "
        f"idempotent criterion {why}, agree: {agree}",
    )
    return 0 if agree else 1


def cmd_equiv(args, out: Emitter) -> int:
    field = parse_field(args)
    lam = parse_elem(field, args.lam)
    beta = parse_elem(field, args.beta)
    out.header(**field_header(field), n=args.n, lam=str(lam), beta=str(beta))
    w = equivalence_witness(field, args.n, lam, beta)
    out.record(
        {
            "record": "equiv",
            "equivalent": w is not None,
            "witness": None if w is None else w.ser(),
        },
        lambda: "inequivalent" if w is None
        else f"witness a = {w} with lam = a^{args.n} * beta",
    )
    return 0


def cmd_h2(args, out: Emitter) -> int:
    field = parse_field(args)
    out.header(**field_header(field), n=args.n)
    count, reps = norm_image_classes(field, args.n)
    out.record(
        {"record": "h2", "classes": count, "representatives": [r.ser() for r in reps]},
        lambda: f"{count} classes; representatives: " + ", ".join(str(r) for r in reps),
    )
    return 0


def cmd_search(args, out: Emitter) -> int:
    ctx = ctx_header(args, out, galois=args.galois, budget=args.budget)
    records = search_lcd(
        ctx,
        k=args.galois,
        distances=not args.no_distances,
        budget=args.budget,
        table=load_table(args),
        min_dim=args.min_dim,
    )
    uncertified = 0
    for rec in records:
        d = rec.d if rec.d is not None else "?"
        if rec.d is None and rec.d_lower is not None:
            uncertified += 1
            d = f"{rec.d_lower}..{rec.d_upper if rec.d_upper is not None else '?'}"
        out.record(
            {"record": "code-record", **rec.to_dict()},
            lambda: f"mask {rec.subset_mask:>4}: [{rec.n},{rec.k},{d}] verdict={rec.verdict} "
            f"e = {rec.idempotent}",
        )
    if uncertified:
        print(f"error: distance budget exhausted on {uncertified} record(s)", file=sys.stderr)
    return 1 if uncertified else 0


def cmd_verify_examples(args, out: Emitter) -> int:
    out.header(budget=args.budget)
    names = args.example if args.example else None
    report = verify_reference_examples(names=names, budget=args.budget)
    for ex in report.examples:
        for c in ex.checks:
            out.record(
                {
                    "record": "check",
                    "example": ex.name,
                    "label": c.label,
                    "passed": c.passed,
                    "detail": c.detail,
                },
                lambda: f"[{'pass' if c.passed else 'FAIL'}] {ex.name}: {c.label}"
                + (f" ({c.detail})" if c.detail else ""),
            )
        out.record(
            {"record": "example-summary", "example": ex.name, "passed": ex.passed},
            lambda: f"{'PASS' if ex.passed else 'FAIL'}  {ex.name}",
        )
    out.record(
        {"record": "summary", "passed": report.passed},
        lambda: f"overall: {'PASS' if report.passed else 'FAIL'}",
    )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def _add_field_opts(p: argparse.ArgumentParser):
    p.add_argument("-q", type=int, required=True, help="field order (prime power)")
    p.add_argument("--modulus", help="comma-separated modulus coefficients, low degree first")
    p.add_argument("--seed", type=int, default=0, help="picks GF(p^m)'s modulus if no --modulus")
    p.add_argument("--format", choices=("table", "json"), default="table")


def _add_ctx_opts(p: argparse.ArgumentParser):
    _add_field_opts(p)
    p.add_argument("-n", type=int, required=True, help="group order / code length")
    p.add_argument("--lam", required=True, help="wrap unit: integer or coordinate list")


def _add_element_opts(p: argparse.ArgumentParser):
    p.add_argument("--idempotent", help="coefficient sequence of the generating element")
    p.add_argument("--genpoly", help="generator polynomial coefficients")
    p.add_argument("--mask", type=int, help="subset mask over the primitive idempotents")


def _budget(text: str) -> int:
    """A --budget value: a whole number of messages, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_budget_opt(p: argparse.ArgumentParser):
    p.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="messages a distance search may cover (default %(default)s); each message it "
        "compares covers its q - 1 nonzero multiples, which share its weight. When the "
        "budget runs out, the bounds found so far are reported and the exit status is 1",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every main call."""
    ap = argparse.ArgumentParser(
        prog="twistcodes",
        description="constacyclic codes as ideals of twisted group algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="irreducible factors of x^n - lam")
    _add_ctx_opts(p)
    p.set_defaults(run=cmd_factor)

    p = sub.add_parser("idempotents", help="primitive idempotents of the quotient")
    _add_ctx_opts(p)
    p.set_defaults(run=cmd_idempotents)

    p = sub.add_parser("code", help="the ideal generated by an element")
    _add_ctx_opts(p)
    _add_element_opts(p)
    p.set_defaults(run=cmd_code)

    p = sub.add_parser("dual", help="k-Galois dual of an ideal")
    _add_ctx_opts(p)
    _add_element_opts(p)
    p.add_argument("--galois", type=int, default=0, metavar="K")
    p.set_defaults(run=cmd_dual)

    p = sub.add_parser("distance", help="certified minimum distance")
    _add_ctx_opts(p)
    _add_element_opts(p)
    _add_budget_opt(p)
    p.add_argument(
        "--method",
        choices=("auto", "exhaustive", "info-set"),
        default="auto",
        help="exhaustive covers all q^k messages, info-set those of one information set by "
        "increasing weight; auto (the default) is exhaustive iff q^k <= 10^7",
    )
    p.set_defaults(run=cmd_distance)

    p = sub.add_parser("lcd-check", help="both LCD criteria and their agreement")
    _add_ctx_opts(p)
    _add_element_opts(p)
    p.add_argument("--galois", type=int, default=0, metavar="K")
    p.set_defaults(run=cmd_lcd_check)

    p = sub.add_parser("equiv", help="equivalence witness between two wrap units")
    _add_field_opts(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("h2", help="norm-map cosets: count and representatives")
    _add_field_opts(p)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(run=cmd_h2)

    p = sub.add_parser("search", help="enumerate LCD ideals, best first")
    _add_ctx_opts(p)
    p.add_argument("--galois", type=int, default=0, metavar="K")
    _add_budget_opt(p)
    p.add_argument("--table", help=f"best-known table path (default ${ENV_TABLE} or bundled)")
    p.add_argument("--no-distances", action="store_true")
    p.add_argument("--min-dim", type=int, default=0)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("verify-examples", help="re-derive the bundled reference examples")
    p.add_argument("--seed", type=int, default=0, help="only echoed: every example is over GF(p)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_budget_opt(p)
    p.add_argument(
        "--example",
        action="append",
        help="restrict to examples whose name contains this substring (repeatable)",
    )
    p.set_defaults(run=cmd_verify_examples)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Emitter(args)
    try:
        rc = args.run(args, out)
    except (Error, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in out.lines:
        print(line)
    return rc


def console_main():
    try:
        rc = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`); send the unflushed
        # rest to devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    console_main()
