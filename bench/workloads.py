"""The benchmark's workloads: the CLI invocations each one makes, and the
checks on their output that hold at every seed.

An op is one ``twistcodes`` command line.  Ops are generated from
integers alone, so the seed only reaches the program through ``--seed``,
where it moves the Cantor-Zassenhaus splitting and the choice of the
modulus of each extension field.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Op:
    key: str  # the command line without --seed; names the op in the pins
    argv: tuple[str, ...]
    group: str  # ops whose outputs are checked together

    def with_seed(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


# (check group, message) per failed check
Errors = list[tuple[str, str]]


def _op(argv: list[str], group: str = "") -> Op:
    return Op(" ".join(argv), tuple(argv), group or " ".join(argv))


# -- certify ------------------------------------------------------------------

# The published [n,k,d] pairs of the four bundled examples, keyed by the
# --example substring that selects each one.
PUBLISHED = {
    "GF(3), n=10": {(10, 8, 2), (10, 2, 5)},
    "GF(5), n=9": {(9, 7, 2), (9, 2, 6)},
    "GF(5), n=21": {(21, 6, 12), (21, 15, 3)},
    "GF(7), n=19": {(19, 7, 10), (19, 12, 6)},
}

_CERT = re.compile(r"^\[(\d+),(\d+),(\d+)\] via ([\w-]+), work (\d+)$")


def certify_ops() -> list[Op]:
    return [
        _op(["verify-examples", "--example", name, "--format", "json"]) for name in PUBLISHED
    ]


def check_certify(ops: list[Op], outputs: list[str], counters: Counter) -> Errors:
    """Every check passes and the certified [n,k,d] are the published ones."""
    errors = []
    for op, out in zip(ops, outputs):
        name = op.argv[2]
        recs = [json.loads(line) for line in out.splitlines()[1:]]
        got = set()
        for r in recs:
            if r["record"] == "check" and not r["passed"]:
                errors.append((op.group, f"check failed: {r['label']} {r['detail']}"))
            m = _CERT.match(r.get("detail", "")) if r["record"] == "check" else None
            if m:
                n, k, d, method, work = m.groups()
                got.add((int(n), int(k), int(d)))
                counters[f"certify.{method.replace('-', '')}_messages"] += int(work)
        if not recs or recs[-1] != {"record": "summary", "passed": True}:
            errors.append((op.group, "summary missing or failed"))
        want = PUBLISHED[name]
        if got != want:
            errors.append((op.group, f"certified {sorted(got)}, published {sorted(want)}"))
    return errors


# -- lattice ------------------------------------------------------------------

MATRIX_QS = (2, 3, 4, 5, 7, 9)
MATRIX_MAX_N = 15


def _prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


def _lam_arg(i: int, p: int, m: int) -> str:
    """The unit of index i, as the CLI takes it: base-p coordinates."""
    if m == 1:
        return str(i)
    return ",".join(str(i // p**j % p) for j in range(m))


def lattice_ops() -> list[Op]:
    """One LCD search per context and Galois k of the acceptance matrix."""
    ops = []
    for q in MATRIX_QS:
        p, m = _prime_power(q)
        for n in range(1, MATRIX_MAX_N + 1):
            if gcd(n, p) != 1:
                continue
            for i in range(1, q):
                for k in range(m):
                    argv = ["search", "-q", str(q), "-n", str(n), "--lam", _lam_arg(i, p, m),
                            "--galois", str(k), "--no-distances", "--format", "json"]
                    ops.append(_op(argv, group=f"{q},{n},{k}"))
    return ops


def lattice_summary(ops: list[Op], outputs: list[str]) -> dict[str, list[int]]:
    """Per (q,n,k): the sorted dimensions of the LCD ideals over all units.

    A change of modulus permutes the units and commutes with Frobenius, so
    this multiset does not depend on the seed.
    """
    dims = defaultdict(list)
    for op, out in zip(ops, outputs):
        for line in out.splitlines()[1:]:
            dims[op.group].append(json.loads(line)["k"])
    return {g: sorted(ds) for g, ds in dims.items()}


def check_lattice(
    ops: list[Op], outputs: list[str], counters: Counter, pinned: dict[str, list[int]]
) -> Errors:
    errors = []
    got = lattice_summary(ops, outputs)
    for group in {op.group for op in ops}:
        if got.get(group, []) != pinned.get(group):
            errors.append((group, f"LCD dimensions {got.get(group)} != {pinned.get(group)}"))
    counters["lattice.records"] += sum(len(ds) for ds in got.values())
    return errors


# -- factor -------------------------------------------------------------------

# Large-n contexts; (7, 255), at about 12 s alone, would outweigh the rest.
FACTOR_CONTEXTS = (
    (2, 255), (2, 127), (4, 85), (3, 121), (5, 124), (8, 63),
    (9, 80), (49, 48), (64, 63), (128, 127), (256, 255),
)


def factor_ops() -> list[Op]:
    return [
        _op(["idempotents", "-q", str(q), "-n", str(n), "--lam", "1", "--format", "json"])
        for q, n in FACTOR_CONTEXTS
    ]


def cyclotomic_cosets(q: int, n: int) -> int:
    """Number of orbits of s -> q*s on Z/n: the factor count of x^n - 1."""
    seen = set()
    count = 0
    for s in range(n):
        if s not in seen:
            count += 1
            while s not in seen:
                seen.add(s)
                s = s * q % n
    return count


def check_factor(ops: list[Op], outputs: list[str], counters: Counter) -> Errors:
    errors = []
    for op, out in zip(ops, outputs):
        q, n = int(op.argv[2]), int(op.argv[4])
        recs = [json.loads(line) for line in out.splitlines()[1:]]
        want = cyclotomic_cosets(q, n)
        if [r["index"] for r in recs] != list(range(want)):
            errors.append((op.group, f"{len(recs)} idempotents, {want} cyclotomic cosets"))
        if any(len(r["coeffs"]) != n for r in recs):
            errors.append((op.group, "idempotent of the wrong length"))
        counters["factor.idempotents"] += len(recs)
    return errors


WORKLOADS = {
    "certify": certify_ops,
    "lattice": lattice_ops,
    "factor": factor_ops,
}

# The fast mode: a few cheap ops of each workload, in whole check groups.
SMOKE = {
    "certify": lambda op: op.argv[2] in ("GF(3), n=10", "GF(5), n=9"),
    "lattice": lambda op: op.argv[2] in ("2", "3"),
    "factor": lambda op: (op.argv[2], op.argv[4]) in (("2", "127"), ("8", "63")),
}


def make_ops(workload: str, smoke: bool = False) -> list[Op]:
    ops = WORKLOADS[workload]()
    if smoke:
        ops = [op for op in ops if SMOKE[workload](op)]
    return ops


def check(
    workload: str, ops: list[Op], outputs: list[str], counters: Counter, pins: dict
) -> Errors:
    """Seed-independent checks of one pass's outputs.

    Returns the failed check groups with their errors, and adds the work
    counters read from the output to `counters`."""
    if workload == "certify":
        return check_certify(ops, outputs, counters)
    if workload == "lattice":
        return check_lattice(ops, outputs, counters, pins.get("lattice_lcd_dims", {}))
    return check_factor(ops, outputs, counters)
