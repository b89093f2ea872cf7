"""twistcodes benchmark: time whole CLI invocations, check every output.

    python3 bench/run.py --workload certify|lattice|factor --seed N \
        --seconds S --trace 0|1 [--smoke]

Each op is one in-process call to ``twistcodes.cli.main(argv)`` with
stdout captured, so argument parsing and output formatting are timed
with the library.  The workload runs in whole passes over its ops, in
one single-threaded process, for about ``--seconds`` (at least one
pass).  The last line of stdout is the result as JSON; see README.md
for every metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with spans around every public function of
the six layers, and reports the per-layer metrics.  ``--smoke`` runs a
few cheap ops per workload with every check on.  ``--write-pins`` (seed
0 only) re-records the pinned outputs after a deliberate change of the
CLI's output.
"""

from time import perf_counter

_START = perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Op, check, lattice_summary, make_ops  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PINS = BENCH_DIR / "pins.json"
PIN_SEED = 0
SETUP_PROBES = 7


class SetupError(Exception):
    pass


def setup(workload: str, smoke: bool):
    """Import the program from the checkout's source and generate the ops."""
    if not (SRC / "twistcodes" / "cli.py").is_file():
        raise SetupError(f"no twistcodes source under {SRC}")
    sys.path.insert(0, str(SRC))
    import twistcodes.cli

    if Path(twistcodes.cli.__file__).resolve().parent != SRC / "twistcodes":
        raise SetupError(f"imported twistcodes from {twistcodes.cli.__file__}, not {SRC}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    return twistcodes.cli, make_ops(workload, smoke), pins


def probe_setup(args) -> float:
    """Set-up time of a fresh process, measured inside it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


@dataclass
class Pass:
    wall: float = 0.0
    times: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    bytes_out: int = 0
    outputs: Optional[list[str]] = None  # kept for the pass that gets the full checks
    trace: dict = field(default_factory=dict)


def run_op(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op; keep going
        code = f"raised {exc!r}"
    elapsed = perf_counter() - start
    problem = None if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
    return elapsed, out.getvalue(), problem


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, ops: list[Op], seed: int, keep_outputs: bool = False) -> Pass:
    p = Pass(outputs=[] if keep_outputs else None)
    start = perf_counter()
    for op in ops:
        elapsed, out, problem = run_op(cli, op.with_seed(seed))
        p.times.append(elapsed)
        p.digests.append(digest(out))
        p.bytes_out += len(out.encode())
        p.ok.append(problem is None)
        if problem:
            p.problems.append(f"{op.key}: {problem}")
        if keep_outputs:
            p.outputs.append(out)
    p.wall = perf_counter() - start
    return p


def run_passes(cli, ops, seed: int, seconds: float, tracer=None, keep_first=False) -> list[Pass]:
    """Whole passes, at least one, for about `seconds`: another pass starts
    only if it is expected to end closer to `seconds` than stopping now."""
    passes = []
    start = perf_counter()
    while not passes or (
        perf_counter() - start + statistics.median(p.wall for p in passes) / 2 < seconds
    ):
        if tracer is not None:
            tracer.reset()
        p = run_pass(cli, ops, seed, keep_outputs=keep_first and not passes)
        if tracer is not None:
            p.trace = layer_metrics(tracer, p)
        passes.append(p)
    return passes


def check_passes(workload, ops, passes, seed, pins, counters: Counter) -> list[str]:
    """Marks failed ops in each pass; returns every problem found.

    The first pass gets the seed-independent checks (and, at the pinned
    seed, the byte-identical output pins); every later pass, traced or
    not, must reproduce the first pass's output byte for byte.
    """
    first = passes[0]
    failed_groups = {}
    for group, msg in check(workload, ops, first.outputs, counters, pins):
        failed_groups.setdefault(group, msg)
    if seed == PIN_SEED:
        for op, d in zip(ops, first.digests):
            if pins.get("digests", {}).get(op.key) != d:
                failed_groups.setdefault(op.group, f"{op.key}: output differs from the pin")
    first.outputs = None
    for i, op in enumerate(ops):
        if op.group in failed_groups:
            first.ok[i] = False
    first.problems.extend(f"check {g}: {m}" for g, m in failed_groups.items())
    for p in passes[1:]:
        for i, d in enumerate(p.digests):
            if d != first.digests[i]:
                p.ok[i] = False
                p.problems.append(f"{ops[i].key}: output differs from the first pass")
    return [msg for p in passes for msg in p.problems]


# -- metrics ------------------------------------------------------------------

# Named per-layer times are the self time of one span; <layer>.self_s sums
# every span of the layer.
SPAN_TIMES = {
    "gf.build_s": "gf.build",
    "poly.factor_s": "poly.factor_xn_minus_lambda",
    "poly.idempotents_s": "poly.primitive_idempotents",
    "talg.elem_mul_s": "talg.elem_mul",
    "talg.involution_s": "talg.involution_star",
    "codes.ideal_s": "codes.ideal_from_element",
    "codes.dual_s": "codes.dual",
    "codes.intersection_s": "codes.intersection_dim",
    "codes.idem_lcd_s": "codes.check_idempotent_lcd",
    "codes.distance_s": "codes.min_distance",
    "codes.distance.exhaustive_s": "codes.distance.exhaustive",
    "codes.distance.infoset_s": "codes.distance.infoset",
}
SPAN_CALLS = {
    "gf.builds": "gf.build",
    "poly.factor_calls": "poly.factor_xn_minus_lambda",
    "talg.elem_mul_calls": "talg.elem_mul",
    "codes.ideals": "codes.ideal_from_element",
    "codes.duals": "codes.dual",
    "codes.intersections": "codes.intersection_dim",
    "codes.distance_calls": "codes.min_distance",
}
SPAN_COUNTS = {
    "poly.factors": "poly.factors",
    "codes.distance.exhaustive_messages": "codes.distance.exhaustive_messages",
    "codes.distance.infoset_messages": "codes.distance.infoset_messages",
    "discover.ideals_visited": "discover.iter_ideal_codes.items",
    "discover.records": "discover.records",
}
# Work counters: these must repeat exactly from pass to pass and run to run.
COUNTERS = (*SPAN_CALLS, *SPAN_COUNTS, "cli.bytes_out")


def layer_metrics(tracer, p: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {name: tracer.self_s.get(span, 0.0) for name, span in SPAN_TIMES.items()}
    m.update({name: tracer.calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    m.update({name: tracer.counts.get(key, 0) for name, key in SPAN_COUNTS.items()})
    # codes.distance.<method> re-attributes min_distance's self time, so the
    # layer sums skip it.
    spans = {s: t for s, t in tracer.self_s.items() if not s.startswith("codes.distance.")}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in spans.items() if s.startswith(layer + "."))
    dist_s = m["codes.distance.exhaustive_s"] + m["codes.distance.infoset_s"]
    messages = m["codes.distance.exhaustive_messages"] + m["codes.distance.infoset_messages"]
    m["codes.distance.messages_per_s"] = messages / dist_s if dist_s else 0.0
    ideals = m["codes.ideals"]
    m["discover.lcd_yield"] = m["discover.records"] / ideals if ideals else 0.0
    m["cli.bytes_out"] = p.bytes_out
    m["trace.coverage"] = sum(spans.values()) / p.wall
    return m


UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"))
RATIOS = ("trace.coverage", "discover.lcd_yield")


def unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def over_passes(passes: list[Pass], stat) -> float:
    """A statistic of each pass, then the median over the passes."""
    return statistics.median(stat(p) for p in passes)


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict:
    return {
        "wall_s": over_passes(passes, lambda p: p.wall),
        "op_p90_ms": 1000 * over_passes(passes, lambda p: percentile(p.times, 90)),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    errors = []
    first = traced[0].trace
    for p in traced[1:]:
        for name in COUNTERS:
            if p.trace[name] != first[name]:
                errors.append(f"counter {name} changed: {first[name]}, then {p.trace[name]}")
    m = {
        name: first[name] if name in COUNTERS else statistics.median(p.trace[name] for p in traced)
        for name in first
    }
    m["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    return m, errors


# -- main ---------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="a few cheap ops, every check on")
    ap.add_argument("--write-pins", action="store_true", help="re-record the seed-0 output pins")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def write_pins(cli, workload: str, ops: list[Op], pins: dict) -> int:
    p = run_pass(cli, ops, PIN_SEED, keep_outputs=True)
    if p.problems:
        print("\n".join(p.problems), file=sys.stderr)
        return 1
    pins.setdefault("digests", {}).update(
        {op.key: d for op, d in zip(ops, p.digests)}
    )
    if workload == "lattice":
        pins.setdefault("lattice_lcd_dims", {}).update(lattice_summary(ops, p.outputs))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} {workload} ops in {PINS.name}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_pins and args.seed != PIN_SEED:
        print(f"error: pins are recorded at seed {PIN_SEED}", file=sys.stderr)
        return 2
    try:
        cli, ops, pins = setup(args.workload, args.smoke)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(perf_counter() - _START)
        return 0
    if args.write_pins:
        return write_pins(cli, args.workload, ops, pins)

    counters: Counter = Counter()
    if args.trace == 0:
        setup_samples = [perf_counter() - _START]
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES - 1)]
        passes = run_passes(cli, ops, args.seed, args.seconds, keep_first=True)
        errors = check_passes(args.workload, ops, passes, args.seed, pins, counters)
        metrics = end_to_end(passes, setup_samples)
        # Informational only: on certify it falls between two short examples
        # and swings more from run to run than any bound allows.
        extra = {"op_p50_ms": 1000 * over_passes(passes, lambda p: percentile(p.times, 50))}
    else:
        untraced = run_passes(cli, ops, args.seed, args.seconds / 2, keep_first=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_passes(cli, ops, args.seed, args.seconds / 2, tracer)
        passes = untraced + traced
        errors = check_passes(args.workload, ops, passes, args.seed, pins, counters)
        metrics, counter_errors = per_layer(untraced, traced)
        errors += counter_errors
        extra = {}

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    for msg in errors[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "passes": len(passes),
        "error_rate": failed / attempted,
        "counters": dict(sorted(counters.items())),
        **extra,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
