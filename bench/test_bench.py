"""Tests of the benchmark itself: the smoke mode end to end, counter
repeatability, the tracing wrappers, and failure without the program.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import cyclotomic_cosets, make_ops  # noqa: E402


def bench(workload, trace, seed=0, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced(workload):
    res = bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_counters_repeat(workload):
    first, second = bench(workload, 1, seed=3), bench(workload, 1, seed=3)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert 0.9 < res["metrics"]["trace.coverage"]["value"] <= 1.0
    for name in run.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_no_program_fails_without_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cyclotomic_cosets_match_known_factor_counts():
    # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over GF(2); x^n - 1
    # splits into linear factors when n divides q - 1.
    assert cyclotomic_cosets(2, 7) == 3
    assert cyclotomic_cosets(3, 8) == 5
    assert cyclotomic_cosets(256, 255) == 255
    assert cyclotomic_cosets(5, 1) == 1


def test_workload_sizes():
    assert [len(make_ops(w)) for w in ("certify", "lattice", "factor")] == [4, 362, 11]


def test_tracing_rebinds_imported_names_and_uninstalls():
    import twistcodes.cli
    import twistcodes.codes
    import twistcodes.discover

    original = twistcodes.codes.min_distance
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        wrapped = twistcodes.codes.min_distance
        assert wrapped is not original
        assert twistcodes.discover.min_distance is wrapped
        assert twistcodes.cli.min_distance is wrapped
        # a generator's span covers its iteration, not its creation
        ctx = twistcodes.discover.AlgebraCtx(twistcodes.discover.GF(2), 7, 1)
        it = twistcodes.discover.iter_ideal_codes(ctx)
        assert tracer.self_s["discover.iter_ideal_codes"] == 0.0
        assert sum(1 for _ in it) == 8
        assert tracer.counts["discover.iter_ideal_codes.items"] == 8
        assert tracer.calls["codes.ideal_from_element"] == 8
        assert tracer.self_s["discover.iter_ideal_codes"] > 0.0
    finally:
        uninstall()
    assert twistcodes.codes.min_distance is original
    assert twistcodes.discover.min_distance is original
