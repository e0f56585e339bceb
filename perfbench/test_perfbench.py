"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in the result line of both run modes, and that the correctness
gate counts a failure when a reference value is perturbed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines), m["name"]


@pytest.fixture(scope="module")
def bench():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    import workloads
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    yield run, workloads, reference
    del sys.path[:2]


def _perturbed(reference, workload):
    ref = copy.deepcopy(reference[workload])
    if workload == "param_sweep":
        for scheme in ("imex_linear", "imex_linearized"):
            ref[scheme] = [None if v is None else v + 1e-6 for v in ref[scheme]]
    else:
        for level in ref.values():
            for scheme in level:
                level[scheme] += 1e-6
    return ref


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_counts_a_failure(bench, workload):
    run, workloads, reference = bench
    w = workloads.WORKLOADS[workload]
    items = w.inputs(1, "tiny")
    good, bad = run.Measurement(), run.Measurement()
    run.run_cycle(good, w, items, reference[workload], w.run)
    assert good.counts["check_mismatch"] == 0
    run.run_cycle(bad, w, items, _perturbed(reference, workload), w.run)
    assert bad.counts["check_mismatch"] > 0
    assert bad.failed > good.failed


def test_param_sweep_keeps_the_raw_overflow_failures_visible(bench):
    run, workloads, reference = bench
    w = workloads.WORKLOADS["param_sweep"]
    m = run.Measurement()
    run.run_cycle(m, w, w.inputs(1, "tiny"), reference["param_sweep"], w.run)
    expected = sum(v is None for v in reference["param_sweep"]["imex_linear"][:12])
    assert expected > 0
    assert m.counts["raw_exception"] + m.counts["liqshock_error"] == expected
    assert m.counts["breakdown"] == expected
    assert m.failed == 0
    assert m.counts["ok"] == m.attempted - expected


def test_only_the_documented_breakdown_is_not_a_failure(bench):
    from liqshock.errors import SolveFailure, ValidationError
    run, workloads, reference = bench
    ref = reference["param_sweep"]
    w = workloads.WORKLOADS["param_sweep"]
    raised = ref["imex_linear"].index(None)
    returned = ref["imex_linear"].index(next(v for v in ref["imex_linear"]
                                             if v is not None))

    def item(k, seed=1):
        return ("imex_linear", k, None, None, seed)

    assert w.breakdown(item(raised), OverflowError(), ref)
    assert w.breakdown(item(raised), SolveFailure(3, "overflow"), ref)
    assert w.breakdown(item(returned, seed=2), OverflowError(), ref)
    assert not w.breakdown(item(returned), OverflowError(), ref)
    assert not w.breakdown(item(raised), ValidationError("x"), ref)
    assert not w.breakdown(item(raised), ZeroDivisionError(), ref)
    ladder = workloads.WORKLOADS["richardson_ladder"]
    assert not ladder.breakdown(("imex_linear", [40]), OverflowError(),
                                reference["richardson_ladder"])


def test_absent_layer_function_is_reported_not_fatal(bench, monkeypatch):
    import liqshock.schemes
    import spans
    monkeypatch.delattr(liqshock.schemes, "check_m_matrix")
    tracer = spans.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.absent == ["liqshock.schemes.check_m_matrix"]
    metrics = spans.layer_metrics(tracer)
    assert metrics["tridiag.check_m_matrix.calls"] == (0.0, "count/op")


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text(
        (BENCH_DIR / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
