"""Self-test of the benchmark's probes and gate.

Run from the repository root with ``python3 -m pytest perfbench``.  Small
requests keep it quick; they go through the same probes as a full run.
"""

import json
import math
import re
from pathlib import Path

import pytest

import run
from tracing import Tracer, traced

SMALL = [
    ["price", "--method", "baseline", "--paths", "3000", "--seed", "5"],
    ["price", "--method", "subsample", "--epsilon", "0.2", "--paths", "3000", "--seed", "5"],
    ["price", "--method", "kl-nested", "--epsilon", "0.3", "--m0", "20", "--m1", "40",
     "--seed", "5"],
    ["price", "--method", "kl-nested", "--epsilon", "0.3", "--m0", "20", "--m1", "40",
     "--inner", "uniform", "--seed", "5"],
]
ANYWHERE = (-math.inf, math.inf, 0.0)
WALL_TIME = re.compile(r'"wall_time_ms": [^,}]+')
HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def ctx():
    return run.setup()


def issue_small(ctx, tracer=None):
    return [run.issue(ctx, argv, ANYWHERE, tracer) for argv in SMALL]


def test_traced_output_matches_untraced(ctx):
    plain = issue_small(ctx)
    with traced(Tracer()) as tracer:
        probed = issue_small(ctx, tracer)
    for a, b in zip(plain, probed):
        assert a.error is None and b.error is None
        assert WALL_TIME.sub("", a.stdout) == WALL_TIME.sub("", b.stdout)


def test_probes_are_removed_on_exit(ctx):
    from klpricer import pricing, process

    before = {**vars(pricing), **{f"process.{k}": v for k, v in vars(process).items()}}
    with traced(Tracer()):
        assert pricing.price_baseline is not before["price_baseline"]
    after = {**vars(pricing), **{f"process.{k}": v for k, v in vars(process).items()}}
    assert after == before


def test_traced_counts_repeat_exactly(ctx):
    runs = []
    for _ in range(2):
        with traced(Tracer()) as tracer:
            runs.append([r.trace["counts"] for r in issue_small(ctx, tracer)])
    assert runs[0] == runs[1]
    baseline, subsample, nested, uniform = runs[0]
    assert baseline["normals_drawn"] == 65536 * 64
    assert baseline["normals_used"] == 3000 * 64
    assert subsample["normals_used"] == 3000 * 25
    assert nested["accepted"] == 20 * 40
    assert nested["proposals"] <= nested["sampler_points"]
    assert uniform["uniforms_drawn"] == 20 * 40
    assert all(c["clipped"] == 0 for c in (nested, uniform))


@pytest.mark.parametrize("code, stdout, reason", [
    (1, "", "exit code 1"),
    (0, '{"value": NaN, "std_error": 0.1}', "not strict JSON"),
    (0, '{"value": 6.1, "std_error": 0.0}', "not positive"),
    (0, '[6.1, 0.1]', "not a JSON object"),
    (0, '{"value": "6.1", "std_error": 0.1}', "not a finite number"),
    (0, '{"value": 7.0, "std_error": 0.1}', "SE outside"),
])
def test_gate_rejects(code, stdout, reason):
    req = run.Request(["price"], (6.0, 6.1, 0.0), stdout=stdout)
    assert reason in run.check(req, code, "")


def test_gate_accepts_within_five_se():
    req = run.Request(["price"], (6.0, 6.1, 0.0), stdout='{"value": 6.5, "std_error": 0.1}')
    assert run.check(req, 0, "") is None
    assert req.z == pytest.approx(4.0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(ctx, monkeypatch, trace, section):
    tiny = run.Workload("golden", 1, (tuple(SMALL[0][:-2]),))
    monkeypatch.setitem(run.WORKLOADS, "tiny", tiny)
    result = run.measure(ctx, "tiny", 1, 0.0, trace, setup_probes=1)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    if trace:
        design = json.loads((HERE / "design.json").read_text())["per_layer"]
        assert list(design) == [m["name"] for m in declared]
