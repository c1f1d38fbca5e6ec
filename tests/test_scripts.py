"""The scripts in ``scripts/``, and the benchmark's layer probes, load against the current package."""

import contextlib
import importlib.util
import io
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

from klpricer import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_regenerate_golden_imports():
    # loaded under a name other than __main__, the script imports the
    # package and defines main() without running the 10^7-path reference;
    # a subprocess keeps its thread settings and sys.path out of this one
    code = (
        "import runpy, sys; "
        "ns = runpy.run_path(sys.argv[1], run_name='check'); "
        "print(callable(ns['main']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts" / "regenerate_golden.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_bench_writes_finite_rows(monkeypatch, tmp_path):
    # every pinned row with its path and draw counts shrunk to 1/1000 (at
    # least 2): the schema, and finite numbers only
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds src/ to it
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    tiny = {
        name: (method, T, {k: max(2, v // 1000) if k in ("n_paths", "M0", "M1") else v
                           for k, v in sizes.items()})
        for name, (method, T, sizes) in bench.WORKLOADS.items()
    }
    monkeypatch.setattr(bench, "WORKLOADS", tiny)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"generator", "env", "rows"}
    assert set(report["env"]) == {"python", "numpy", "nproc", "usable_cores", "cpu",
                                  "blas_threads", "flat_threads"}
    # the shrunk bulk row is one block of 1,048 paths: one thread
    assert report["env"]["flat_threads"] == 1
    assert list(report["rows"]) == [
        "bulk", "sweep-1000", "sweep-2000", "sweep-4000", "sweep-8000", "sweep-16000",
        "subsample", "subsample-T1048576", "nested", "nested-T1048576",
        "geometric-cf", "qsim-check",
    ]
    numbers = []
    for row in report["rows"].values():
        assert set(row) == {"method", "T", "sizes", "seed", "repeats", "wall_s", "value",
                            "std_error", "se2_x_s", "n_outer", "n_inner", "diagnostics"}
        assert row["repeats"] == bench.REPEATS
        assert row["wall_s"]["min"] <= row["wall_s"]["median"] <= row["wall_s"]["max"]
        assert row["se2_x_s"] == row["std_error"] ** 2 * row["wall_s"]["median"]
        numbers += [*row["wall_s"].values(), row["value"], row["std_error"], row["se2_x_s"],
                    *row["diagnostics"].values()]
    assert numbers and all(math.isfinite(x) for x in numbers)
    assert report["rows"]["nested"]["diagnostics"]["tabulated_draws"] == 2
    assert report["rows"]["nested-T1048576"]["diagnostics"]["tabulated_draws"] == 0
    assert report["rows"]["subsample-T1048576"]["diagnostics"]["grid_points"] == 400
    # the start-up rows, each call a fresh process: the closed form and the
    # statevector check, which draw nothing
    assert report["rows"]["geometric-cf"]["value"] == pytest.approx(5.9086002672545845, rel=1e-12)
    assert [(row["std_error"], row["diagnostics"]) for name, row in report["rows"].items()
            if name in ("geometric-cf", "qsim-check")] == [(0.0, {}), (0.0, {})]


@pytest.mark.parametrize("argv", [
    ("--method", "baseline", "--T", "64", "--paths", "4096"),
    ("--method", "baseline", "--paths", "1000"),
    ("--method", "subsample", "--epsilon", "0.05", "--paths", "2048"),
    ("--method", "kl-nested", "--epsilon", "0.1", "--m0", "40", "--m1", "40"),
    ("--method", "kl-nested", "--epsilon", "0.2", "--m0", "20", "--m1", "20", "--inner", "uniform"),
    ("--method", "kl-nested", "--epsilon", "0.1", "--m0", "40", "--m1", "40", "--T", str(1 << 20)),
], ids=["bulk", "sweep", "subsample", "nested", "nested-uniform", "nested-T1048576"])
def test_traced_requests_print_the_untraced_json(argv):
    # the benchmark's --trace 1 mode runs small versions of its workloads
    # through cli.main inside perfbench/tracing.py's traced(), loaded here
    # as the benchmark loads it: its wrappers must change nothing a request
    # prints but wall_time_ms, and the price wrapper must have run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def printed():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["price", *argv, "--seed", "7"]) == 0
        return re.sub(r'"wall_time_ms": [^,}]+', "", out.getvalue())

    plain = printed()
    with tracing.traced(tracing.Tracer()) as tracer:
        traced = printed()
    assert traced == plain
    assert tracer.ms["pricing.price"] > 0.0
