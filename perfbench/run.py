#!/usr/bin/env python3
"""Benchmark of the klpricer pricing engine.

Run from the repository root:

    python3 perfbench/run.py --workload {bulk,sweep,subsample,nested,all} \\
        --seed N --seconds S --trace {0,1}

A workload is a fixed pass of ``klpricer price`` requests, each sent through
the public entry point ``klpricer.cli.main`` in this process with its stdout
captured.  Request seeds derive from --seed.  Passes repeat, closed loop and
single-threaded, until --seconds have elapsed and the workload's minimum pass
count is reached.  Every request is checked against an oracle.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each pass twice,
untraced and then with the layer probes of ``tracing.py`` attached, and
reports the per-layer metrics; ``design.json`` says which end-to-end metric
each should move, and where it must not.  Metric lines and an environment
record come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the four workloads one after another, each in a child process of its
own so that each peak memory figure is its own.

The self-test runs with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os

# One thread everywhere: the benchmark measures the single-threaded engine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden.json"
SETUP_PROBES = 5
Z_LIMIT = 5.0


@dataclass(frozen=True)
class Workload:
    """A pass of requests (argv without --seed), its oracle and minimum passes.

    BENCHMARK.json records why each workload is in the set.
    """

    oracle: str
    min_passes: int
    requests: tuple


WORKLOADS = {
    "bulk": Workload(
        "golden", 3,
        (("price", "--method", "baseline", "--T", "64", "--paths", str(1 << 20)),),
    ),
    "sweep": Workload(
        "golden", 20,  # 20 passes of 5 give the >= 100 requests p90 needs
        tuple(("price", "--method", "baseline", "--paths", str(n))
              for n in (1000, 2000, 4000, 8000, 16000)),
    ),
    "subsample": Workload(
        "subsample", 3,
        (("price", "--method", "subsample", "--epsilon", "0.05", "--paths", str(1 << 17)),),
    ),
    "nested": Workload(
        "bracket", 3,
        (("price", "--method", "kl-nested", "--epsilon", "0.1", "--m0", "400", "--m1", "400"),),
    ),
}


class SetupError(RuntimeError):
    pass


@dataclass
class Context:
    """The imported entry point and the oracles, as (low, high, std_error)."""

    cli: object
    oracles: dict


def setup() -> Context:
    """Import klpricer from this checkout and load the oracles."""
    if not (SRC / "klpricer" / "__init__.py").is_file() or not GOLDEN.is_file():
        raise SetupError(f"no klpricer sources and tests/golden.json under {ROOT}")
    sys.path.insert(0, str(SRC))
    from klpricer import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported klpricer from {cli.__file__}, not from {SRC}")
    golden = json.loads(GOLDEN.read_text())
    return Context(cli, load_oracles(golden))


def load_oracles(golden: dict) -> dict:
    """Golden flat values, and the AM-GM bracket for the nested estimator.

    The arithmetic average A dominates the geometric average G, so the
    arithmetic call lies in [C_G, C_G + E[A] - E[G]] on the same grid.
    """
    s0, mu, sigma = (golden["market"][k] for k in ("s0", "mu", "sigma"))
    t = np.arange(1, golden["monitoring_count"] + 1) / golden["monitoring_count"]
    mean_arith = float(np.mean(s0 * np.exp(mu * t)))
    log_mean = math.log(s0) + (mu - 0.5 * sigma**2) * t.mean()
    log_var = sigma**2 * np.minimum.outer(t, t).sum() / t.size**2
    mean_geo = math.exp(log_mean + 0.5 * log_var)
    cf = golden["geometric_closed_form"]
    return {
        "golden": (golden["value"], golden["value"], golden["std_error"]),
        "subsample": (golden["subsample_value"], golden["subsample_value"],
                      golden["subsample_std_error"]),
        "bracket": (cf, cf + mean_arith - mean_geo, 0.0),
    }


def measure_setup(n: int) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to price."""
    samples = []
    for _ in range(n):
        start = perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SetupError("set-up probe failed")
        samples.append(elapsed)
    return samples


@dataclass
class Request:
    argv: list
    oracle: tuple
    seconds: float = 0.0
    stdout: str = ""
    value: float = math.nan
    std_error: float = math.nan
    z: float = math.nan
    error: str | None = None
    trace: dict = field(default_factory=dict)


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def issue(ctx: Context, argv: list, oracle: tuple, tracer=None) -> Request:
    """Send one request through cli.main and check its output."""
    req = Request(argv, oracle)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.reset()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = ctx.cli.main(argv)
        req.seconds = perf_counter() - start
    if tracer is not None:
        req.trace = tracer.snapshot()
    req.stdout = out.getvalue()
    req.error = check(req, code, err.getvalue())
    return req


def check(req: Request, code: int, stderr: str) -> str | None:
    """The correctness gate; returns why the request failed, or None."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    try:
        result = json.loads(req.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(result, dict):
        return f"stdout is not a JSON object: {req.stdout.strip()!r}"
    value, se = result.get("value"), result.get("std_error")
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (value, se)):
        return f"value {value!r} or std_error {se!r} is not a finite number"
    req.value, req.std_error = float(value), float(se)
    if se <= 0:
        return f"std_error {se!r} is not positive"
    low, high, oracle_se = req.oracle
    req.z = max(low - value, value - high, 0.0) / math.hypot(se, oracle_se)
    if req.z > Z_LIMIT:
        return f"value {value!r} is {req.z:.2f} SE outside the oracle [{low!r}, {high!r}]"
    return None


def request_seed(seed: int, workload: str, pass_index: int, slot: int) -> int:
    key = (zlib.crc32(workload.encode()), pass_index, slot)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def run_pass(ctx, name, seed, index, tracer=None) -> tuple:
    """One pass of the workload's requests; returns (seconds, [Request])."""
    wl = WORKLOADS[name]
    start = perf_counter()
    reqs = [issue(ctx, [*argv, "--seed", str(request_seed(seed, name, index, slot))],
                  ctx.oracles[wl.oracle], tracer)
            for slot, argv in enumerate(wl.requests)]
    return perf_counter() - start, reqs


def run_passes(ctx, name, seed, seconds, tracer=None) -> tuple:
    """Run passes until `seconds` have elapsed and the minimum count is reached.

    With a tracer, each pass runs untraced and then again traced, so that
    slow drift of the machine cancels out of the tracing overhead.  Returns
    the untraced and the traced passes.
    """
    plain, probed = [], []
    start = perf_counter()
    while len(plain) < WORKLOADS[name].min_passes or perf_counter() - start < seconds:
        plain.append(run_pass(ctx, name, seed, len(plain)))
        if tracer is not None:
            with traced(tracer):
                probed.append(run_pass(ctx, name, seed, len(probed), tracer))
    return plain, probed


def _requests(passes):
    return [r for _, reqs in passes for r in reqs]


def end_to_end(passes, setup_samples) -> dict:
    reqs = _requests(passes)
    latency_ms = [r.seconds * 1e3 for r in reqs]
    cost = [r.std_error**2 * r.seconds for r in reqs if r.error is None]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(s for s, _ in passes), "s"),
        "request_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
        "request_ms_p90": (float(np.percentile(latency_ms, 90)), "ms"),
        "se2_x_s": (statistics.median(cost) if cost else 0.0, "price2.s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(plain, probed, gaps) -> dict:
    """Per-request medians of times and counts, ratios of totals over the run."""
    reqs = _requests(probed)

    def med(kind, key):
        return statistics.median(r.trace[kind].get(key, 0) for r in reqs)

    def total(key):
        return sum(r.trace["counts"].get(key, 0) for r in reqs)

    def ratio(num, den):
        return num / den if den else 0.0

    horner_ms = sum(r.trace["ms"].get("klcore.horner", 0.0) for r in reqs)
    return {
        "cli.overhead_ms": (statistics.median(
            r.seconds * 1e3 - r.trace["ms"].get("pricing.price", 0.0) for r in reqs), "ms"),
        "pricing.self_ms": (med("self_ms", "pricing.price"), "ms"),
        "pricing.inner_gap": (statistics.fmean(gaps) if gaps else 0.0, "price"),
        "process.stream_calls": (med("counts", "stream_calls"), "count"),
        "process.stream_ms": (med("ms", "process.stream"), "ms"),
        "process.normals_drawn": (med("counts", "normals_drawn"), "count"),
        "process.uniforms_drawn": (med("counts", "uniforms_drawn"), "count"),
        "process.rng_fill_ms": (med("ms", "process.rng_fill"), "ms"),
        "process.draw_efficiency": (ratio(total("normals_used"), total("normals_drawn")), "ratio"),
        "process.rejection_ms": (med("ms", "process.rejection"), "ms"),
        "process.proposals_per_accept": (ratio(total("proposals"), total("accepted")), "ratio"),
        "process.proposal_use": (ratio(total("proposals"), total("sampler_points")), "ratio"),
        "process.clipped": (total("clipped"), "count"),
        "klcore.truncation_ms": (med("ms", "klcore.truncation"), "ms"),
        "klcore.horner_points": (med("counts", "horner_points"), "count"),
        "klcore.horner_ms": (med("ms", "klcore.horner"), "ms"),
        "klcore.horner_ns_per_point_mode": (
            ratio(horner_ms * 1e6, total("horner_point_modes")), "ns"),
        "trace.overhead_s": (statistics.median(s for s, _ in probed)
                             - statistics.median(s for s, _ in plain), "s"),
    }


def inner_gaps(ctx, passes) -> tuple:
    """Acceptance minus uniform kl-nested value on the same seed (shared outer draws)."""
    gaps, companions = [], []
    for req in _requests(passes):
        if "kl-nested" in req.argv and req.error is None:
            uniform = issue(ctx, [*req.argv, "--inner", "uniform"], req.oracle)
            companions.append(uniform)
            if uniform.error is None:
                gaps.append(req.value - uniform.value)
    return gaps, companions


def environment(name, seed, n_requests) -> dict:
    import scipy

    cpu, llc = platform.processor(), None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                if key.strip() == "model name":
                    cpu = val.strip()
                elif key.strip() == "cache size":
                    llc = val.strip()
                if cpu and llc:
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "workload": name,
        "seed": seed,
        "requests": n_requests,
    }


def measure(ctx, name, seed, seconds, trace, setup_probes=SETUP_PROBES) -> dict:
    """One benchmark run of one workload; returns the result object."""
    if trace:
        plain, probed = run_passes(ctx, name, seed, seconds, Tracer())
        gaps, companions = inner_gaps(ctx, probed)
        reqs = _requests(plain) + _requests(probed) + companions
        metrics = per_layer(plain, probed, gaps)
    else:
        setup_samples = measure_setup(setup_probes)
        passes, _ = run_passes(ctx, name, seed, seconds)
        reqs = _requests(passes)
        metrics = end_to_end(passes, setup_samples)
    failed = [r for r in reqs if r.error is not None]
    for r in failed:
        print(f"FAILED {' '.join(r.argv)}: {r.error} (oracle {list(r.oracle)}, z={r.z:.3f})")
    print("env: " + json.dumps(environment(name, seed, len(reqs))))
    print(f"{name}: {len(reqs)} requests, error_rate {len(failed) / len(reqs):.6g} fraction")
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} {value!r} {unit}")
    return {
        "correct": not failed,
        "attempted": len(reqs),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a child process; metrics are prefixed with its name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        ctx = setup()
    except (SetupError, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(ctx, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
