#!/usr/bin/env python3
"""Time the price estimators in-process and write a ``BENCH_<n>.json``.

Each row is one pinned request to a public ``price_*`` function, at the
default market of ``klpricer price`` (s0 = K = 100, mu = 0.05, sigma = 0.2):
the requests of the four ``perfbench`` workloads (bulk, the five sweep
sizes, subsample, nested); sub-sampling at T = 2^20 with the subsample
sizing, where it prices its grid of ceil(1/eps^2) = 400 points in place of
the T points; and kl-nested at T = 2^20 with the nested sizing, where every
draw's inner mean comes from Gauss-Legendre quadrature, not a T-point table.
After one warm-up call a row is timed over ``REPEATS`` calls on the same
seed; it records the median, min and max wall time, the value, its standard
error, SE^2 x the median seconds (variance reduction and speed on one
scale) and the request's ``diagnostics``.  Every repeat must return
the same estimate.  The ``env`` record gives Python, numpy, the cores the
process may use, the CPU model, the BLAS thread count set in the
environment (null when unset) and the threads the flat kernel runs the
``bulk`` row on, from ``pricing._flat_threads``: min(usable cores, blocks,
threads whose block buffers fit ``process.GUARD_BYTES``).

    python scripts/bench.py                    # BENCH_<next free n>.json at the repo root
    python scripts/bench.py --out bench.json
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from klpricer import pricing  # noqa: E402
from klpricer.process import GbmParams  # noqa: E402

MARKET = {"s0": 100.0, "mu": 0.05, "sigma": 0.2}
STRIKE = 100.0
SEED = 1
REPEATS = 11
SUBSAMPLE = {"epsilon": 0.05, "n_paths": 1 << 17}
NESTED = {"epsilon": 0.1, "M0": 400, "M1": 400}
# name -> (method, T, keyword sizes of the price_<method> call)
WORKLOADS = {
    "bulk": ("baseline", 64, {"n_paths": 1 << 20}),
    **{f"sweep-{n}": ("baseline", 64, {"n_paths": n}) for n in (1000, 2000, 4000, 8000, 16000)},
    "subsample": ("subsample", 64, SUBSAMPLE),
    "subsample-T1048576": ("subsample", 1 << 20, SUBSAMPLE),
    "nested": ("kl_nested", 64, NESTED),
    "nested-T1048576": ("kl_nested", 1 << 20, NESTED),
}

def run_row(method: str, T: int, sizes: dict) -> dict:
    """Time one request ``REPEATS`` times after a warm-up call, and report it."""
    price = getattr(pricing, f"price_{method}")
    params = GbmParams(**MARKET)
    spec = pricing.AsianPayoffSpec(strike=STRIKE, monitoring_count=T)
    first = price(params, spec, **sizes, seed=SEED)
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        est = price(params, spec, **sizes, seed=SEED)
        seconds.append(time.perf_counter() - start)
        if est != first:
            raise RuntimeError(f"price_{method} at {sizes} returned another estimate on its seed")
    median = statistics.median(seconds)
    return {
        "method": method,
        "T": T,
        "sizes": sizes,
        "seed": SEED,
        "repeats": REPEATS,
        "wall_s": {"median": median, "min": min(seconds), "max": max(seconds)},
        "value": est.value,
        "std_error": est.std_error,
        "se2_x_s": est.std_error**2 * median,
        "n_outer": est.n_outer,
        "n_inner": est.n_inner,
        "diagnostics": est.diagnostics,
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": pricing._cpu_count(),
        "cpu": cpu,
        "blas_threads": next((int(os.environ[v]) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                              if os.environ.get(v)), None),
        "flat_threads": pricing._flat_threads(WORKLOADS["bulk"][1], WORKLOADS["bulk"][2]["n_paths"]),
    }


def next_free_path() -> pathlib.Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output file (default: BENCH_<next free n>.json at the repo root)")
    args = parser.parse_args(argv)
    rows = {}
    for name, (method, T, sizes) in WORKLOADS.items():
        rows[name] = run_row(method, T, sizes)
        wall = rows[name]["wall_s"]["median"]
        print(f"{name}: {1e3 * wall:.3f} ms, value {rows[name]['value']:.6f}", file=sys.stderr)
    out = args.out or next_free_path()
    report = {"generator": "scripts/bench.py", "env": environment(), "rows": rows}
    out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
