#!/usr/bin/env python3
"""Regenerate the seed-pinned golden oracle used by the test suite.

Runs a 10^7-path reference estimate of the arithmetic Asian call at the
golden market parameters (s0=100, K=100, mu=0.05, sigma=0.2, T=64) plus the
matching geometric closed-form value, and writes them to tests/golden.json.
Never edit that file by hand; rerun this script instead.

BLAS runs single-threaded: a multi-threaded OpenBLAS splits a long dot
product, such as a block's sum of squared payoffs, differently and can
change the last bits of the pinned values.  The thread counts are set before
numpy is imported, which is when they are read.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from klpricer import pricing
from klpricer.process import GbmParams

GOLDEN_SEED = 20240917
N_PATHS = 10_000_000

PARAMS = {"s0": 100.0, "mu": 0.05, "sigma": 0.2}
STRIKE = 100.0
MONITORING = 64
EPSILON = 0.05


def main() -> None:
    market = GbmParams(**PARAMS)
    spec = pricing.AsianPayoffSpec(strike=STRIKE, monitoring_count=MONITORING)
    t0 = time.time()
    est = pricing.price_baseline(market, spec, N_PATHS, GOLDEN_SEED)
    # same-estimator reference for the sub-sampling estimator: its estimand
    # is the M = ceil(1/eps^2) grid price, not the T-point price
    sub = pricing.price_subsample(market, spec, EPSILON, N_PATHS, GOLDEN_SEED + 1)
    elapsed = time.time() - t0
    geometric_cf = pricing.geometric_asian_closed_form(market, spec)
    payload = {
        "market": PARAMS,
        "strike": STRIKE,
        "monitoring_count": MONITORING,
        "n_paths": N_PATHS,
        "seed": GOLDEN_SEED,
        "value": est.value,
        "std_error": est.std_error,
        "epsilon": EPSILON,
        "subsample_value": sub.value,
        "subsample_std_error": sub.std_error,
        "geometric_closed_form": geometric_cf,
        "generator": "scripts/regenerate_golden.py",
    }
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"golden value {est.value:.6f} +- {est.std_error:.6f} ({elapsed:.1f}s) -> {out}")


if __name__ == "__main__":
    main()
