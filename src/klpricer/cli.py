"""Command-line front end: flags, seeding, dispatch, exit codes, report emission.

Two subcommands:

* ``price``  runs one estimator and prints the estimate as a single JSON
  object (value, std_error, method, n_outer, n_inner, seed, wall_time_ms,
  and the estimator's ``diagnostics``).  The diagnostics are integer
  counters: ``grid_points``, ``blocks`` and ``normals_drawn`` for baseline
  and subsample; ``clipped``, ``series_points`` and ``normals_drawn`` for
  kl-nested, in acceptance mode also ``proposals``, ``accepted``,
  ``tabulated_draws`` and ``envelope_cells``; and kl-nested's
  ``plain_value`` and ``plain_std_error``, floats discounted as the value
  is.  geometric-cf and qsim-check give none.
* ``analyze`` runs one verification probe and writes its report as strict
  JSON and as CSV, then prints a JSON summary; the exit status reflects
  whether every bound check passed.  No probe draws, so ``analyze`` takes
  no seed, path count or strike.

Each flag and its default are declared once, in ``build_parser``; only
``analyze --epsilon`` defaults by probe, to 0.1 for smoothness, the one
single-epsilon probe, and 0.1,0.05 for the others.  The parsed namespace is
the request: ``main`` builds the market from it (and, for ``price``, checks
the seed and builds the payoff) and dispatches it.  The library validates
its own input before anything is drawn, and raises ``ValueError`` only for
bad input; the CLI itself checks only the seed, the discount rate, and that
a single-epsilon probe gets one value.  Each method and probe checks only
the flags it reads, so ``--method baseline --m0 1`` prices as usual.

Exit codes: 0 success, 1 runtime failure (including failed bound checks
and a non-finite estimate), 2 validation failure (a ``ValueError``, or a
flag the parser rejects).  ``--help`` prints help and exits 0.
Failures are emitted as a single JSON line on stderr; the estimate is
strict JSON, never Infinity or NaN.  Given the same configuration and seed
the JSON output is byte-identical up to the wall_time_ms field, whatever
the number of cores or of BLAS threads.

``analysis`` and ``qsim`` are imported only when ``analyze`` or
``qsim-check`` runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import pricing, process

__all__ = ["main"]

PRICE_METHODS = ("baseline", "kl-nested", "subsample", "geometric-cf", "qsim-check")
PROBES = ("truncation", "mapped", "smoothness", "subsample-error")

def _qsim_check(params: process.GbmParams, monitoring_count: int) -> pricing.Estimate:
    """Tiny-layout faithfulness check of the amplitude encoding.

    Builds the joint state of two 2-qubit coefficient registers (L = 1) over
    T = min(monitoring_count, 4) points with an 8-bit value codec on
    [0, g_max_bound], rotates the value into an ancilla, and returns the
    codec's top value times the exact ancilla-zero probability, which must
    equal the classically enumerated discretized mean.
    """
    from . import qsim

    T = min(monitoring_count, 4)
    codec = qsim.FixedPointCodec.for_range(8, process.g_max_bound(params, L=1))
    state = qsim.build_semidigital_state(params, L=1, T=T, n=2, codec=codec)
    value = qsim.exact_success_probability(qsim.attach_value_rotation(state), 0) * codec.top
    # classical oracle with the same quantization
    expect, _ = qsim.enumerated_mean(params, L=1, T=T, n=2, codec=codec)
    if abs(value - expect) > 1e-9 * max(1.0, abs(expect)):
        raise RuntimeError(
            f"statevector mean {value!r} deviates from classical enumeration {expect!r}"
        )
    return pricing.Estimate(value, 0.0, 2 ** (2 * 2), T)  # the 16 coefficient codes


def run_price(
    args: argparse.Namespace, params: process.GbmParams, spec: pricing.AsianPayoffSpec
) -> dict:
    if not np.isfinite(args.discount_rate):
        raise ValueError("discount_rate must be finite")
    if -args.discount_rate >= process.LOG_DBL_MAX:
        raise ValueError("discount factor exp(-discount_rate) overflows")
    start = time.perf_counter()
    if args.method == "baseline":
        est = pricing.price_baseline(params, spec, args.paths, args.seed)
    elif args.method == "subsample":
        est = pricing.price_subsample(params, spec, args.epsilon, args.paths, args.seed)
    elif args.method == "kl-nested":
        est = pricing.price_kl_nested(
            params,
            spec,
            args.epsilon,
            M0=args.m0,
            M1=args.m1,
            L=args.order,
            seed=args.seed,
            inner_mode=args.inner,
        )
    elif args.method == "geometric-cf":
        est = pricing.Estimate(pricing.geometric_asian_closed_form(params, spec), 0.0, 0, 1)
    else:
        est = _qsim_check(params, args.T)
    wall_ms = (time.perf_counter() - start) * 1000.0
    discount = float(np.exp(-args.discount_rate))
    value, std_error = est.value * discount, est.std_error * discount
    diagnostics = {k: v * discount if isinstance(v, float) else v for k, v in est.diagnostics.items()}
    prices = [value, std_error, *(v for v in diagnostics.values() if isinstance(v, float))]
    if not np.all(np.isfinite(prices)):
        raise FloatingPointError(f"non-finite estimate: value {value}, std_error {std_error}, {diagnostics}")
    return {
        "value": value,
        "std_error": std_error,
        "method": args.method,
        "n_outer": est.n_outer,
        "n_inner": est.n_inner,
        "seed": args.seed,
        "wall_time_ms": wall_ms,
        "diagnostics": diagnostics,
    }


def run_analyze(
    args: argparse.Namespace, params: process.GbmParams
) -> tuple[analysis.BoundReport, dict]:
    from . import analysis

    eps_text = args.epsilon or ("0.1" if args.probe == "smoothness" else "0.1,0.05")
    if args.probe == "truncation":
        report = analysis.truncation_error_sweep(_list(args.L, int))
    elif args.probe == "mapped":
        report = analysis.verify_mapped_bound(args.mu, args.sigma, _list(eps_text, float))
    elif args.probe == "smoothness":
        report = analysis.smoothness_probe(_list(eps_text, float, one=True)[0])
    else:
        report = analysis.subsample_error_probe(_list(eps_text, float), T=args.T, params=params)
    base = f"{args.output_dir.rstrip('/')}/{args.probe}_report"
    csv_path, json_path = base + ".csv", base + ".json"
    analysis.write_report_json(report, json_path)  # first: it raises on a non-finite value
    analysis.write_report_csv(report, csv_path)
    summary = {"probe": args.probe, "all_pass": report.all_pass, "csv": csv_path, "json": json_path}
    return report, summary


def _list(text: str, kind, one: bool = False) -> list:
    """The non-empty comma list ``text`` as values of type ``kind``, one value if ``one``."""
    values = [kind(x) for x in text.split(",") if x]
    if not values or one and len(values) > 1:
        raise ValueError(f"comma list {text!r} must hold {'one value' if one else 'a value'}")
    return values


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """A parser that raises ``ValueError`` on a bad flag, where argparse prints usage and exits."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # parsing never changes the parser; building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="klpricer",
        description="Monte Carlo pricing of discretely monitored Asian options on GBM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--s0", type=float, default=100.0, help="initial price (default 100)")
    market.add_argument("--mu", type=float, default=0.05, help="drift (default 0.05)")
    market.add_argument("--sigma", type=float, default=0.2, help="volatility (default 0.2)")

    pr = sub.add_parser("price", parents=[market],
                        help="run one estimator and print a JSON estimate")
    pr.add_argument("--method", required=True, choices=PRICE_METHODS)
    pr.add_argument("--strike", type=float, default=100.0, help="strike (default 100)")
    pr.add_argument("--seed", type=int, default=None,
                    help="stream seed; defaults to fresh entropy, echoed in the output")
    pr.add_argument("--T", type=int, default=64,
                    help="monitoring points T of the averaged payoff (default 64)")
    pr.add_argument("--epsilon", type=float, default=0.05,
                    help="kl-nested takes its L and M0 = M1 = ceil(4/eps^2) from it: an SE of "
                         "0.18 at eps 0.2 and 0.045 at eps 0.1 at the default market, T = 64; "
                         "subsample prices the grid of min(ceil(1/eps^2), T) points "
                         "(default 0.05)")
    pr.add_argument("--paths", type=int, default=100_000,
                    help="Monte Carlo paths for flat estimators (default 100000)")
    pr.add_argument("--m0", type=int, default=None, help="outer samples (kl-nested)")
    pr.add_argument("--m1", type=int, default=None, help="inner samples (kl-nested)")
    pr.add_argument("--L", type=int, default=None, dest="order",
                    help="series truncation order (kl-nested; default from epsilon)")
    pr.add_argument("--inner", choices=("acceptance", "uniform"), default="acceptance",
                    help="inner-mean recovery mode for kl-nested (default acceptance)")
    pr.add_argument("--discount-rate", type=float, default=0.0,
                    help="flat rate applied as exp(-r) to the final value (default 0)")
    pr.add_argument("--output", default=None, help="also write the JSON estimate here")

    an = sub.add_parser("analyze", parents=[market],
                        help="run a bound-verification probe; no probe draws")
    an.add_argument("--probe", required=True, choices=PROBES)
    an.add_argument("--L", default="8,32,128",
                    help="comma list of truncation levels for truncation (default 8,32,128)")
    an.add_argument("--epsilon", default=None,
                    help="comma list of epsilons for mapped and subsample-error (default "
                         "0.1,0.05); one epsilon for smoothness (default 0.1)")
    an.add_argument("--T", type=int, default=1024,
                    help="monitoring points T against whose mean subsample-error measures "
                         "the grid's mean (default 1024)")
    an.add_argument("--output-dir", default=".", dest="output_dir")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help exits 0 here
        if args.command == "analyze":
            report, summary = run_analyze(args, process.GbmParams(args.s0, args.mu, args.sigma))
            text, code = json.dumps(summary), 0 if report.all_pass else 1
        else:
            if args.seed is None:
                args.seed = int.from_bytes(os.urandom(4), "little")
            if args.seed < 0:
                raise ValueError("seed must be non-negative")
            params = process.GbmParams(args.s0, args.mu, args.sigma)
            spec = pricing.AsianPayoffSpec(args.strike, args.T)
            # overflow surfaces as the non-finite estimate error, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                text = json.dumps(run_price(args, params, spec), allow_nan=False)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
            code = 0
    except ValueError as exc:
        return _fail(str(exc), 2)
    except Exception as exc:  # noqa: BLE001
        return _fail(str(exc), 1)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
