"""Command-line front end: flags, validation, seeding, dispatch, report emission.

Two subcommands:

* ``price``  runs one estimator and prints the estimate as a single JSON
  object (value, std_error, method, n_outer, n_inner, seed, wall_time_ms,
  and the estimator's integer ``diagnostics`` counters).
* ``analyze`` runs one verification probe and writes its report as CSV plus
  a JSON summary; the exit status reflects whether every bound check passed.

Each flag and its default are declared once, in ``build_parser``, and the
parsed namespace is the request: ``main`` resolves its seed, validates it
once, before anything is drawn, and dispatches it.

Exit codes: 0 success, 1 runtime failure (including failed bound checks
and a non-finite estimate), 2 validation failure.  Failures are emitted as a
single JSON line on stderr; the estimate is strict JSON, never Infinity or
NaN.  Given the same configuration and seed the JSON output is
byte-identical up to the wall_time_ms field, whatever the number of cores.

``price`` loads numpy only, and ``geometric-cf`` adds ``scipy.special``.
``analysis`` and ``qsim`` are imported only when ``analyze`` or
``qsim-check`` runs.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time

import numpy as np

from . import pricing, process

__all__ = ["main"]

PRICE_METHODS = ("baseline", "kl-nested", "subsample", "geometric-cf", "qsim-check")
PROBES = ("truncation", "mapped", "smoothness", "subsample-error", "convergence")

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))


def _validate_market(args: argparse.Namespace) -> None:
    """Reject a market, strike and seed that no estimator or probe can run on."""
    for name in ("s0", "mu", "sigma", "strike"):
        if not np.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite")
    if args.s0 <= 0:
        raise ValueError("s0 must be positive")
    if args.sigma <= 0:
        raise ValueError("sigma must be positive")
    # past this about half of all paths overflow, so no run can succeed
    if not np.log(args.s0) + args.mu - 0.5 * args.sigma**2 < _LOG_DBL_MAX:
        raise ValueError("median terminal price s0 exp(mu - sigma^2/2) overflows")
    if args.strike < 0:
        raise ValueError("strike must be non-negative")
    if args.seed < 0:
        raise ValueError("seed must be non-negative")


def _validate_price(args: argparse.Namespace) -> None:
    """Reject a ``price`` request that its estimator cannot run, before any draw."""
    _validate_market(args)
    if not np.isfinite(args.discount_rate):
        raise ValueError("discount_rate must be finite")
    if -args.discount_rate >= _LOG_DBL_MAX:
        raise ValueError("discount factor exp(-discount_rate) overflows")
    if args.monitoring < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < args.epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if args.method in ("baseline", "subsample") and args.paths < 2:
        raise ValueError("paths must be >= 2")
    if args.method == "baseline":
        pricing._check_flat_buffers(args.monitoring, args.paths)
    if args.method == "subsample":
        pricing._check_flat_buffers(pricing._subsample_points(args.epsilon), args.paths)
    if any(m is not None and m < 2 for m in (args.m0, args.m1)):
        raise ValueError("M0 and M1 must be >= 2")
    if args.order is not None and args.order < 0:
        raise ValueError("L must be >= 0")
    if args.method == "kl-nested":
        pricing._series_order(args.epsilon, args.order, args.monitoring)


def _qsim_check(params: process.GbmParams, monitoring_count: int) -> pricing.Estimate:
    """Tiny-layout faithfulness check of the amplitude encoding.

    Builds the joint state at a fixed small layout, rotates the value into an
    ancilla, and returns gmax times the exact ancilla-zero probability, which
    must equal the classically enumerated discretized mean.
    """
    from . import qsim

    T = min(monitoring_count, 4)
    layout = qsim.RegisterLayout(
        coeff_qubits=2, n_coeff_registers=2, time_qubits=2, value_qubits=8
    )
    gmax = process.g_max_bound(params, L=1)
    codec = qsim.FixedPointCodec.for_range(8, gmax)
    state = qsim.build_semidigital_state(layout, params, L=1, T=T, codec=codec)
    rotated = qsim.attach_value_rotation(state, gmax)
    p0 = qsim.exact_success_probability(rotated, 0)
    # classical oracle with the same quantization
    expect, _ = qsim.enumerated_mean(params, L=1, T=T, n=2, codec=codec)
    value = p0 * gmax
    if abs(value - expect) > 1e-9 * max(1.0, abs(expect)):
        raise RuntimeError(
            f"statevector mean {value!r} deviates from classical enumeration {expect!r}"
        )
    n_codes = 2 ** (layout.coeff_qubits * layout.n_coeff_registers)
    return pricing.Estimate(value, 0.0, n_codes, T)


def run_price(args: argparse.Namespace) -> dict:
    params = process.GbmParams(args.s0, args.mu, args.sigma)
    spec = pricing.AsianPayoffSpec(strike=args.strike, monitoring_count=args.monitoring)
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
        est = _qsim_check(params, args.monitoring)
    wall_ms = (time.perf_counter() - start) * 1000.0
    discount = float(np.exp(-args.discount_rate))
    value, std_error = est.value * discount, est.std_error * discount
    if not (np.isfinite(value) and np.isfinite(std_error)):
        raise FloatingPointError(f"non-finite estimate: value {value}, std_error {std_error}")
    return {
        "value": value,
        "std_error": std_error,
        "method": args.method,
        "n_outer": est.n_outer,
        "n_inner": est.n_inner,
        "seed": args.seed,
        "wall_time_ms": wall_ms,
        "diagnostics": est.diagnostics,
    }


def run_analyze(args: argparse.Namespace) -> tuple[analysis.BoundReport, dict]:
    from . import analysis

    market = process.GbmParams(args.s0, args.mu, args.sigma)
    if args.probe == "truncation":
        report = analysis.truncation_error_sweep(
            _list(args.L, int), L_ref=args.L_ref, n_paths=args.paths, seed=args.seed
        )
    elif args.probe == "mapped":
        report = analysis.verify_mapped_bound(
            args.mu, args.sigma, _list(args.epsilon, float), n_samples=args.paths, seed=args.seed
        )
    elif args.probe == "smoothness":
        report = analysis.smoothness_probe(
            _list(args.epsilon, float)[0], n_paths=args.paths, seed=args.seed
        )
    elif args.probe == "subsample-error":
        report = analysis.subsample_error_probe(
            _list(args.epsilon, float),
            T=args.T,
            n_paths=args.paths,
            params=market,
            strike=args.strike,
            seed=args.seed,
        )
    else:
        report = analysis.convergence_study(
            args.method,
            _list(args.budgets, int),
            params=market,
            strike=args.strike,
            monitoring_count=args.T,
            epsilon=_list(args.epsilon, float)[0],
            n_replicates=args.replicates,
            seed=args.seed,
        )
    base = f"{args.output_dir.rstrip('/')}/{args.probe}_report"
    csv_path, json_path = base + ".csv", base + ".json"
    analysis.write_report_csv(report, csv_path)
    analysis.write_report_json(report, json_path)
    summary = {
        "probe": args.probe,
        "all_pass": report.all_pass,
        "seed": args.seed,
        "csv": csv_path,
        "json": json_path,
    }
    return report, summary


def _list(text: str, kind) -> list:
    """The non-empty comma list ``text`` as values of type ``kind``."""
    values = [kind(x) for x in text.split(",") if x]
    if not values:
        raise ValueError(f"comma list {text!r} is empty")
    return values


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klpricer",
        description="Monte Carlo pricing of discretely monitored Asian options on GBM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--s0", type=float, default=100.0, help="initial price (default 100)")
    market.add_argument("--mu", type=float, default=0.05, help="drift (default 0.05)")
    market.add_argument("--sigma", type=float, default=0.2, help="volatility (default 0.2)")
    market.add_argument("--strike", type=float, default=100.0, help="strike (default 100)")
    market.add_argument("--seed", type=int, default=None,
                        help="stream seed; defaults to fresh entropy, echoed in the output")

    pr = sub.add_parser("price", parents=[market],
                        help="run one estimator and print a JSON estimate")
    pr.add_argument("--method", required=True, choices=PRICE_METHODS)
    pr.add_argument("--T", type=int, default=64, dest="monitoring",
                    help="monitoring points T of baseline, kl-nested, geometric-cf (default 64)")
    pr.add_argument("--epsilon", type=float, default=0.05,
                    help="target accuracy for kl-nested/subsample (default 0.05)")
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

    an = sub.add_parser("analyze", parents=[market], help="run a bound-verification probe")
    an.add_argument("--probe", required=True, choices=PROBES)
    an.add_argument("--L", default="8,32,128", help="comma list of truncation levels")
    an.add_argument("--L-ref", type=int, default=4096, dest="L_ref")
    an.add_argument("--paths", type=int, default=100_000,
                    help="paths or samples per grid point")
    an.add_argument("--epsilon", default="0.1,0.05",
                    help="epsilon or comma list of epsilons, probe-dependent")
    an.add_argument("--T", type=int, default=1024)
    an.add_argument("--method", choices=("baseline", "subsample"), default="baseline")
    an.add_argument("--budgets", default="1000,4000,16000,64000")
    an.add_argument("--replicates", type=int, default=50)
    an.add_argument("--output-dir", default=".", dest="output_dir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the validation convention
        return int(exc.code or 0)
    if args.seed is None:
        args.seed = secrets.randbits(32)

    if args.command == "price":
        try:
            _validate_price(args)
        except ValueError as exc:
            return _fail(str(exc), 2)
        try:
            # overflow surfaces as the non-finite estimate error, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                text = json.dumps(run_price(args), allow_nan=False)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
        except Exception as exc:  # noqa: BLE001
            return _fail(str(exc), 1)
        print(text)
        return 0

    # analyze
    if args.paths < 2 or args.T < 1 or args.replicates < 2:
        return _fail("paths, T, and replicates must be sensible positive integers", 2)
    try:
        _validate_market(args)
        report, summary = run_analyze(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except Exception as exc:  # noqa: BLE001
        return _fail(str(exc), 1)
    print(json.dumps(summary))
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
