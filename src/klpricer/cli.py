"""Command-line front end: configuration, seeding, dispatch, report emission.

Two subcommands:

* ``price``  runs one estimator and prints the estimate as a single JSON
  object (value, std_error, method, n_outer, n_inner, seed, wall_time_ms).
* ``analyze`` runs one verification probe and writes its report as CSV plus
  a JSON summary; the exit status reflects whether every bound check passed.

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
from dataclasses import dataclass

import numpy as np

from . import pricing, process

__all__ = ["RunConfig", "run_price", "run_analyze", "main"]

PRICE_METHODS = ("baseline", "kl-nested", "subsample", "geometric-cf", "qsim-check")
PROBES = ("truncation", "mapped", "smoothness", "subsample-error", "convergence")

_LOG_DBL_MAX = float(np.log(np.finfo(float).max))


class ValidationError(ValueError):
    pass


def _validate_market(s0: float, mu: float, sigma: float, strike: float) -> None:
    """Reject a market and strike that no estimator or probe can run on."""
    for name, value in (("s0", s0), ("mu", mu), ("sigma", sigma), ("strike", strike)):
        if not np.isfinite(value):
            raise ValidationError(f"{name} must be finite")
    if s0 <= 0:
        raise ValidationError("s0 must be positive")
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    # past this about half of all paths overflow, so no run can succeed
    if not np.log(s0) + mu - 0.5 * sigma**2 < _LOG_DBL_MAX:
        raise ValidationError("median terminal price s0 exp(mu - sigma^2/2) overflows")
    if strike < 0:
        raise ValidationError("strike must be non-negative")


@dataclass
class RunConfig:
    """Validated knobs of one front-end invocation."""

    method: str
    s0: float = 100.0
    mu: float = 0.05
    sigma: float = 0.2
    strike: float = 100.0
    monitoring: int = 64
    epsilon: float = 0.05
    paths: int = 100_000
    m0: int | None = None
    m1: int | None = None
    order: int | None = None
    inner: str = "acceptance"
    discount_rate: float = 0.0
    seed: int = 0
    output: str | None = None

    def validate(self) -> None:
        if self.method not in PRICE_METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        _validate_market(self.s0, self.mu, self.sigma, self.strike)
        if not np.isfinite(self.discount_rate):
            raise ValidationError("discount_rate must be finite")
        if -self.discount_rate >= _LOG_DBL_MAX:
            raise ValidationError("discount factor exp(-discount_rate) overflows")
        if self.monitoring < 1:
            raise ValidationError("T must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError("epsilon must be in (0, 1)")
        if self.method in ("baseline", "subsample") and self.paths < 2:
            raise ValidationError("paths must be >= 2")
        if self.method == "subsample":
            try:
                pricing._subsample_points(self.epsilon)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
        if any(m is not None and m < 2 for m in (self.m0, self.m1)):
            raise ValidationError("M0 and M1 must be >= 2")
        if self.order is not None and self.order < 0:
            raise ValidationError("L must be >= 0")
        if self.inner not in ("acceptance", "uniform"):
            raise ValidationError("inner mode must be 'acceptance' or 'uniform'")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def market(self) -> process.GbmParams:
        return process.GbmParams(self.s0, self.mu, self.sigma)

    def payoff_spec(self) -> pricing.AsianPayoffSpec:
        return pricing.AsianPayoffSpec(strike=self.strike, monitoring_count=self.monitoring)


def _qsim_check(config: RunConfig) -> pricing.Estimate:
    """Tiny-layout faithfulness check of the amplitude encoding.

    Builds the joint state at a fixed small layout, rotates the value into an
    ancilla, and returns gmax times the exact ancilla-zero probability, which
    must equal the classically enumerated discretized mean.
    """
    from . import qsim

    params = config.market()
    T = min(config.monitoring, 4)
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
    return pricing.Estimate(value, 0.0, n_codes, T, config.seed, "qsim-check")


def run_price(config: RunConfig) -> dict:
    config.validate()
    params = config.market()
    spec = config.payoff_spec()
    start = time.perf_counter()
    if config.method == "baseline":
        est = pricing.price_baseline(params, spec, config.paths, config.seed)
    elif config.method == "subsample":
        est = pricing.price_subsample(params, spec, config.epsilon, config.paths, config.seed)
    elif config.method == "kl-nested":
        est = pricing.price_kl_nested(
            params,
            spec,
            config.epsilon,
            M0=config.m0,
            M1=config.m1,
            L=config.order,
            seed=config.seed,
            inner_mode=config.inner,
        )
    elif config.method == "geometric-cf":
        grid = process.TimeGrid.uniform_monitoring(config.monitoring)
        value = pricing.geometric_asian_closed_form(params, grid, config.strike)
        est = pricing.Estimate(value, 0.0, 0, 1, config.seed, "geometric-cf")
    else:
        est = _qsim_check(config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    discount = float(np.exp(-config.discount_rate))
    value, std_error = est.value * discount, est.std_error * discount
    if not (np.isfinite(value) and np.isfinite(std_error)):
        raise FloatingPointError(f"non-finite estimate: value {value}, std_error {std_error}")
    return {
        "value": value,
        "std_error": std_error,
        "method": config.method,
        "n_outer": est.n_outer,
        "n_inner": est.n_inner,
        "seed": config.seed,
        "wall_time_ms": wall_ms,
    }


def run_analyze(args: argparse.Namespace) -> tuple[analysis.BoundReport, dict]:
    from . import analysis

    seed = args.seed if args.seed is not None else secrets.randbits(32)
    market = process.GbmParams(args.s0, args.mu, args.sigma)
    if args.probe == "truncation":
        report = analysis.truncation_error_sweep(
            _int_list(args.L), L_ref=args.L_ref, n_paths=args.paths, seed=seed
        )
    elif args.probe == "mapped":
        report = analysis.verify_mapped_bound(
            args.mu, args.sigma, _float_list(args.epsilon), n_samples=args.paths, seed=seed
        )
    elif args.probe == "smoothness":
        report = analysis.smoothness_probe(
            _float_list(args.epsilon)[0], n_paths=args.paths, seed=seed
        )
    elif args.probe == "subsample-error":
        report = analysis.subsample_error_probe(
            _float_list(args.epsilon),
            T=args.T,
            n_paths=args.paths,
            params=market,
            strike=args.strike,
            seed=seed,
        )
    else:
        report = analysis.convergence_study(
            args.method,
            _int_list(args.budgets),
            params=market,
            strike=args.strike,
            monitoring_count=args.T,
            epsilon=_float_list(args.epsilon)[0],
            n_replicates=args.replicates,
            seed=seed,
        )
    base = f"{args.output_dir.rstrip('/')}/{args.probe}_report"
    csv_path, json_path = base + ".csv", base + ".json"
    analysis.write_report_csv(report, csv_path)
    analysis.write_report_json(report, json_path)
    summary = {
        "probe": args.probe,
        "all_pass": report.all_pass,
        "seed": seed,
        "csv": csv_path,
        "json": json_path,
    }
    return report, summary


def _int_list(text: str) -> list:
    return [int(x) for x in str(text).split(",") if x]


def _float_list(text) -> list:
    return [float(x) for x in str(text).split(",") if x]


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klpricer",
        description="Monte Carlo pricing of discretely monitored Asian options on GBM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("price", help="run one estimator and print a JSON estimate")
    pr.add_argument("--method", required=True, choices=PRICE_METHODS)
    pr.add_argument("--s0", type=float, default=100.0, help="initial price (default 100)")
    pr.add_argument("--mu", type=float, default=0.05, help="drift (default 0.05)")
    pr.add_argument("--sigma", type=float, default=0.2, help="volatility (default 0.2)")
    pr.add_argument("--strike", type=float, default=100.0, help="strike (default 100)")
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
    pr.add_argument("--seed", type=int, default=None,
                    help="stream seed; defaults to fresh entropy, echoed in the output")
    pr.add_argument("--output", default=None, help="also write the JSON estimate here")

    an = sub.add_parser("analyze", help="run a bound-verification probe")
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
    an.add_argument("--s0", type=float, default=100.0)
    an.add_argument("--mu", type=float, default=0.05)
    an.add_argument("--sigma", type=float, default=0.2)
    an.add_argument("--strike", type=float, default=100.0)
    an.add_argument("--seed", type=int, default=None)
    an.add_argument("--output-dir", default=".", dest="output_dir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the validation convention
        return int(exc.code or 0)

    if args.command == "price":
        seed = args.seed if args.seed is not None else secrets.randbits(32)
        config = RunConfig(
            method=args.method,
            s0=args.s0,
            mu=args.mu,
            sigma=args.sigma,
            strike=args.strike,
            monitoring=args.monitoring,
            epsilon=args.epsilon,
            paths=args.paths,
            m0=args.m0,
            m1=args.m1,
            order=args.order,
            inner=args.inner,
            discount_rate=args.discount_rate,
            seed=seed,
            output=args.output,
        )
        try:
            config.validate()
        except ValidationError as exc:
            return _fail(str(exc), 2)
        try:
            # overflow surfaces as the non-finite estimate error, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                result = run_price(config)
        except Exception as exc:  # noqa: BLE001
            return _fail(str(exc), 1)
        text = json.dumps(result, allow_nan=False)
        print(text)
        if config.output:
            with open(config.output, "w") as fh:
                fh.write(text + "\n")
        return 0

    # analyze
    if args.paths < 2 or args.T < 1 or args.replicates < 2:
        return _fail("paths, T, and replicates must be sensible positive integers", 2)
    try:
        _validate_market(args.s0, args.mu, args.sigma, args.strike)
    except ValidationError as exc:
        return _fail(str(exc), 2)
    try:
        report, summary = run_analyze(args)
    except (ValueError, ValidationError) as exc:
        return _fail(str(exc), 2)
    except Exception as exc:  # noqa: BLE001
        return _fail(str(exc), 1)
    print(json.dumps(summary))
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
