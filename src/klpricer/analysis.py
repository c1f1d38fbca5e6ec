"""Verification of the error bounds behind the estimators.

Each probe compares a measured quantity against the corresponding analytic
bound and emits a machine-readable ``BoundReport``.  Three probes compute
in closed form the expectation their bound is stated for, and draw
nothing: the truncation tail, the smoothness of the truncated series and
the distance of the mapped process.  Two measure by Monte Carlo: the
sub-sampling coupling error with shared randomness (a single Brownian path
read on two grids; comparing independent paths would measure the wrong
quantity), and the convergence rate over independent replicates.

Grids must hold distinct values.  Each probe whose arrays grow with its
input counts the bytes they hold at most and rejects a request past the
flat kernel's guard, before it allocates anything.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import pricing, process
from .klcore import sine_basis, truncation_index_bm
from .process import GbmParams

__all__ = [
    "BoundReport",
    "write_report_csv",
    "write_report_json",
    "truncation_error_sweep",
    "verify_mapped_bound",
    "smoothness_probe",
    "subsample_error_probe",
    "convergence_study",
]


@dataclass
class BoundReport:
    """One probe's grid of measurements against its bound.

    ``passes[i]`` is True iff measured[i] <= bound_values[i], except where a
    probe documents a different rule: the sub-sampling probe's per-point rule
    is stored in ``extras['pass_rule']``.  ``n_samples`` and ``seed`` are 0
    for a probe that draws nothing.
    """

    bound_name: str
    parameter_grid: list
    measured: list
    bound_values: list
    passes: list
    n_samples: int = 0
    seed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def write_report_csv(report: BoundReport, path) -> None:
    """One row per grid point: parameters, measured, bound, pass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bound_name", "parameters", "measured", "bound", "pass"])
        for params, m, b, ok in zip(
            report.parameter_grid, report.measured, report.bound_values, report.passes
        ):
            writer.writerow([report.bound_name, json.dumps(params), repr(m), repr(b), ok])


def write_report_json(report: BoundReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def truncation_error_sweep(L_values) -> BoundReport:
    """Tail error of the truncated series against the closed bound 2/(pi^2 L).

    For each L >= 1, ``measured`` is the sup over 64 interior times of
    E[(B(t) - B_L(t))^2] = t - t^2 - sum_{k<=L} phi_k(t)^2, with phi_k the
    ``sine_basis`` modes: exact for the full series, since
    Var B(t) = t = t^2 + sum_{k>=1} phi_k(t)^2.
    """
    L_values = _distinct(sorted(int(L) for L in L_values), "L values")
    if not L_values:
        raise ValueError("L values must be non-empty")
    if L_values[0] < 1:
        raise ValueError("L values must be >= 1")
    # Interior midpoints; at t = 0 and t = 1 the truncation error vanishes
    # identically, which would make the sup degenerate.
    t = (np.arange(64) + 0.5) / 64
    # the mode matrix of the largest L with sine_basis's two temporaries
    _check_probe_bytes("truncation", 3 * L_values[-1] * t.size)
    head = sine_basis(np.arange(1, L_values[-1] + 1, dtype=float), t)
    np.cumsum(np.square(head, out=head), axis=0, out=head)  # row L - 1: sum_{k<=L} phi_k^2
    measured = (t - t * t - head[np.array(L_values) - 1]).max(axis=1)
    bounds = [2.0 / (np.pi**2 * L) for L in L_values]
    slope = float(np.polyfit(np.log(L_values), np.log(measured), 1)[0]) if len(L_values) > 1 else float("nan")
    return BoundReport(
        bound_name="truncation_tail",
        parameter_grid=[{"L": L} for L in L_values],
        measured=[float(m) for m in measured],
        bound_values=bounds,
        passes=[float(m) <= b for m, b in zip(measured, bounds)],
        extras={"loglog_slope": slope, "t_grid_size": int(t.size)},
    )


# Coefficients of x^(n-1), n = 24 down to 1 as np.polyval reads them, of
# E[(1 - e^Z)^2]/x and of e^{2x}: (2^n - 2^{1-n})/n! <= n 2^{n-1}/n!.  At
# x <= 1/4 the terms past n = 24 are below 1e-32.
_N = np.arange(24, 0, -1)
_N_FACTORIAL = np.array([math.factorial(n) for n in _N], dtype=float)
_DISTANCE_SERIES = (2.0**_N - 2.0 ** (1 - _N)) / _N_FACTORIAL
_BOUND_SERIES = _N * 2.0 ** (_N - 1) / _N_FACTORIAL


def verify_mapped_bound(mu: float, sigma: float, eps_values) -> BoundReport:
    """Squared distance of exp(X) and exp(X + Z) against C1 * eps^2.

    X ~ N(mu, sigma^2) and Z ~ N(0, eps^2) independent, so ``measured`` is
    E[e^{2X}] E[(1 - e^Z)^2] = e^{2 mu + 2 sigma^2} (1 - 2 e^{eps^2/2} + e^{2 eps^2})
    exactly.  Its series in eps^2 is dominated term by term,
    (2^n - 2^{1-n})/n! <= n 2^{n-1}/n!, by that of eps^2 e^{2 eps^2}, so the
    bound constant is C1 = exp(2 mu + 2 sigma^2 + 2 eps^2), tight as eps -> 0.
    Both sides are summed from these series in x = eps^2 in one Horner
    order, not from the closed forms: those differ by a relative eps^2/4,
    which rounding hides for eps below about 2e-8.  Rounding keeps each
    coefficient, and each Horner step, at or below its counterpart, so the
    comparison holds in floating point too.  A C1 past the largest double
    is rejected.
    """
    eps_values = _distinct([float(e) for e in eps_values], "eps values")
    if not eps_values:
        raise ValueError("need at least one eps value")
    if any(not (0.0 <= e <= 0.5) for e in eps_values):
        raise ValueError("eps values must lie in [0, 0.5]")
    if not 2.0 * mu + 2.0 * sigma**2 + 2.0 * max(eps_values) ** 2 < process.LOG_DBL_MAX:
        raise ValueError(
            f"bound constant C1 = exp(2 mu + 2 sigma^2 + 2 eps^2) overflows at mu = {mu}, "
            f"sigma = {sigma}"
        )
    ex2 = float(np.exp(2.0 * mu + 2.0 * sigma**2))  # E[e^{2X}]
    measured = [ex2 * e * e * float(np.polyval(_DISTANCE_SERIES, e * e)) for e in eps_values]
    bounds = [ex2 * e * e * float(np.polyval(_BOUND_SERIES, e * e)) for e in eps_values]
    return BoundReport(
        bound_name="mapped_process_l2",
        parameter_grid=[{"mu": mu, "sigma": sigma, "eps": e} for e in eps_values],
        measured=measured,
        bound_values=bounds,
        passes=[m <= b for m, b in zip(measured, bounds)],
    )


def _default_pair_grid() -> list:
    pts = [0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0]
    pairs = [(s, t) for i, s in enumerate(pts) for t in pts[i + 1 :]]
    pairs.append((0.5, 0.5))
    return pairs


def smoothness_probe(epsilon: float) -> BoundReport:
    """Mean squared increments of the truncated series vs the smoothness bound.

    At the truncation index L for ``epsilon`` and every pair of
    ``_default_pair_grid``, ``measured`` is
    E[(B_L(t) - B_L(s))^2] = (t - s)^2 + sum_{k<=L} (phi_k(t) - phi_k(s))^2
    exactly, with phi_k the ``sine_basis`` modes, and is checked against
    3 C_M L (t - s)^2 + 6 eps^2 with C_M = 1; the C_M = 2 variant (what this
    basis actually satisfies) and the exact Brownian value |t - s| are
    reported alongside.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    pairs = _default_pair_grid()
    L = truncation_index_bm(epsilon)
    times = np.unique(np.asarray(pairs, dtype=float).ravel())
    # the mode matrix with sine_basis's two temporaries, and one pair's increments
    _check_probe_bytes("smoothness", L * (3 * times.size + 1))
    modes = sine_basis(np.arange(1, L + 1, dtype=float), times)
    col = {t: i for i, t in enumerate(times)}
    measured = []
    for s, t in pairs:
        d = modes[:, col[t]] - modes[:, col[s]]
        measured.append((t - s) ** 2 + float(np.einsum("i,i->", d, d)))
    bounds_cm1 = [3.0 * 1.0 * L * (t - s) ** 2 + 6.0 * epsilon**2 for s, t in pairs]
    bounds_cm2 = [3.0 * 2.0 * L * (t - s) ** 2 + 6.0 * epsilon**2 for s, t in pairs]
    return BoundReport(
        bound_name="kl_smoothness",
        parameter_grid=[{"s": s, "t": t, "L": L, "eps": epsilon} for s, t in pairs],
        measured=measured,
        bound_values=bounds_cm1,
        passes=[m <= b for m, b in zip(measured, bounds_cm1)],
        extras={
            "bounds_cm2": bounds_cm2,
            "exact_bm_value": [abs(t - s) for s, t in pairs],
        },
    )


def _coupled_grid_payoff_mse(
    params: GbmParams,
    strike: float,
    m: int,
    T: int,
    n_paths: int,
    seed: int,
    stream_index: int,
) -> tuple[float, float]:
    """Payoff MSE and sup per-point MSE between a path and its grid-rounding.

    One exact path from the flat estimators' kernel is built on the union of
    the T monitoring times and the m-point sub-sampling grid; the coarse
    version reads the same path at c(t) = floor(t m)/m.  This realizes the
    same joint law as refining the coarse path by Brownian bridging, with
    the rounding coupling used by the sub-sampling estimator.
    """
    tf = np.arange(1, T + 1) / T
    c = np.floor(tf * m) / m
    union = np.union1d(tf, np.unique(c))
    union = union[union > 0.0]
    fi = np.searchsorted(union, tf)
    ci = np.searchsorted(union, c)
    zero_c = c == 0.0
    point_sq = np.zeros(T)

    def payoff(logs: np.ndarray) -> np.ndarray:
        s = np.exp(logs, out=logs)
        s *= params.s0
        s_fine = s[:, fi]
        s_coarse = s[:, ci]
        s_coarse[:, zero_c] = params.s0
        diff = np.maximum(s_fine.mean(axis=1) - strike, 0.0)
        diff -= np.maximum(s_coarse.mean(axis=1) - strike, 0.0)
        s_fine -= s_coarse
        point_sq[:] += np.einsum("ij,ij->j", s_fine, s_fine)
        return diff

    child = _child_seed(seed, 3, stream_index)
    # one thread, so that the blocks add into point_sq in block order
    _, pay_sq = pricing._flat_moments(params, union, n_paths, child, process.TAG_ANALYSIS, payoff)
    return pay_sq / n_paths, float((point_sq / n_paths).max())


def subsample_error_probe(
    eps_values,
    T: int = 1024,
    n_paths: int = 50_000,
    params: GbmParams | None = None,
    strike: float = 100.0,
    seed: int = 0,
) -> BoundReport:
    """Coupled error of grid rounding at the sub-sampling estimator's M points.

    M = min(ceil(1/eps^2), T) is the grid ``pricing.price_subsample``
    prices, so at M = T the error is zero and nothing is drawn.
    ``measured`` is the coupled payoff MSE E[(f(S_{c(t)}) - f(S_t))^2]; the
    reported bound is C_fit * eps^2 with the fitted constant
    C_fit = max measured/eps^2 over the sweep.  The averaging inside the
    Asian payoff cancels most of the per-point error, so the payoff MSE
    decays faster than eps^2; the sup-over-points coupled MSE, which is the
    quantity the smoothness bounds control and which scales as eps^2, is
    reported in the extras together with the eps-halving ratios of both
    quantities (pass rule: per-point ratio within [3, 5] at each halving).
    """
    eps_values = _distinct([float(e) for e in eps_values], "eps values")
    if not eps_values:
        raise ValueError("need at least one eps value")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise ValueError("eps values must lie in (0, 1)")
    grid = [pricing._subsample_points(eps, T) for eps in eps_values]
    for m in grid:
        # on the union of the T times and the M-point grid: the flat run's
        # buffers, its fine and coarse copies of a block, and the grid vectors;
        # at M = T nothing is drawn
        if m < T:
            n = T + m
            _check_probe_bytes(
                "subsample-error", (3 * min(pricing._block_size(n), n_paths) + 11) * n
            )
    if params is None:
        params = GbmParams(100.0, 0.05, 0.2)
    payoff_mse, point_mse = [], []
    for j, m in enumerate(grid):
        if m == T:
            payoff_mse.append(0.0)
            point_mse.append(0.0)
            continue
        pm, pp = _coupled_grid_payoff_mse(params, strike, m, T, n_paths, seed, j)
        payoff_mse.append(pm)
        point_mse.append(pp)
    c_fit = max((m / e**2 for m, e in zip(payoff_mse, eps_values) if m > 0.0), default=0.0)
    bounds = [c_fit * e * e for e in eps_values]
    ratios = []
    passes = [True]
    for i in range(1, len(eps_values)):
        if abs(eps_values[i - 1] / eps_values[i] - 2.0) < 1e-9 and point_mse[i] > 0:
            r = point_mse[i - 1] / point_mse[i]
            ratios.append(r)
            passes.append(3.0 <= r <= 5.0)
        else:
            ratios.append(float("nan"))
            passes.append(True)
    return BoundReport(
        bound_name="subsample_coupling",
        parameter_grid=[{"eps": e, "M": m, "T": T} for e, m in zip(eps_values, grid)],
        measured=payoff_mse,
        bound_values=bounds,
        passes=passes,
        n_samples=n_paths,
        seed=seed,
        extras={
            "fitted_constant": c_fit,
            "sup_point_mse": point_mse,
            "point_mse_halving_ratios": ratios,
            "payoff_mse_halving_ratios": [
                payoff_mse[i - 1] / payoff_mse[i] if payoff_mse[i] > 0 else float("nan")
                for i in range(1, len(eps_values))
            ],
            "pass_rule": "per-point halving ratio in [3, 5]",
        },
    )


def convergence_study(
    method: str,
    budgets,
    params: GbmParams | None = None,
    strike: float = 100.0,
    monitoring_count: int = 64,
    epsilon: float = 0.05,
    n_replicates: int = 50,
    seed: int = 0,
    oracle: float | None = None,
) -> BoundReport:
    """Log-log regression of RMSE against the sampling budget.

    Each budget gets ``n_replicates`` independent estimates; RMSE is taken
    against ``oracle`` (a large seed-pinned baseline run when not supplied).
    Passes when the fitted slope is within -0.5 +/- 0.1, or when the RMSE sits
    at machine scale (degenerate zero-variance case).
    """
    if method not in ("baseline", "subsample"):
        raise ValueError("method must be 'baseline' or 'subsample'")
    budgets = _distinct([int(n) for n in budgets], "budgets")
    if len(budgets) < 4 or min(budgets) < 2:
        raise ValueError("need at least 4 budget points, each >= 2")
    if params is None:
        params = GbmParams(100.0, 0.05, 0.2)
    spec = pricing.AsianPayoffSpec(strike=strike, monitoring_count=monitoring_count)
    if oracle is None:
        ref_seed = _child_seed(seed, 9999, 0)
        oracle = _price_for(method, params, spec, 1_000_000, epsilon, ref_seed).value
    rmse = []
    for bi, n in enumerate(budgets):
        errs = np.empty(n_replicates)
        for r in range(n_replicates):
            est = _price_for(method, params, spec, n, epsilon, _child_seed(seed, bi, r))
            errs[r] = est.value - oracle
        rmse.append(float(np.sqrt(np.mean(errs**2))))
    degenerate = all(r < 1e-9 * params.s0 for r in rmse)
    if degenerate:
        slope, stderr = float("nan"), float("nan")
        passes = [True] * len(budgets)
    else:
        coef, cov = np.polyfit(np.log(budgets), np.log(rmse), 1, cov=True)
        slope, stderr = float(coef[0]), float(np.sqrt(cov[0, 0]))
        ok = abs(slope + 0.5) <= 0.1
        passes = [ok] * len(budgets)
    c0 = rmse[0] * np.sqrt(budgets[0])
    return BoundReport(
        bound_name=f"convergence_{method}",
        parameter_grid=[{"n": n, "method": method} for n in budgets],
        measured=rmse,
        bound_values=[float(c0 / np.sqrt(n)) for n in budgets],
        passes=passes,
        n_samples=n_replicates,
        seed=seed,
        extras={
            "slope": slope,
            "slope_stderr": stderr,
            "oracle": float(oracle),
            "degenerate": degenerate,
        },
    )


def _distinct(values: list, name: str) -> list:
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must be distinct, got {values}")
    return values


def _check_probe_bytes(probe: str, n_words: int) -> None:
    """Reject a probe holding ``n_words`` 8-byte words past the flat kernel's guard."""
    need, limit = 8 * n_words, pricing._FLAT_BYTES
    if need > limit:
        raise ValueError(f"{probe} probe holds {need} bytes, past the {limit}-byte guard")


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _price_for(
    method: str,
    params: GbmParams,
    spec: pricing.AsianPayoffSpec,
    n_paths: int,
    epsilon: float,
    seed: int,
) -> pricing.Estimate:
    if method == "baseline":
        return pricing.price_baseline(params, spec, n_paths, seed)
    return pricing.price_subsample(params, spec, epsilon, n_paths, seed)
