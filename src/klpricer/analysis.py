"""Empirical verification of the error bounds behind the estimators.

Each probe measures a quantity with shared randomness (common coefficients,
or a single Brownian path read on two grids) and compares it against the
corresponding analytic bound, emitting a machine-readable ``BoundReport``.
Comparing independent paths would measure the wrong quantity and is not
supported.

Statistical convention: every bound check uses a 15% multiplicative headroom
unless the report declares otherwise, and Monte Carlo standard errors are
reported alongside so 3-sigma bands can be formed.
"""

from __future__ import annotations

import csv
import json
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

DEFAULT_STAT_TOLERANCE = 0.15


@dataclass
class BoundReport:
    """One probe's grid of measurements against its bound.

    ``passes[i]`` is True iff measured[i] <= bound_values[i] * (1 + stat_tolerance),
    except where a probe documents a different per-point rule (stored in
    ``extras['pass_rule']``).
    """

    bound_name: str
    parameter_grid: list
    measured: list
    bound_values: list
    passes: list
    n_samples: int
    seed: int
    stat_tolerance: float = DEFAULT_STAT_TOLERANCE
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


def truncation_error_sweep(
    L_values,
    L_ref: int = 4096,
    n_paths: int = 100_000,
    seed: int = 0,
) -> BoundReport:
    """Shared-randomness tail error of the truncated series vs a long reference.

    For each L >= 1, measures sup over 64 interior times of the empirical
    E[(B_L(t) - B_{L_ref}(t))^2] with common coefficients, and compares it
    against the closed tail bound 2/(pi^2 L).
    """
    L_values = sorted(int(L) for L in L_values)
    if not L_values:
        raise ValueError("L values must be non-empty")
    if L_values[0] < 1:
        raise ValueError("L values must be >= 1")
    if L_ref < 8 * max(L_values):
        raise ValueError("L_ref must be at least 8 * max(L_values)")
    # Interior midpoints; at t = 0 and t = 1 the truncation error vanishes
    # identically, which would make the sup degenerate.
    t = (np.arange(64) + 0.5) / 64

    # The difference B_L - B_ref involves only modes k in (L, L_ref]; band the
    # modes at the requested L boundaries and accumulate E[tail^2] per (L, t).
    edges = L_values + [L_ref]
    bands = [(edges[i] + 1, edges[i + 1]) for i in range(len(edges) - 1)]
    band_mats = [sine_basis(np.arange(lo, hi + 1, dtype=float), t) for lo, hi in bands]

    sumsq = np.zeros((len(L_values), t.size))
    chunk = 4096
    done = 0
    block_idx = 0
    while done < n_paths:
        b = min(chunk, n_paths - done)
        rng = process.stream(seed, process.TAG_ANALYSIS, 0, block_idx)
        # accumulate from the farthest band inwards: tail_L = sum of bands above L
        parts = []
        for (lo, hi), mat in zip(bands, band_mats):
            a = rng.standard_normal((b, hi - lo + 1))
            parts.append(a @ mat)
        suffix = np.zeros((b, t.size))
        for i in range(len(bands) - 1, -1, -1):
            suffix = suffix + parts[i]
            sumsq[i] += np.einsum("ij,ij->j", suffix, suffix)
        done += b
        block_idx += 1

    measured = (sumsq / n_paths).max(axis=1)
    bounds = [2.0 / (np.pi**2 * L) for L in L_values]
    passes = [float(m) <= b * (1.0 + DEFAULT_STAT_TOLERANCE) for m, b in zip(measured, bounds)]
    slope = float(np.polyfit(np.log(L_values), np.log(measured), 1)[0]) if len(L_values) > 1 else float("nan")
    return BoundReport(
        bound_name="truncation_tail",
        parameter_grid=[{"L": L, "L_ref": L_ref} for L in L_values],
        measured=[float(m) for m in measured],
        bound_values=bounds,
        passes=passes,
        n_samples=n_paths,
        seed=seed,
        extras={"loglog_slope": slope, "t_grid_size": int(t.size)},
    )


def verify_mapped_bound(
    mu: float,
    sigma: float,
    eps_values,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> BoundReport:
    """Squared distance of exp(X) and exp(X + Z) against C1 * eps^2.

    X ~ N(mu, sigma^2) and Z ~ N(0, eps^2) independent, so the distance is
    E[e^{2X}] E[(1 - e^Z)^2] = e^{2 mu + 2 sigma^2} (1 - 2 e^{eps^2/2} + e^{2 eps^2})
    exactly.  Its series in eps^2 is dominated term by term,
    (2^n - 2^{1-n})/n! <= n 2^{n-1}/n!, by that of eps^2 e^{2 eps^2}, so the
    bound constant is C1 = exp(2 mu + 2 sigma^2 + 2 eps^2), tight as eps -> 0.
    The exact value is reported (as ``quadrature_oracle``) for a 3-sigma
    cross-check of the Monte Carlo measurement.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("need at least one eps value")
    if any(not (0.0 <= e <= 0.5) for e in eps_values):
        raise ValueError("eps values must lie in [0, 0.5]")
    ex2 = float(np.exp(2.0 * mu + 2.0 * sigma**2))  # E[e^{2X}]
    measured, ses, oracles = [], [], []
    for j, eps in enumerate(eps_values):
        if eps == 0.0:
            measured.append(0.0)
            ses.append(0.0)
            oracles.append(0.0)
            continue
        rng = process.stream(seed, process.TAG_ANALYSIS, 1, j)
        x = mu + sigma * rng.standard_normal(n_samples)
        z = eps * rng.standard_normal(n_samples)
        d2 = (np.exp(x) - np.exp(x + z)) ** 2
        measured.append(float(d2.mean()))
        ses.append(float(d2.std(ddof=1) / np.sqrt(n_samples)))
        # E[(1 - e^Z)^2] = 1 - 2 e^{eps^2/2} + e^{2 eps^2}, without the cancellation
        ez = float(np.expm1(2.0 * eps * eps) - 2.0 * np.expm1(0.5 * eps * eps))
        oracles.append(ex2 * ez)
    bounds = [ex2 * float(np.exp(2.0 * e * e)) * e * e for e in eps_values]
    tol = 0.10  # headroom stated by the bound check for this probe
    passes = [m <= b * (1.0 + tol) if b > 0 else m == 0.0 for m, b in zip(measured, bounds)]
    z_scores = [
        (m - o) / se if se > 0 else 0.0 for m, o, se in zip(measured, oracles, ses)
    ]
    return BoundReport(
        bound_name="mapped_process_l2",
        parameter_grid=[{"mu": mu, "sigma": sigma, "eps": e} for e in eps_values],
        measured=measured,
        bound_values=bounds,
        passes=passes,
        n_samples=n_samples,
        seed=seed,
        stat_tolerance=tol,
        extras={"quadrature_oracle": oracles, "std_errors": ses, "oracle_z_scores": z_scores},
    )


def _default_pair_grid() -> list:
    pts = [0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0]
    pairs = [(s, t) for i, s in enumerate(pts) for t in pts[i + 1 :]]
    pairs.append((0.5, 0.5))
    return pairs


def smoothness_probe(
    epsilon: float,
    n_paths: int = 100_000,
    seed: int = 0,
) -> BoundReport:
    """Mean squared increments of the truncated series vs the smoothness bound.

    Measures E[(B_t - B_s)^2] on truncated paths at the truncation index for
    ``epsilon``, at every pair of ``_default_pair_grid``, and checks
    3 C_M L (t - s)^2 + 6 eps^2 with C_M = 1; the C_M = 2 variant (what this
    basis actually satisfies) and the exact Brownian value |t - s| are
    reported alongside.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    pairs = _default_pair_grid()
    L = truncation_index_bm(epsilon)
    times = np.unique(np.asarray(pairs, dtype=float).ravel())
    k = np.arange(1, L + 1, dtype=float)
    basis = np.vstack([times, sine_basis(k, times)])
    rng = process.stream(seed, process.TAG_ANALYSIS, 2)
    sumsq = np.zeros(len(pairs))
    idx = {t: i for i, t in enumerate(times)}
    chunk = 20_000
    done = 0
    while done < n_paths:
        b = min(chunk, n_paths - done)
        a = rng.standard_normal((b, L + 1))
        paths = a @ basis
        for j, (s, t) in enumerate(pairs):
            d = paths[:, idx[t]] - paths[:, idx[s]]
            sumsq[j] += float(d @ d)
        done += b
    measured = sumsq / n_paths
    bounds_cm1 = [3.0 * 1.0 * L * (t - s) ** 2 + 6.0 * epsilon**2 for s, t in pairs]
    bounds_cm2 = [3.0 * 2.0 * L * (t - s) ** 2 + 6.0 * epsilon**2 for s, t in pairs]
    passes = [
        float(m) <= b * (1.0 + DEFAULT_STAT_TOLERANCE) for m, b in zip(measured, bounds_cm1)
    ]
    return BoundReport(
        bound_name="kl_smoothness",
        parameter_grid=[{"s": s, "t": t, "L": L, "eps": epsilon} for s, t in pairs],
        measured=[float(m) for m in measured],
        bound_values=bounds_cm1,
        passes=passes,
        n_samples=n_paths,
        seed=seed,
        extras={
            "bounds_cm2": bounds_cm2,
            "exact_bm_value": [abs(t - s) for s, t in pairs],
        },
    )


def _coupled_grid_payoff_mse(
    params: GbmParams,
    strike: float,
    eps: float,
    T: int,
    n_paths: int,
    seed: int,
    stream_index: int,
) -> tuple[float, float]:
    """Payoff MSE and sup per-point MSE between a path and its grid-rounding.

    One exact path from the flat estimators' kernel is built on the union of
    the T monitoring times and the M = ceil(1/eps^2) grid; the coarse
    version reads the same path at c(t) = floor(t M)/M.  This realizes the
    same joint law as refining the coarse path by Brownian bridging, with
    the rounding coupling used by the sub-sampling estimator.
    """
    m = int(np.ceil(1.0 / eps**2))
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

    pay_sq = 0.0
    child = _child_seed(seed, 3, stream_index)
    for block_idx, rows in enumerate(pricing._block_rows(union.size, n_paths)):
        diff = pricing._block_payoffs(
            params, union, rows, child, process.TAG_ANALYSIS, block_idx, payoff
        )
        pay_sq += float(diff @ diff)
    return pay_sq / n_paths, float((point_sq / n_paths).max())


def subsample_error_probe(
    eps_values,
    T: int = 1024,
    n_paths: int = 50_000,
    params: GbmParams | None = None,
    strike: float = 100.0,
    seed: int = 0,
) -> BoundReport:
    """Coupled error of grid rounding at M = ceil(1/eps^2) points.

    ``measured`` is the coupled payoff MSE E[(f(S_{c(t)}) - f(S_t))^2]; the
    reported bound is C_fit * eps^2 with the fitted constant
    C_fit = max measured/eps^2 over the sweep.  The averaging inside the
    Asian payoff cancels most of the per-point error, so the payoff MSE
    decays faster than eps^2; the sup-over-points coupled MSE, which is the
    quantity the smoothness bounds control and which scales as eps^2, is
    reported in the extras together with the eps-halving ratios of both
    quantities (pass rule: per-point ratio within [3, 5] at each halving).
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("need at least one eps value")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise ValueError("eps values must lie in (0, 1)")
    if params is None:
        params = GbmParams(100.0, 0.05, 0.2)
    payoff_mse, point_mse = [], []
    for j, eps in enumerate(eps_values):
        m = int(np.ceil(1.0 / eps**2))
        if m >= T and m % T == 0:
            payoff_mse.append(0.0)
            point_mse.append(0.0)
            continue
        pm, pp = _coupled_grid_payoff_mse(params, strike, eps, T, n_paths, seed, j)
        payoff_mse.append(pm)
        point_mse.append(pp)
    c_fit = max((m / e**2 for m, e in zip(payoff_mse, eps_values)), default=0.0)
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
        parameter_grid=[
            {"eps": e, "M": int(np.ceil(1.0 / e**2)), "T": T} for e in eps_values
        ],
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
    budgets = [int(n) for n in budgets]
    if len(budgets) < 4:
        raise ValueError("need at least 4 budget points")
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
