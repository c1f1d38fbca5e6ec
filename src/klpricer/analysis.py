"""Verification of the error bounds behind the estimators.

Each probe compares a measured quantity against the corresponding analytic
bound, stated in advance, and emits a machine-readable ``BoundReport``.
All four compute in closed form the expectation their bound is stated for,
and none draws: the truncation tail, the smoothness of the truncated
series, the distance of the mapped process and the mean-square error of
the sub-sampling estimator's grid.

Grids must hold distinct values.  Each probe whose arrays grow with its
input counts the bytes they hold at most and passes the count to
``process.check_bytes`` before it allocates anything.
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
]


@dataclass
class BoundReport:
    """One probe's grid of measurements against its bound.

    ``passes[i]`` is True iff measured[i] <= bound_values[i], for every probe.
    """

    bound_name: str
    parameter_grid: list
    measured: list
    bound_values: list
    passes: list
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
    """Strict JSON: a non-finite value raises ``ValueError`` before the file is opened."""
    text = json.dumps(asdict(report), indent=2, sort_keys=True, default=float, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
    process.check_bytes("truncation probe", 8 * 3 * L_values[-1] * t.size)
    head = sine_basis(np.arange(1, L_values[-1] + 1, dtype=float), t)
    np.cumsum(np.square(head, out=head), axis=0, out=head)  # row L - 1: sum_{k<=L} phi_k^2
    measured = (t - t * t - head[np.array(L_values) - 1]).max(axis=1)
    bounds = [2.0 / (np.pi**2 * L) for L in L_values]
    extras = {"t_grid_size": int(t.size)}
    if len(L_values) > 1:
        extras["loglog_slope"] = float(np.polyfit(np.log(L_values), np.log(measured), 1)[0])
    return BoundReport(
        bound_name="truncation_tail",
        parameter_grid=[{"L": L} for L in L_values],
        measured=[float(m) for m in measured],
        bound_values=bounds,
        passes=[float(m) <= b for m, b in zip(measured, bounds)],
        extras=extras,
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
    process.check_bytes("smoothness probe", 8 * L * (3 * times.size + 1))
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


def _grid_mse(params: GbmParams, T: int, m: int) -> float:
    """E[(A_T - A_M)^2] by ``subsample_error_probe``'s split sums on the union of i/T and k/m."""
    fine, coarse = np.arange(1, T + 1) / T, np.arange(1, m + 1) / m
    u = np.union1d(fine, coarse)
    w = np.zeros(u.size)
    w[np.searchsorted(u, fine)] = 1.0 / T
    w[np.searchsorted(u, coarse)] -= 1.0 / m
    del fine, coarse
    drift = np.sum(w * np.expm1(params.mu * u))
    v = np.exp(params.mu * u)
    v *= w
    r = np.cumsum(v[::-1])[::-1]  # R_i
    r *= 2.0
    r -= v
    r *= v
    u *= params.sigma**2
    r *= np.expm1(u, out=u)
    return params.s0 * params.s0 * float(drift * drift + np.sum(r))


def subsample_error_probe(
    eps_values, T: int = 1024, params: GbmParams | None = None
) -> BoundReport:
    """Mean-square error of the sub-sampling estimator's M-point grid, in closed form.

    M = min(ceil(1/eps^2), T) is the grid ``pricing.price_subsample``
    prices.  ``measured`` is E[(A_T - A_M)^2], with A_T = T^-1 sum_i S(i/T)
    the path's mean over the T monitoring times and A_M = M^-1 sum_k S(k/M)
    its mean over the grid.  From E[S(s) S(t)] = s0^2 e^{mu (s + t) + sigma^2 min(s, t)},
    on the sorted union u of the two grids with weights w, +1/T on the
    monitoring times and -1/M on the grid (added where the grids share a
    point), it is

        s0^2 [(sum_i w_i expm1(mu u_i))^2 + sum_i v_i expm1(sigma^2 u_i) (2 R_i - v_i)],

    v_i = w_i e^{mu u_i} and R_i = sum_{j>=i} v_j.  The weights sum to zero,
    so the split keeps both terms free of the cancellation that w C w has
    when sigma is small.  The bound, stated in advance, is

        s0^2 e^{(2 mu + sigma^2)^+} [e^{2 mu^+/M} expm1(sigma^2/M) + expm1(|mu|/M)^2],

    the largest E[(S(t) - S(s))^2] over |t - s| < 1/M: since
    A_T - A_M = int_0^1 (S(ceil(uT)/T) - S(ceil(uM)/M)) du, Jensen bounds its
    mean square by that.  The call payoff is 1-Lipschitz, so sqrt(measured)
    also bounds the bias of ``price_subsample``.  At M = T the error is zero.
    A market whose 2 ln s0 + (2 mu + sigma^2)^+ overflows is rejected before
    anything is computed, and one where a measured value or a bound still
    overflows a double, after.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    eps_values = _distinct([float(e) for e in eps_values], "eps values")
    if not eps_values:
        raise ValueError("need at least one eps value")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise ValueError("eps values must lie in (0, 1)")
    if params is None:
        params = GbmParams(100.0, 0.05, 0.2)
    s0, mu, var = params.s0, params.mu, params.sigma**2
    growth = max(2.0 * mu + var, 0.0)
    if not 2.0 * math.log(s0) + growth < process.LOG_DBL_MAX:
        raise ValueError(
            f"second moment s0^2 exp((2 mu + sigma^2)^+) overflows at s0 = {s0}, mu = {mu}, "
            f"sigma = {params.sigma}"
        )
    grid = [pricing._subsample_points(eps, T) for eps in eps_values]
    for m in grid:
        if m < T:
            # the two grids, np.union1d's two copies of them, its mask and its result
            process.check_bytes("subsample-error probe", 8 * 5 * (T + m))
    inv_m = 1.0 / np.array(grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        measured = [_grid_mse(params, T, m) if m < T else 0.0 for m in grid]
        bounds = math.exp(2.0 * math.log(s0) + growth) * (
            np.exp(2.0 * max(mu, 0.0) * inv_m) * np.expm1(var * inv_m)
            + np.expm1(abs(mu) * inv_m) ** 2
        )
    bounds = bounds.tolist()
    # past the guard above, a tiny s0 can still overflow e^{mu u}, a large sigma
    # expm1(sigma^2 u), and a strong drift the bound's product of two factors
    if not all(map(math.isfinite, measured + bounds)):
        raise ValueError(
            f"subsample-error probe overflows a double at s0 = {s0}, mu = {mu}, "
            f"sigma = {params.sigma}"
        )
    return BoundReport(
        bound_name="subsample_grid_mse",
        parameter_grid=[{"eps": e, "M": m, "T": T} for e, m in zip(eps_values, grid)],
        measured=measured,
        bound_values=bounds,
        passes=[x <= b for x, b in zip(measured, bounds)],
    )


def _distinct(values: list, name: str) -> list:
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must be distinct, got {values}")
    return values
