"""Estimators for simulated and measured data: fringe visibility, power
scaling of the pair and noise yields, coincidence-ratio curves.

The fringe fit is deliberately linear. A sinusoid with unknown amplitude,
phase and offset is y = A + B cos(phi) + C sin(phi), so weighted normal
equations solve it exactly in one step; no iterative optimizer, no starting
guess, no convergence question.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import atan2, sqrt

import numpy as np

from .analytic import PairStatistics, car_closed_form, pump_power_for_mu
from .montecarlo import CarEstimate, estimate_car, simulate_car_run
from .params import ExperimentConfig, symmetrized_detection


@dataclass(frozen=True)
class FringeFit:
    """Sinusoid fit of a two-photon fringe, visibility clamped to [0, 1]."""

    visibility: float
    phase_offset: float
    mean_level: float
    visibility_error: float
    residual_norm: float
    clamped: bool


@dataclass(frozen=True)
class ScalingFit:
    """Power-law coefficients recovered from mean-vs-power series.

    One-parameter proportional fits: the pair series against p^2 F, each
    noise series against p F. Variances are the usual least-squares
    estimates; r2 values allow quadratic-vs-linear discrimination.
    """

    pair_coeff_hat: float
    pair_coeff_var: float
    noise_coeff_signal_hat: float
    noise_coeff_signal_var: float
    noise_coeff_idler_hat: float
    noise_coeff_idler_var: float
    r2_pairs: float
    r2_noise_signal: float
    r2_noise_idler: float


@dataclass(frozen=True)
class CarCurveRow:
    mu_total: float
    car_analytic: float
    car_simulated: float
    car_stderr: float


def fit_fringe(phases, counts) -> FringeFit:
    """Fit counts(phi) = A (1 + V cos(phi + phi0)) by exact linear solve.

    Weighted by 1/max(counts, 1) (Poisson variance, floored so empty bins
    stay usable). Needs at least 4 samples spanning more than pi: with less
    coverage the three coefficients are degenerate or nearly so.
    """
    phi = np.asarray(phases, dtype=float)
    y = np.asarray(counts, dtype=float)
    if phi.shape != y.shape or phi.ndim != 1:
        raise ValueError("phases and counts must be 1-d arrays of equal length")
    if len(phi) < 4:
        raise ValueError(f"need at least 4 phase samples, got {len(phi)}")
    if np.ptp(phi) <= np.pi:
        raise ValueError("phase samples must span more than pi")
    if np.any(y < 0):
        raise ValueError("counts must be non-negative")

    design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    weights = 1.0 / np.maximum(y, 1.0)
    xtw = design.T * weights
    normal = xtw @ design
    coeffs = np.linalg.solve(normal, xtw @ y)
    level, b_cos, c_sin = coeffs
    if level <= 0:
        raise ValueError(f"fitted mean level {level:.3g} <= 0: no signal to normalize by")

    amplitude = sqrt(b_cos**2 + c_sin**2)
    visibility = float(amplitude / level)
    clamped = visibility > 1.0
    if clamped:
        visibility = 1.0

    # Weights are inverse Poisson variances, so the normal-equation inverse
    # is the coefficient covariance directly.
    cov = np.linalg.inv(normal)
    if amplitude > 0:
        grad = np.array(
            [-amplitude / level**2, b_cos / (amplitude * level), c_sin / (amplitude * level)]
        )
    else:
        grad = np.array([0.0, 1.0 / level, 1.0 / level])
    visibility_error = float(sqrt(max(grad @ cov @ grad, 0.0)))

    residual = y - design @ coeffs
    return FringeFit(
        visibility=float(visibility),
        phase_offset=atan2(-c_sin, b_cos),
        mean_level=float(level),
        visibility_error=visibility_error,
        residual_norm=float(np.linalg.norm(residual)),
        clamped=clamped,
    )


def proportional_fit(x, y) -> tuple[float, float, float]:
    """Least-squares slope of y = k x through the origin.

    Returns (k, var(k), r2). r2 is computed against the mean-of-y baseline,
    so a wrong power law shows up as a visibly poorer r2 even when the
    slope itself converges.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise ValueError("all x are zero: slope undefined")
    k = float(np.dot(x, y)) / sxx
    resid = y - k * x
    var = float(np.dot(resid, resid)) / (len(x) - 1) / sxx
    sstot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.dot(resid, resid)) / sstot if sstot > 0 else 1.0
    return k, var, r2


def fit_scaling(
    power_w,
    mu_pairs,
    mu_noise_signal,
    mu_noise_idler,
    bandwidth_time_product: float,
) -> ScalingFit:
    """Recover the quadratic and linear yield coefficients from sweeps.

    All three series must share the power axis. The pair series determines
    pair_coeff from mu = a p^2 F; each noise series determines its
    noise_coeff from mu = b p F.
    """
    p = np.asarray(power_w, dtype=float)
    if np.any(p <= 0):
        raise ValueError("powers must be positive")
    if bandwidth_time_product <= 0:
        raise ValueError("bandwidth_time_product must be positive")
    a_hat, a_var, r2_a = proportional_fit(p**2 * bandwidth_time_product, mu_pairs)
    bs_hat, bs_var, r2_s = proportional_fit(p * bandwidth_time_product, mu_noise_signal)
    bi_hat, bi_var, r2_i = proportional_fit(p * bandwidth_time_product, mu_noise_idler)
    return ScalingFit(
        pair_coeff_hat=a_hat,
        pair_coeff_var=a_var,
        noise_coeff_signal_hat=bs_hat,
        noise_coeff_signal_var=bs_var,
        noise_coeff_idler_hat=bi_hat,
        noise_coeff_idler_var=bi_var,
        r2_pairs=r2_a,
        r2_noise_signal=r2_s,
        r2_noise_idler=r2_i,
    )


def car_curve(
    cfg: ExperimentConfig, mu_values, workers: int = 1
) -> list[CarCurveRow]:
    """Analytic and simulated coincidence ratio across channel-mean values.

    Each row re-solves the pump power for its mu, evaluates the closed form
    with the symmetrized detection parameters (geometric-mean alpha, mean
    dark), and runs the histogram simulation at that power as sweep point
    i, so rows draw independent yet reproducible streams.
    """
    alpha_sym, dark_mean = symmetrized_detection(cfg)
    rows = []
    for i, mu in enumerate(mu_values):
        power = pump_power_for_mu(mu, cfg.source)
        analytic = car_closed_form(mu, cfg.source, alpha_sym, dark_mean)
        cfg_row = replace(
            cfg,
            source=replace(cfg.source, peak_power_w=power),
            interferometers_present=False,
        )
        est: CarEstimate = estimate_car(simulate_car_run(cfg_row, workers=workers, point=i))
        rows.append(
            CarCurveRow(
                mu_total=float(mu),
                car_analytic=analytic,
                car_simulated=est.car,
                car_stderr=est.stderr,
            )
        )
    return rows
