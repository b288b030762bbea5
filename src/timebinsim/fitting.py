"""Estimators for simulated and measured data: fringe visibility and power
scaling of the pair and noise yields.

The fringe fit is deliberately linear. A sinusoid with unknown amplitude,
phase and offset is y = A + B cos(phi) + C sin(phi), so weighted normal
equations solve it exactly in one step; no iterative optimizer, no starting
guess, no convergence question.

The fits run on the standard library. The normal equations are summed with
math.fsum, then solved and inverted exactly in rationals, and the
visibility and its error are each rounded once from the exact solution:
the fringe fit never rounds a square of its count level to a float. So a
fit is a pure function of its input floats: it does not depend on which
BLAS kernel (OpenBLAS picks one per CPU at run time under DYNAMIC_ARCH)
numpy would have used, and exact V = 1 data are not clamped by a rounding
error one ulp above 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import atan2, cos, fsum, hypot, inf, isfinite, isqrt, pi, sin


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


def _vectors(names: str, *columns) -> list[list[float]]:
    """The columns as lists of floats: 1-d, of one length and finite, or a
    one-line ValueError naming them."""
    try:
        lists = [[float(v) for v in c] for c in columns if getattr(c, "ndim", 1) == 1]
    except (TypeError, ValueError):  # ragged or non-numeric input
        lists = []
    if len(lists) != len(columns) or len({len(v) for v in lists}) != 1:
        raise ValueError(f"{names} must be 1-d arrays of equal length")
    if not all(isfinite(v) for c in lists for v in c):
        raise ValueError(f"{names} must be finite")
    return lists


def _sqrt(x: Fraction) -> float:
    """Correctly rounded square root of a non-negative rational.

    The integer root carries at least 59 bits, and an inexact one is made
    odd, so rounding it to a float once rounds the true root correctly.
    """
    num, den = x.numerator, x.denominator
    shift = max(0, (den.bit_length() - num.bit_length()) // 2 + 60)
    scaled, rest = divmod(num << 2 * shift, den)
    root = isqrt(scaled)
    if rest or root * root != scaled:
        root |= 1
    return root / (1 << shift)


def _solve(normal, rhs):
    """Exact solution and inverse of a positive definite symmetric 3x3 system (rationals)."""
    (a, b, c), (_, e, f), (_, _, i) = normal
    adj = (
        (e * i - f * f, c * f - b * i, b * f - c * e),
        (c * f - b * i, a * i - c * c, b * c - a * f),
        (b * f - c * e, b * c - a * f, a * e - b * b),
    )
    det = a * adj[0][0] + b * adj[0][1] + c * adj[0][2]
    # Sylvester's test (a > 0): rounding can make a near-singular one indefinite.
    if det <= 0 or adj[2][2] <= 0:
        raise ValueError("phase samples do not determine the fringe: singular normal equations")
    inverse = [[entry / det for entry in row] for row in adj]
    return [sum(m * v for m, v in zip(row, rhs)) for row in inverse], inverse


def fit_fringe(phases, counts) -> FringeFit:
    """Fit counts(phi) = A (1 + V cos(phi + phi0)) by exact linear solve.

    Weighted by 1/max(counts, 1) (Poisson variance, floored so empty bins
    stay usable). Needs at least 4 samples spanning more than pi: with less
    coverage the three coefficients are degenerate or nearly so.
    """
    phi, y = _vectors("phases and counts", phases, counts)
    if len(phi) < 4:
        raise ValueError(f"need at least 4 phase samples, got {len(phi)}")
    if max(phi) - min(phi) <= pi:
        raise ValueError("phase samples must span more than pi")
    if any(v < 0 for v in y):
        raise ValueError("counts must be non-negative")

    design = [(1.0, cos(p), sin(p)) for p in phi]
    weights = [1.0 / max(v, 1.0) for v in y]
    columns = list(zip(*design))
    normal = [
        [Fraction(fsum(w * xj * xk for w, xj, xk in zip(weights, cj, ck))) for ck in columns]
        for cj in columns
    ]
    rhs = [Fraction(fsum(w * xj * v for w, xj, v in zip(weights, cj, y))) for cj in columns]
    # Weights are inverse Poisson variances, so the normal-equation inverse
    # is the coefficient covariance directly.
    (level_q, b_q, c_q), cov = _solve(normal, rhs)
    if level_q <= 0:
        raise ValueError(f"fitted mean level {float(level_q):.3g} <= 0: no signal to normalize by")

    level, b_cos, c_sin = float(level_q), float(b_q), float(c_q)
    amplitude_sq = b_q**2 + c_q**2
    visibility = _sqrt(amplitude_sq / level_q**2)
    clamped = visibility > 1.0
    if clamped:
        visibility = 1.0

    # Delta method on V^2 = s / A^2, s = B^2 + C^2, exact: var(V) = h' cov h
    # / (s A^2), h = (-s / A, B, C); at s = 0, h = (0, 1, 1) and s counts as 1.
    h = (-amplitude_sq / level_q, b_q, c_q) if amplitude_sq else (0, 1, 1)
    variance = sum(hj * cov[j][k] * hk for j, hj in enumerate(h) for k, hk in enumerate(h))
    visibility_error = _sqrt(variance / (amplitude_sq or 1) / level_q**2)

    residual = [v - (level + b_cos * xc + c_sin * xs) for v, (_, xc, xs) in zip(y, design)]
    return FringeFit(
        visibility=visibility,
        phase_offset=atan2(-c_sin, b_cos),
        mean_level=level,
        visibility_error=visibility_error,
        residual_norm=hypot(*residual),
        clamped=clamped,
    )


def proportional_fit(x, y, names: str = "x and y") -> tuple[float, float, float]:
    """Least-squares slope of y = k x through the origin.

    Returns (k, var(k), r2). r2 is computed against the mean-of-y baseline,
    so a wrong power law shows up as a visibly poorer r2 even when the
    slope itself converges. names are the columns x and y come from, for
    the error messages.
    """
    x, y = _vectors(names, x, y)
    if len(x) < 3:
        raise ValueError(f"need at least 3 points, got {len(x)}")
    try:
        sxx = fsum(v * v for v in x)
        sxy = fsum(u * v for u, v in zip(x, y))
    except OverflowError:  # fsum's partial sums left the float range
        sxx = inf
    if not isfinite(sxx) or not isfinite(sxy):
        raise ValueError(f"{names} overflow the sums of the least-squares fit")
    if sxx == 0.0:
        raise ValueError("all x are zero: slope undefined")
    k = sxy / sxx
    sse = fsum((v - k * u) ** 2 for u, v in zip(x, y))
    var = sse / (len(x) - 1) / sxx
    mean = fsum(y) / len(y)
    sstot = fsum((v - mean) ** 2 for v in y)
    r2 = 1.0 - sse / sstot if sstot > 0 else 1.0
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
    (p,) = _vectors("power_w", power_w)
    if any(v <= 0 for v in p):
        raise ValueError("powers must be positive")
    if bandwidth_time_product <= 0:
        raise ValueError("bandwidth_time_product must be positive")
    pair_x = [v * v * bandwidth_time_product for v in p]
    if not all(isfinite(v) for v in pair_x):
        raise ValueError(f"power_w must keep p^2 F finite, got a power of {max(p)!r}")
    noise_x = [v * bandwidth_time_product for v in p]
    a_hat, a_var, r2_a = proportional_fit(pair_x, mu_pairs, "power_w and mu_pairs")
    bs_hat, bs_var, r2_s = proportional_fit(noise_x, mu_noise_signal, "power_w and mu_noise_signal")
    bi_hat, bi_var, r2_i = proportional_fit(noise_x, mu_noise_idler, "power_w and mu_noise_idler")
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
