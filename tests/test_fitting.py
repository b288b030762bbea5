"""Estimators: exact fringe recovery, power-law fits, ratio-curve plumbing."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import lossless_config
from timebinsim import (
    car_curve,
    expected_histogram,
    fit_fringe,
    fit_scaling,
    proportional_fit,
    pump_power_for_mu,
)

PHASES_16 = 2 * math.pi * np.arange(16) / 16


def sinusoid(phases, level, visibility, offset):
    return level * (1 + visibility * np.cos(phases + offset))


def fold(angle):
    """Wrap to (-pi, pi]."""
    return math.remainder(angle, 2 * math.pi)


class TestFitFringe:
    @pytest.mark.parametrize("visibility", [0.0, 0.3, 0.5, 0.78, 1.0])
    @pytest.mark.parametrize("offset", [0.0, 1.2, -2.5])
    @pytest.mark.parametrize("level", [50.0, 2000.0])
    def test_exact_recovery(self, visibility, offset, level):
        counts = sinusoid(PHASES_16, level, visibility, offset)
        fit = fit_fringe(PHASES_16, counts)
        assert fit.visibility == pytest.approx(visibility, abs=1e-9)
        assert fit.mean_level == pytest.approx(level, rel=1e-9)
        assert fit.residual_norm < 1e-7 * level
        assert not fit.clamped
        if visibility > 0:
            assert fold(fit.phase_offset - offset) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariance_on_exact_data(self):
        counts = sinusoid(PHASES_16, 80.0, 0.6, 0.9)
        small = fit_fringe(PHASES_16, counts)
        large = fit_fringe(PHASES_16, 1000 * counts)
        assert large.visibility == pytest.approx(small.visibility, rel=1e-12)
        assert fold(large.phase_offset - small.phase_offset) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_overmodulated_data_is_clamped(self):
        counts = np.maximum(sinusoid(PHASES_16, 100.0, 1.2, 0.0), 0.0)
        fit = fit_fringe(PHASES_16, counts)
        assert fit.clamped
        assert fit.visibility == 1.0

    def test_residual_flags_a_spike(self):
        counts = sinusoid(PHASES_16, 100.0, 0.5, 0.0)
        counts[5] += 40.0
        fit = fit_fringe(PHASES_16, counts)
        assert fit.residual_norm > 10.0

    def test_error_estimate_calibrated_on_poisson_data(self):
        # Reported one-sigma width against the spread over replicas; the
        # two agree within a factor well under 2 when the model is right.
        level, visibility = 400.0, 0.5
        truth = sinusoid(PHASES_16, level, visibility, 0.0)
        fitted, reported = [], []
        for k in range(60):
            rng = np.random.default_rng(60_000 + k)
            fit = fit_fringe(PHASES_16, rng.poisson(truth))
            fitted.append(fit.visibility)
            reported.append(fit.visibility_error)
        ratio = np.std(fitted) / np.mean(reported)
        assert 0.6 < ratio < 1.6

    def test_mean_visibility_unbiased_on_poisson_data(self):
        truth = sinusoid(PHASES_16, 400.0, 0.5, 0.0)
        fits = [
            fit_fringe(PHASES_16, np.random.default_rng(61_000 + k).poisson(truth))
            for k in range(60)
        ]
        mean_v = np.mean([f.visibility for f in fits])
        assert mean_v == pytest.approx(0.5, abs=0.01)

    def test_rejections(self):
        with pytest.raises(ValueError, match="4 phase samples"):
            fit_fringe([0.0, 2.0, 4.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="span"):
            fit_fringe([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            fit_fringe([0.0, 2.0, 4.0, 6.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            fit_fringe(PHASES_16, np.full(16, -1.0))
        with pytest.raises(ValueError, match="mean level"):
            fit_fringe(PHASES_16, np.zeros(16))
        with pytest.raises(ValueError, match="finite"):
            fit_fringe(PHASES_16, np.full(16, np.nan))

    def test_near_degenerate_phases_are_singular(self):
        # Two distinct phases only: rounding leaves the normal equations
        # indefinite, which gave a negative error variance, reported as 0.
        with pytest.raises(ValueError, match="singular normal equations"):
            fit_fringe([0.0, 0.0, 0.0, math.pi + 1e-15], [5.0, 5.0, 5.0, 7.0])

    def test_flat_fringe_error_at_zero_amplitude(self):
        # The fitted amplitude is near zero here, where the delta method
        # divides by B^2 + C^2; the error is sqrt(2 / (16 * 100)).
        fit = fit_fringe(PHASES_16, np.full(16, 100.0))
        assert fit.visibility < 1e-12
        assert fit.visibility_error == pytest.approx(math.sqrt(2 / 1600), rel=1e-12)

    @pytest.mark.parametrize(
        "phases, counts",
        [
            (PHASES_16.reshape(4, 4), np.full((4, 4), 10.0)),
            (PHASES_16.reshape(16, 1), np.full((16, 1), 10.0)),
            (PHASES_16, np.full((16, 2), 10.0)),
            ([[0.0, 2.0], [4.0, 6.0]], [[1.0, 1.0], [1.0, 1.0]]),
            ([[0.0, 2.0], [4.0]], [1.0, 1.0, 1.0]),
        ],
    )
    def test_two_dimensional_or_ragged_input_rejected(self, phases, counts):
        with pytest.raises(ValueError, match="^phases and counts must be 1-d arrays of equal length$"):
            fit_fringe(phases, counts)

    @pytest.mark.parametrize("offset", [0.0, 1.2, -2.5])
    @pytest.mark.parametrize("level", [50.0, 2000.0])
    def test_unit_visibility_is_rounded_not_clamped(self, level, offset):
        # On these exact V = 1 data the exact least-squares V differs from 1
        # by -1.5e-16 to +1.03e-16: the excess is below half an ulp of 1
        # (1.11e-16), so the correctly rounded V is at most 1.0 and the
        # clamp flag stays clear. A float-only Gaussian elimination of the
        # same normal equations lands one ulp above 1 on three of the six
        # and would report them as clamped.
        fit = fit_fringe(PHASES_16, sinusoid(PHASES_16, level, 1.0, offset))
        assert not fit.clamped
        assert 1.0 - 2.3e-16 < fit.visibility <= 1.0


class TestProportionalFit:
    def test_exact_slope(self):
        x = np.linspace(1.0, 9.0, 12)
        k, var, r2 = proportional_fit(x, 3.7 * x)
        assert k == pytest.approx(3.7, rel=1e-12)
        assert var == pytest.approx(0.0, abs=1e-20)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_wrong_power_law_shows_in_r2(self):
        x = np.linspace(1.0, 10.0, 12)
        y = 0.8 * x**2
        _, _, r2_right = proportional_fit(x**2, y)
        _, _, r2_wrong = proportional_fit(x, y)
        assert r2_right == pytest.approx(1.0, abs=1e-12)
        assert r2_wrong < 0.95

    def test_rejections(self):
        with pytest.raises(ValueError, match="3 points"):
            proportional_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            proportional_fit([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="slope undefined"):
            proportional_fit(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            proportional_fit([1.0, 2.0, math.inf], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.ones((4, 4)), np.ones((4, 4))),
            (np.ones((4, 1)), np.ones((4, 1))),
            (np.ones(4), np.ones((4, 2))),
            ([[1.0, 2.0], [3.0]], [1.0, 2.0, 3.0]),
        ],
    )
    def test_two_dimensional_or_ragged_input_rejected(self, x, y):
        with pytest.raises(ValueError, match="^x and y must be 1-d arrays of equal length$"):
            proportional_fit(x, y)


class TestFitScaling:
    # Linear spacing keeps the effective sample size up: a geometric grid
    # hands the whole fit to its largest point and 1% noise then moves the
    # coefficients by 1%, not 1%/sqrt(N).
    POWERS = np.linspace(0.05, 0.2, 16)

    def exact_series(self, a=5.78, b_s=1.03, b_i=0.9, f=0.75):
        return (
            a * self.POWERS**2 * f,
            b_s * self.POWERS * f,
            b_i * self.POWERS * f,
        )

    def test_noise_free_recovery(self):
        pairs, noise_s, noise_i = self.exact_series()
        fit = fit_scaling(self.POWERS, pairs, noise_s, noise_i, 0.75)
        assert fit.pair_coeff_hat == pytest.approx(5.78, rel=1e-10)
        assert fit.noise_coeff_signal_hat == pytest.approx(1.03, rel=1e-10)
        assert fit.noise_coeff_idler_hat == pytest.approx(0.9, rel=1e-10)
        for r2 in (fit.r2_pairs, fit.r2_noise_signal, fit.r2_noise_idler):
            assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_one_percent_noise_two_percent_coefficients(self):
        rng = np.random.default_rng(62_001)
        pairs, noise_s, noise_i = self.exact_series()
        jitter = lambda y: y * (1 + 0.01 * rng.standard_normal(len(y)))  # noqa: E731
        fit = fit_scaling(self.POWERS, jitter(pairs), jitter(noise_s), jitter(noise_i), 0.75)
        assert fit.pair_coeff_hat == pytest.approx(5.78, rel=0.02)
        assert fit.noise_coeff_signal_hat == pytest.approx(1.03, rel=0.02)
        assert fit.noise_coeff_idler_hat == pytest.approx(0.9, rel=0.02)
        for var in (fit.pair_coeff_var, fit.noise_coeff_signal_var, fit.noise_coeff_idler_var):
            assert var > 0

    def test_row_order_is_irrelevant(self):
        pairs, noise_s, noise_i = self.exact_series()
        perm = np.random.default_rng(62_002).permutation(len(self.POWERS))
        straight = fit_scaling(self.POWERS, pairs, noise_s, noise_i, 0.75)
        shuffled = fit_scaling(
            self.POWERS[perm], pairs[perm], noise_s[perm], noise_i[perm], 0.75
        )
        assert shuffled.pair_coeff_hat == pytest.approx(straight.pair_coeff_hat, rel=1e-12)
        assert shuffled.noise_coeff_idler_hat == pytest.approx(
            straight.noise_coeff_idler_hat, rel=1e-12
        )

    def test_quadratic_series_in_a_linear_slot_degrades_r2(self):
        pairs, noise_s, noise_i = self.exact_series()
        fit = fit_scaling(self.POWERS, pairs, pairs, noise_i, 0.75)
        assert fit.r2_pairs == pytest.approx(1.0, abs=1e-10)
        assert fit.r2_noise_signal < 0.97

    def test_rejections(self):
        pairs, noise_s, noise_i = self.exact_series()
        with pytest.raises(ValueError, match="positive"):
            fit_scaling(np.zeros(8), pairs, noise_s, noise_i, 0.75)
        with pytest.raises(ValueError, match="bandwidth_time_product"):
            fit_scaling(self.POWERS, pairs, noise_s, noise_i, 0.0)
        with pytest.raises(ValueError, match="equal length"):
            fit_scaling(self.POWERS, pairs, noise_s, noise_i[:-1], 0.75)
        with pytest.raises(ValueError, match="^power_w must be 1-d"):
            fit_scaling(self.POWERS.reshape(4, 4), pairs, noise_s, noise_i, 0.75)


class TestCarCurve:
    def test_rows_track_the_closed_form(self):
        dark = 2e-4
        cfg = lossless_config(1e-3, 4_000_000, seed=63_001, dark_rate_hz=dark * 1e9)
        mu_values = [2e-3, 5e-3, 1e-2]
        rows = car_curve(cfg, mu_values)
        assert [r.mu_total for r in rows] == mu_values
        for row in rows:
            power = pump_power_for_mu(row.mu_total, cfg.source)
            p = expected_histogram(replace(cfg, source=replace(cfg.source, peak_power_w=power)))
            accidental = [p[d] for d in (-3, -2, -1, 1, 2, 3)]
            assert row.car_analytic == pytest.approx(p[0] / (sum(accidental) / 6), rel=1e-12)
            assert row.car_simulated == pytest.approx(
                row.car_analytic, abs=4 * row.car_stderr
            )

    def test_deterministic_and_row_seeded(self):
        cfg = lossless_config(1e-3, 200_000, seed=100, dark_rate_hz=2e5)
        pair = car_curve(cfg, [5e-3, 5e-3])
        again = car_curve(cfg, [5e-3, 5e-3])
        assert [r.car_simulated for r in pair] == [r.car_simulated for r in again]
        # Row i is sweep point i of the run's own seed: equal-mu rows differ,
        # and row 1 is not row 0 of the run at the next seed.
        assert pair[0].car_simulated != pair[1].car_simulated
        shifted = car_curve(replace(cfg, seed=cfg.seed + 1), [5e-3])
        assert shifted[0].car_simulated != pair[1].car_simulated

    def test_interferometer_flag_is_overridden(self):
        cfg = lossless_config(1e-3, 500_000, seed=63_003, dark_rate_hz=2e5)
        flagged = replace(cfg, interferometers_present=True)
        assert (
            car_curve(flagged, [1e-2])[0].car_simulated
            == car_curve(cfg, [1e-2])[0].car_simulated
        )


def reference_fringe(phases, counts):
    """fit_fringe's estimate by numpy lstsq on the sqrt-weighted design."""
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    root_w = 1.0 / np.sqrt(np.maximum(counts, 1.0))
    (level, b, c), *_ = np.linalg.lstsq(design * root_w[:, None], counts * root_w, rcond=None)
    cov = np.linalg.inv((design * root_w[:, None] ** 2).T @ design)
    amplitude = math.hypot(b, c)
    grad = np.array([-amplitude / level**2, b / (amplitude * level), c / (amplitude * level)])
    return {
        "visibility": amplitude / level,
        "phase_offset": math.atan2(-c, b),
        "mean_level": level,
        "visibility_error": math.sqrt(grad @ cov @ grad),
        "residual_norm": float(np.linalg.norm(counts - design @ [level, b, c])),
    }


def reference_slope(x, y):
    """(k, var, r2) of proportional_fit by numpy lstsq."""
    (k,), (sse,), *_ = np.linalg.lstsq(x[:, None], y, rcond=None)
    return k, sse / (len(x) - 1) / (x @ x), 1.0 - sse / np.sum((y - y.mean()) ** 2)


class TestNumericsAgainstNumpy:
    """The standard-library fits against numpy least squares on seeded
    Poisson sweeps, and list input against ndarray input."""

    SWEEPS = 240

    def test_fringe_matches_lstsq(self):
        for k in range(self.SWEEPS):
            rng = np.random.default_rng(64_000 + k)
            phases = 2 * math.pi * np.arange(8 + k % 25) / (8 + k % 25)
            level, visibility = rng.uniform(20.0, 2000.0), rng.uniform(0.1, 0.9)
            truth = sinusoid(phases, level, visibility, rng.uniform(-math.pi, math.pi))
            counts = rng.poisson(truth).astype(float)
            fit = fit_fringe(phases, counts)
            want = reference_fringe(phases, counts)
            assert not fit.clamped
            for key, value in want.items():
                assert getattr(fit, key) == pytest.approx(value, rel=1e-12), (k, key)
            assert fit == fit_fringe(phases.tolist(), counts.tolist())

    def test_scaling_matches_lstsq(self):
        powers = np.linspace(0.05, 0.2, 16)
        for k in range(self.SWEEPS):
            rng = np.random.default_rng(65_000 + k)
            scale = 1e6 * rng.uniform(0.5, 2.0)
            series = [
                rng.poisson(scale * a * powers**e * 0.75) / scale
                for a, e in ((5.78, 2), (1.03, 1), (0.9, 1))
            ]
            fit = fit_scaling(powers, *series, 0.75)
            fields = (
                ("pair_coeff", "r2_pairs", powers**2 * 0.75, series[0]),
                ("noise_coeff_signal", "r2_noise_signal", powers * 0.75, series[1]),
                ("noise_coeff_idler", "r2_noise_idler", powers * 0.75, series[2]),
            )
            for name, r2_name, x, y in fields:
                k_hat, var, r2 = reference_slope(x, y)
                assert getattr(fit, name + "_hat") == pytest.approx(k_hat, rel=1e-12), (k, name)
                assert getattr(fit, name + "_var") == pytest.approx(var, rel=1e-12), (k, name)
                assert getattr(fit, r2_name) == pytest.approx(r2, rel=1e-12), (k, name)
            assert fit == fit_scaling(powers.tolist(), *(y.tolist() for y in series), 0.75)

    def test_large_fits_stay_linear_in_time(self):
        # An 8000-row fit takes ~25 ms on 2 vCPUs: the normal equations are
        # summed in floats and only the 3x3 solve is rational. Summing the
        # 1/y-weighted products as rationals took over a second.
        phases = np.linspace(0.0, 2 * math.pi, 8000, endpoint=False)
        counts = np.random.default_rng(66_000).poisson(sinusoid(phases, 50.0, 0.5, 0.3))
        start = time.perf_counter()
        fit_fringe(phases, counts)
        fit_scaling(phases + 1.0, counts, counts, counts, 0.75)
        assert time.perf_counter() - start < 0.5
