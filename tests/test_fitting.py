"""Estimators: exact fringe recovery, power-law fits, ratio-curve plumbing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import lossless_config
from timebinsim import (
    car_closed_form,
    car_curve,
    fit_fringe,
    fit_scaling,
    proportional_fit,
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


class TestCarCurve:
    def test_rows_track_the_closed_form(self):
        dark = 2e-4
        cfg = lossless_config(1e-3, 4_000_000, seed=63_001, dark_rate_hz=dark * 1e9)
        mu_values = [2e-3, 5e-3, 1e-2]
        rows = car_curve(cfg, mu_values)
        assert [r.mu_total for r in rows] == mu_values
        for row in rows:
            assert row.car_analytic == pytest.approx(
                car_closed_form(row.mu_total, cfg.source, 1.0, dark), rel=1e-12
            )
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
