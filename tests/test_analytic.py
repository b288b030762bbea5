"""Closed-form statistics: means, pump inversion, ratio routes, visibility."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import lossless_config, saturation_gap
from timebinsim import (
    PairStatistics,
    PhasePair,
    car_closed_form,
    default_config,
    estimate_gamma,
    expected_histogram,
    predicted_visibility,
    pump_power_for_mu,
)
from timebinsim.analytic import sweep_config
from timebinsim.params import SourceParams, arm_detection

# Baseline operating point, evaluated by hand:
#   5.78 * (5.037e-3)^2 * 0.75  and  1.03 * 5.037e-3 * 0.75
MU_PAIRS_BASELINE = 1.09984884615e-4
MU_NOISE_BASELINE = 3.8910825e-3


def source_with_f(bandwidth_time_product: float) -> SourceParams:
    """Baseline coefficients with the bandwidth-time product set directly."""
    return SourceParams(
        pair_coeff=5.78,
        noise_coeff=1.03,
        bandwidth_ghz=bandwidth_time_product,
        pulse_width_ns=1.0,
        rep_rate_ghz=1.0,
        peak_power_w=1e-3,
    )


class TestPairStatistics:
    def test_baseline_means(self, baseline):
        st = PairStatistics.from_power(baseline.source.peak_power_w, baseline.source)
        assert st.mu_pairs == pytest.approx(MU_PAIRS_BASELINE, rel=1e-12)
        assert st.mu_noise_signal == pytest.approx(MU_NOISE_BASELINE, rel=1e-12)
        assert st.mu_noise_idler == st.mu_noise_signal
        assert st.mu_total == pytest.approx(st.mu_pairs + st.mu_noise_signal, rel=1e-15)

    @pytest.mark.parametrize("power", [1e-4, 1e-3, 0.02, 0.3])
    def test_quadratic_and_linear_power_scaling(self, baseline, power):
        src = baseline.source
        single = PairStatistics.from_power(power, src)
        double = PairStatistics.from_power(2 * power, src)
        assert double.mu_pairs == pytest.approx(4 * single.mu_pairs, rel=1e-14)
        assert double.mu_noise_signal == pytest.approx(2 * single.mu_noise_signal, rel=1e-14)
        assert double.mu_noise_idler == pytest.approx(2 * single.mu_noise_idler, rel=1e-14)

    def test_zero_power(self, baseline):
        st = PairStatistics.from_power(0.0, baseline.source)
        assert st.mu_pairs == 0.0
        assert st.mu_noise_signal == 0.0
        assert st.mu_total == 0.0

    def test_pair_mean_overflows_to_inf(self, baseline):
        # p^2 leaves the float range near 1.3e154 W; the mean is inf, as
        # any overflowing float product, not an OverflowError.
        st = PairStatistics.from_power(1e200, baseline.source)
        assert st.mu_pairs == math.inf
        assert st.mu_total == math.inf

    def test_pair_mean_uses_the_correctly_rounded_square(self, baseline):
        # libm pow, behind float ** 2, rounds this square one ulp off.
        p, src = 0.008369856676848756, baseline.source
        st = PairStatistics.from_power(p, src)
        assert st.mu_pairs == src.pair_coeff * float(Fraction(p) ** 2) * src.bandwidth_time_product

    def test_negative_power_rejected(self, baseline):
        with pytest.raises(ValueError, match="peak power must be >= 0"):
            PairStatistics.from_power(-1e-3, baseline.source)


class TestPumpInversion:
    @pytest.mark.parametrize("f", [0.1, 0.75, 2.5, 10.0])
    def test_round_trip(self, f):
        src = source_with_f(f)
        for mu in np.logspace(-9, -0.3, 40):
            power = pump_power_for_mu(mu, src)
            back = PairStatistics.from_power(power, src).mu_total
            assert back == pytest.approx(mu, rel=1e-12)

    def test_small_mu_is_noise_dominated(self):
        # mu = (a p + b) p F -> p ~ mu / (b F) once the quadratic term dies.
        src = source_with_f(0.75)
        power = pump_power_for_mu(1e-9, src)
        assert power * src.noise_coeff * src.bandwidth_time_product == pytest.approx(
            1e-9, rel=1e-4
        )

    def test_monotone_in_mu(self):
        src = source_with_f(0.75)
        powers = [pump_power_for_mu(mu, src) for mu in np.logspace(-8, 0, 30)]
        assert all(lo < hi for lo, hi in zip(powers, powers[1:]))

    def test_zero_mu(self):
        assert pump_power_for_mu(0.0, source_with_f(0.75)) == 0.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu_total"):
            pump_power_for_mu(-1e-4, source_with_f(0.75))


class TestSweepConfig:
    """The one rule for a sweep point, read by the analytic command and car_curve."""

    @pytest.fixture(params=[False, True], ids=["plain", "interferometers"])
    def cfg(self, baseline, request):
        return replace(baseline, interferometers_present=request.param, seed=7, num_pulses=123)

    @staticmethod
    def restored(point, cfg, *names):
        """point with the named source fields set back to cfg's."""
        back = {name: getattr(cfg.source, name) for name in names}
        return replace(point, source=replace(point.source, **back))

    @pytest.mark.parametrize("mu", [1e-6, 4e-3, 0.3])
    def test_mu_re_solves_the_pump_power(self, cfg, mu):
        point, mu_point = sweep_config(cfg, "mu", mu)
        assert mu_point == mu
        src = point.source
        assert PairStatistics.from_power(src.peak_power_w, src).mu_total == pytest.approx(
            mu, rel=1e-12
        )
        assert self.restored(point, cfg, "peak_power_w") == cfg

    def test_power_sets_the_pump_power(self, cfg):
        point, mu = sweep_config(cfg, "power", 2e-2)
        assert point.source.peak_power_w == 2e-2
        assert mu == PairStatistics.from_power(2e-2, cfg.source).mu_total
        assert self.restored(point, cfg, "peak_power_w") == cfg

    @pytest.mark.parametrize("dfdt", [0.25, 2.5])
    def test_dfdt_holds_the_channel_mean(self, cfg, dfdt):
        operating = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source).mu_total
        point, mu = sweep_config(cfg, "dfdt", dfdt)
        src = point.source
        assert src.bandwidth_time_product == pytest.approx(dfdt, rel=1e-12)
        assert mu == operating
        assert PairStatistics.from_power(src.peak_power_w, src).mu_total == pytest.approx(
            operating, rel=1e-12
        )
        assert self.restored(point, cfg, "peak_power_w", "bandwidth_ghz") == cfg

    @pytest.mark.parametrize("sweep", ["Power", "pump", ""])
    def test_unknown_sweep_is_refused(self, cfg, sweep):
        with pytest.raises(ValueError) as err:
            sweep_config(cfg, sweep, 1e-3)
        assert str(err.value) == f"sweep must be one of mu, power, dfdt, got {sweep!r}"


class TestCarRoutes:
    def test_frozen_point_no_dark(self):
        # Hand evaluation at mu = 0.004, F = 2.5, unit alpha, no darks:
        # (mu a / mu a)^2 * 4*5.78 / (2.5 * (1.03 + sqrt(1.03^2 + 4*5.78*0.004/2.5))^2) + 1
        src = source_with_f(2.5)
        got = car_closed_form(0.004, src, 1.0, 0.0)
        root = math.sqrt(1.03**2 + 4 * 5.78 * 0.004 / 2.5)
        direct = 4 * 5.78 / (2.5 * (1.03 + root) ** 2) + 1.0
        assert got == pytest.approx(direct, rel=1e-14)
        assert got == pytest.approx(3.142095894889224, rel=1e-12)

    def test_frozen_point_with_dark(self):
        # Same operating point seen through alpha = 5.8e-3 with darks at
        # 7e-6 per slot; the click-probability prefactor does the damage.
        src = source_with_f(2.5)
        got = car_closed_form(0.004, src, 0.0058, 7e-6)
        assert got == pytest.approx(2.264156938802219, rel=1e-12)

    def test_two_routes_agree_on_grid(self):
        # The closed form is the unsaturated limit of the exact symmetric-arm
        # ratio: above it by its first-order term, within eps^2.
        for f in np.logspace(-1, 1, 10):
            for mu in np.logspace(-5, -1, 10):
                gap, first_order, eps = saturation_gap(source_with_f(f), mu, 0.0058, 3e-8)
                assert 0 < gap < eps
                assert gap == pytest.approx(first_order, abs=eps**2)

    def test_alpha_drops_out_without_darks(self):
        src = source_with_f(0.75)
        for alpha in (1.0, 0.31, 0.0058):
            assert car_closed_form(2e-3, src, alpha, 0.0) == pytest.approx(
                car_closed_form(2e-3, src, 1.0, 0.0), rel=1e-12
            )

    def test_low_mu_plateau(self):
        # With no darks the ratio saturates at 1 + a/(F b^2).
        src = source_with_f(0.75)
        plateau = 1.0 + 5.78 / (0.75 * 1.03**2)
        assert car_closed_form(1e-9, src, 1.0, 0.0) == pytest.approx(plateau, rel=1e-3)

    def test_decreasing_in_mu_without_darks(self):
        src = source_with_f(0.75)
        values = [car_closed_form(mu, src, 1.0, 0.0) for mu in np.logspace(-6, 0, 25)]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))
        # Pair-dominated tail: the excess over 1 dies off as 1/mu.
        assert car_closed_form(100.0, src, 1.0, 0.0) == pytest.approx(1.01, abs=2e-3)

    def test_decreasing_in_bandwidth_time_product(self):
        values = [
            car_closed_form(1e-3, source_with_f(f), 1.0, 0.0)
            for f in (0.1, 0.75, 2.5, 10.0)
        ]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_darks_only_hurt(self):
        src = source_with_f(0.75)
        values = [
            car_closed_form(1e-3, src, 0.0058, d) for d in (0.0, 1e-8, 1e-6, 1e-4)
        ]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_error_paths(self):
        src = source_with_f(0.75)
        with pytest.raises(ValueError, match="mu_total"):
            car_closed_form(-1e-3, src, 1.0, 0.0)
        with pytest.raises(ValueError, match="accidental"):
            car_closed_form(0.0, src, 1.0, 0.0)


class TestPredictedVisibility:
    def test_baseline_arms(self, baseline):
        st = PairStatistics.from_power(baseline.source.peak_power_w, baseline.source)
        v = predicted_visibility(st, *arm_detection(baseline, True), baseline.coherence_slots)
        assert v == pytest.approx(0.7729050660168877, rel=1e-12)

    def test_baseline_is_the_unsaturated_exact_visibility(self, baseline):
        # The singles do not depend on the phases, and the sectors only on their
        # sum: the exact visibility is the delay-0 bin's at sums 0 and pi.
        cfg = replace(baseline, interferometers_present=True)
        p0, p_pi = (expected_histogram(cfg, PhasePair(phi, 0.0))[0] for phi in (0.0, math.pi))
        exact = (p0 - p_pi) / (p0 + p_pi)
        assert exact == pytest.approx(0.7729030, abs=5e-8)
        st = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
        v = predicted_visibility(st, *arm_detection(cfg, True), cfg.coherence_slots)
        assert v == pytest.approx(exact, abs=1e-5)

    def test_lossless_same_source(self, baseline):
        st = PairStatistics.from_power(baseline.source.peak_power_w, baseline.source)
        v = predicted_visibility(st, 1.0, 1.0, 0.0, 0.0, baseline.coherence_slots)
        assert v == pytest.approx(0.7737561919911647, rel=1e-12)

    @pytest.mark.parametrize("n_slots", [2, 10, 1000])
    def test_pure_pairs_reach_the_ideal_bound(self, n_slots):
        # No noise photons, no darks, vanishing pair rate: accidentals from
        # the pairs themselves are second order and drop out.
        st = PairStatistics(
            mu_pairs=1e-9, mu_noise_signal=0.0, mu_noise_idler=0.0, mu_total=1e-9
        )
        v = predicted_visibility(st, 0.4, 0.2, 0.0, 0.0, n_slots)
        assert v == pytest.approx((n_slots - 1) / n_slots, rel=1e-8)

    def test_noise_lowers_it(self):
        values = []
        for mu_n in (0.0, 1e-4, 1e-3, 1e-2):
            st = PairStatistics(
                mu_pairs=1e-4,
                mu_noise_signal=mu_n,
                mu_noise_idler=mu_n,
                mu_total=1e-4 + mu_n,
            )
            values.append(predicted_visibility(st, 0.1, 0.1, 0.0, 0.0, 1000))
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_darks_lower_it(self):
        st = PairStatistics(
            mu_pairs=1e-4, mu_noise_signal=1e-3, mu_noise_idler=1e-3, mu_total=1.1e-3
        )
        values = [
            predicted_visibility(st, 0.0058, 0.0058, d, d, 1000)
            for d in (0.0, 1e-8, 1e-6, 1e-5)
        ]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_asymmetric_arms_use_both_alphas(self):
        st = PairStatistics(
            mu_pairs=1e-4, mu_noise_signal=1e-3, mu_noise_idler=2e-3, mu_total=2.1e-3
        )
        v_ab = predicted_visibility(st, 0.006, 0.005, 5e-8, 1e-8, 1000)
        v_ba = predicted_visibility(st, 0.005, 0.006, 5e-8, 1e-8, 1000)
        assert v_ab != v_ba

    def test_error_paths(self):
        st = PairStatistics(
            mu_pairs=1e-4, mu_noise_signal=0.0, mu_noise_idler=0.0, mu_total=1e-4
        )
        with pytest.raises(ValueError, match="n_slots"):
            predicted_visibility(st, 1.0, 1.0, 0.0, 0.0, 1)
        empty = PairStatistics(
            mu_pairs=0.0, mu_noise_signal=0.0, mu_noise_idler=0.0, mu_total=0.0
        )
        with pytest.raises(ValueError, match="visibility"):
            predicted_visibility(empty, 1.0, 1.0, 0.0, 0.0, 1000)


class TestExpectedHistogram:
    @pytest.mark.parametrize("phases", [None, PhasePair(1.0, 0.3)])
    def test_pump_power_at_the_float_range(self, baseline, phases):
        # At 1e100 W every mean is finite and both arms click in every slot,
        # so each bin is 1, with no overflow of exp(m_d) on the way. At
        # 1e200 W the pair mean overflows, and the config is refused in one
        # line, not returned as NaN bins.
        for cfg in (baseline, lossless_config(1.0, 10)):
            cfg = replace(cfg, interferometers_present=phases is not None)
            huge = replace(cfg, source=replace(cfg.source, peak_power_w=1e100))
            assert expected_histogram(huge, phases) == dict.fromkeys(range(-3, 4), 1.0)
            beyond = replace(cfg, source=replace(cfg.source, peak_power_w=1e200))
            with pytest.raises(ValueError, match="peak_power_w must keep the channel mean finite") as exc:
                expected_histogram(beyond, phases)
            assert "\n" not in str(exc.value)

    def test_coherence_window_without_a_float_refused(self, baseline):
        # 10**400 slots have no float: the config is refused in one line
        # before the sector norms convert the count.
        cfg = replace(baseline, coherence_slots=10**400, interferometers_present=True)
        with pytest.raises(ValueError) as exc:
            expected_histogram(cfg, PhasePair(0.0, 0.0))
        expected = f"invalid config: coherence_slots must be in [2, 2**63), got {10**400}"
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "interferometers, phases, message",
        [
            (True, None, "histogram runs model the setup without interferometers"),
            (False, PhasePair(0.3, 0.2), "fringe runs require interferometers_present = True"),
        ],
    )
    def test_phases_need_the_interferometers(self, baseline, interferometers, phases, message):
        # The sampler's rule: a fringe point needs the interferometers, and
        # the histogram without phases models the setup without them.
        cfg = replace(baseline, interferometers_present=interferometers)
        with pytest.raises(ValueError) as exc:
            expected_histogram(cfg, phases)
        assert str(exc.value) == message


class TestEstimateGamma:
    def test_frozen_value(self):
        assert estimate_gamma(5.78, 420e-6) == pytest.approx(
            math.sqrt(5.78) / 420e-6, rel=1e-14
        )
        assert estimate_gamma(5.78, 420e-6) == pytest.approx(5724.197752462528, rel=1e-12)

    def test_quadruple_coefficient_doubles_gamma(self):
        assert estimate_gamma(4 * 5.78, 420e-6) == pytest.approx(
            2 * estimate_gamma(5.78, 420e-6), rel=1e-14
        )

    def test_error_paths(self):
        with pytest.raises(ValueError, match="pair_coeff"):
            estimate_gamma(0.0, 420e-6)
        with pytest.raises(ValueError, match="device_length"):
            estimate_gamma(5.78, 0.0)
