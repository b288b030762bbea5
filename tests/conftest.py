"""Shared test helpers.

Monte Carlo checks run on a lossless-channel variant of the baseline
config: with the experimentally realistic alphas (~6e-3) no desk-scale
pulse count populates the histogram, and the quantities under test (ratio
estimates against their own analytic form, raw visibility) do not depend
on the alpha scale.
"""

from dataclasses import replace

import pytest

from timebinsim import (
    ChannelParams,
    ExperimentConfig,
    PairStatistics,
    PhasePair,
    SourceParams,
    car_closed_form,
    default_config,
    expected_histogram,
    pump_power_for_mu,
)
from timebinsim.montecarlo import block_pulses


def lossless_channel(ch: ChannelParams, dark_rate_hz: float | None = None) -> ChannelParams:
    return replace(
        ch,
        out_coupling_db=0.0,
        channel_loss_db=0.0,
        interferometer_loss_db=0.0,
        detector_efficiency=1.0,
        dark_rate_hz=ch.dark_rate_hz if dark_rate_hz is None else dark_rate_hz,
    )


def lossless_config(
    mu_total: float,
    num_pulses: int,
    seed: int = 20_001,
    dark_rate_hz: float | None = None,
    interferometers: bool = False,
) -> ExperimentConfig:
    """Baseline source at the requested channel mean, perfect detection."""
    cfg = default_config()
    power = pump_power_for_mu(mu_total, cfg.source)
    return replace(
        cfg,
        source=replace(cfg.source, peak_power_w=power),
        signal=lossless_channel(cfg.signal, dark_rate_hz),
        idler=lossless_channel(cfg.idler, dark_rate_hz),
        num_pulses=num_pulses,
        seed=seed,
        interferometers_present=interferometers,
    )


def pairs_only_config(
    mu_pairs: float, n_slots: int, num_pulses: int, seed: int = 31_003
) -> ExperimentConfig:
    """Noiseless, dark-free, lossless fringe run: every emitted pair is seen."""
    cfg = lossless_config(mu_pairs, num_pulses, seed=seed, dark_rate_hz=0.0)
    src = replace(cfg.source, noise_coeff=0.0)
    power = pump_power_for_mu(mu_pairs, src)
    return replace(
        cfg,
        source=replace(src, peak_power_w=power),
        coherence_slots=n_slots,
        interferometers_present=True,
    )


def num_blocks(cfg: ExperimentConfig, phases: PhasePair | None = None) -> int:
    """Blocks a run of cfg is cut into: a histogram run without phases, a
    fringe point at phases with them."""
    return -(-cfg.num_pulses // block_pulses(cfg, phases))


def exact_car(cfg: ExperimentConfig) -> float:
    """The ratio a histogram run of cfg samples: expected_histogram's P(0)
    over the mean of its six accidental bins, as car_curve takes it."""
    p = expected_histogram(cfg)
    return p[0] / ((sum(p.values()) - p[0]) / 6)


def saturation_gap(source: SourceParams, mu_total: float, alpha: float, dark: float) -> tuple:
    """car_closed_form CAR over expected_histogram's ratio, less 1, on two
    arms of detection probability alpha and dark probability dark per slot;
    its first order (1 - 1/CAR) eps; and eps = lam - m/2 + dark^2/lam, with
    lam = mu alpha + dark and m = mu_pairs alpha^2 (derivation in README)."""
    arm = ChannelParams(0.0, 0.0, alpha, dark * source.rep_rate_ghz * 1e9)
    power = pump_power_for_mu(mu_total, source)
    pumped = replace(source, peak_power_w=power)
    p = expected_histogram(replace(default_config(), source=pumped, signal=arm, idler=arm))
    closed = car_closed_form(mu_total, source, alpha, dark)
    stats = PairStatistics.from_power(power, source)
    lam = stats.mu_total * alpha + dark
    eps = lam - stats.mu_pairs * alpha**2 / 2 + dark**2 / lam
    return closed * (sum(p.values()) - p[0]) / (6 * p[0]) - 1, (1 - 1 / closed) * eps, eps


@pytest.fixture
def baseline() -> ExperimentConfig:
    return default_config()
