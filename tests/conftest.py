"""Shared test helpers.

Monte Carlo checks run on a lossless-channel variant of the baseline
config: with the experimentally realistic alphas (~6e-3) no desk-scale
pulse count populates the histogram, and the quantities under test (ratio
estimates against their own analytic form, raw visibility) do not depend
on the alpha scale.
"""

import math
from dataclasses import replace

import pytest

from timebinsim import (
    ChannelParams,
    ExperimentConfig,
    PairStatistics,
    PhasePair,
    dark_per_slot,
    default_config,
    effective_alpha,
    pump_power_for_mu,
    sector_probabilities,
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
    sectors = None if phases is None else sector_probabilities(cfg.coherence_slots, phases)
    return -(-cfg.num_pulses // block_pulses(cfg, sectors))


def threshold_bin_probabilities(
    cfg: ExperimentConfig, phases: PhasePair | None = None
) -> dict[int, float]:
    """Click-pair probability of one slot pair, by delay -3..3, for
    threshold detectors; phases for a fringe run, None without
    interferometers.

    Every photon stream is Poisson, so with lam_s, lam_i the channels'
    per-slot click means (darks at -log(1 - d)) and m_d the pair mean both
    channels share at delay d,

        P_d = 1 - exp(-lam_s) - exp(-lam_i) + exp(-(lam_s + lam_i - m_d)),

    written below as click_s * click_i + exp(-(lam_s + lam_i)) expm1(m_d).
    m_d is the matched pair mean at 0, the signal-first mean at +1, the
    idler-first mean at -1 and 0 elsewhere.
    """
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    inside = phases is not None
    a_s = effective_alpha(cfg.signal, include_interferometer=inside)
    a_i = effective_alpha(cfg.idler, include_interferometer=inside)
    d_s = dark_per_slot(cfg.signal, cfg.source.rep_rate_ghz)
    d_i = dark_per_slot(cfg.idler, cfg.source.rep_rate_ghz)
    if inside:
        matched, s_first, i_first, s_only, i_only = sector_probabilities(
            cfg.coherence_slots, phases
        )
        kept_s = matched + s_first + i_first + s_only
        kept_i = matched + s_first + i_first + i_only
        # Noise photons see an interferometer as a phase-insensitive 1/2 loss.
        noise = 0.5
    else:
        matched, s_first, i_first = 1.0, 0.0, 0.0
        kept_s = kept_i = noise = 1.0
    lam_s = (stats.mu_pairs * kept_s + stats.mu_noise_signal * noise) * a_s - math.log1p(-d_s)
    lam_i = (stats.mu_pairs * kept_i + stats.mu_noise_idler * noise) * a_i - math.log1p(-d_i)
    shared = stats.mu_pairs * a_s * a_i
    m = {0: shared * matched, 1: shared * s_first, -1: shared * i_first}
    click_s, click_i = -math.expm1(-lam_s), -math.expm1(-lam_i)
    quiet = math.exp(-(lam_s + lam_i))
    return {d: click_s * click_i + quiet * math.expm1(m.get(d, 0.0)) for d in range(-3, 4)}


@pytest.fixture
def baseline() -> ExperimentConfig:
    return default_config()
