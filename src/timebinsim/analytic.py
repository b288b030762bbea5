"""Closed forms: two-photon sector probabilities, pair means, the expected
delay histogram, coincidence-to-accidental ratio, visibility prediction.

The source model: per pulse and per unit bandwidth-time product, the
correlated-pair mean grows quadratically with pump peak power while the
single-channel noise mean grows linearly,

    mu_pairs = pair_coeff * p^2 * F        F = bandwidth * pulse width
    mu_noise = noise_coeff * p * F

sector_probabilities splits the pairs behind the interferometers; the rest is
algebra on those two means and the sectors. Nothing is sampled. stream_means
is the channel model, the five per-slot Poisson means that montecarlo draws
and expected_histogram evaluates in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .params import ExperimentConfig, SourceParams, arm_detection, require_valid

# Accidental window: delays -3..+3 around the true-coincidence bin.
COINCIDENCE_WINDOW = 3

# The quantities sweep_config can sweep.
SWEEPS = ("mu", "power", "dfdt")


@dataclass(frozen=True)
class PhasePair:
    """Interferometer phases for the two arms. Raw values, any real number."""

    signal: float
    idler: float


def _matched(n_slots: int, phases: PhasePair, sign: int) -> float:
    """Norm of the slot diagonal: sign +1 with both photons in their
    monitored ports, -1 with one of them discarded. Needs at least two slots
    to carry any entanglement."""
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    inner = 1 + sign * math.cos(phases.signal + phases.idler)
    return (2 + 2 * (n_slots - 1) * inner) / (16 * n_slots)


def sector_probabilities(
    n_slots: int, phases: PhasePair
) -> tuple[float, float, float, float, float]:
    """Joint pair-outcome probabilities after both interferometers.

    Returns (matched, signal first, idler first, signal kept only, idler
    kept only); the neither-kept remainder completes the distribution. With
    both photons kept they share a slot (matched) or sit one slot apart,
    the signal or the idler photon first.

    A pump train coherent over n pulses prepares the pair state
    sum_k |k>_s |k>_i / sqrt(n), k = 1..n: both photons always share a
    slot, with a uniform envelope. A delay-line interferometer with one-slot
    path difference maps each single-photon ket

        |k>  ->  t0 |k> + t1 |k+1>

    with taps (t0, t1) = (1/2, e^{i phi}/2) in the monitored output port and
    (1/2, -e^{i phi}/2) in the discarded one. The map is applied per mode.
    The photon routed to the discarded port is tracked as its own outcome
    rather than renormalized away (50% post-selection per photon).

    After one map per mode the amplitude of signal slot j, idler slot k is
    non-zero only for |j - k| <= 1, and the sector norms follow by hand:

    * Matched (j = k), with s = +1 for the two monitored ports and s = -1
      when exactly one photon is discarded (its delayed tap changes sign).
      The two edge slots have one path each, of weight 1/(16n). Each of the
      n-1 inner slots has two paths, both photons early or both late, which
      interfere: |1 + s e^{i(phi_s + phi_i)}|^2 / (16n). Summed,

          matched(s) = [2 + 2(n-1)(1 + s cos(phi_s + phi_i))] / (16n).

    * One slot apart, signal first or idler first: n slot pairs, each of one
      path with amplitude (1/4)/sqrt(n), so 1/16 at any phase.

    So with both photons kept the sectors are matched(+1), 1/16 and 1/16. A
    port pair with one photon discarded holds matched(-1) + 1/8, and with
    both discarded matched(+1) + 1/8. Since matched(+1) + matched(-1) = 1/4,
    the six outcomes sum to 1 and each photon is kept with probability 1/2.
    The tests check every sector against a brute-force enumeration of the
    kets.
    """
    one_kept = _matched(n_slots, phases, -1) + 1 / 8
    return (_matched(n_slots, phases, 1), 1 / 16, 1 / 16, one_kept, one_kept)


@dataclass(frozen=True)
class PairStatistics:
    """Per-pulse means: correlated pairs, per-channel noise, channel total."""

    mu_pairs: float
    mu_noise_signal: float
    mu_noise_idler: float
    mu_total: float

    @classmethod
    def from_power(cls, peak_power_w: float, source: SourceParams) -> "PairStatistics":
        """The means at a pump peak power; mu_pairs is inf past the float
        range (p above ~1.3e154 W), as any float product."""
        if peak_power_w < 0:
            raise ValueError(f"peak power must be >= 0, got {peak_power_w}")
        mu_c = source.pair_coeff * (peak_power_w * peak_power_w) * source.bandwidth_time_product
        mu_n = source.noise_coeff * peak_power_w * source.bandwidth_time_product
        return cls(mu_c, mu_n, mu_n, mu_c + mu_n)


def pump_power_for_mu(mu_total: float, source: SourceParams) -> float:
    """Invert the channel mean mu = (a p + b) p F for the pump power.

    Positive root of the quadratic, written in the cancellation-free form
    p = v / (u + sqrt(u^2 + v)) with u = b/(2a), v = mu/(aF); the textbook
    -u + sqrt(u^2 + v) loses half the mantissa when v << u^2.
    """
    if mu_total < 0:
        raise ValueError(f"mu_total must be >= 0, got {mu_total}")
    if mu_total == 0.0:
        return 0.0
    a = source.pair_coeff
    b = source.noise_coeff
    f = source.bandwidth_time_product
    if a * f <= 0:
        raise ValueError("pair_coeff and bandwidth-time product must be positive")
    u = b / (2.0 * a)
    v = mu_total / (a * f)
    return v / (u + math.sqrt(u * u + v))


def sweep_config(
    cfg: ExperimentConfig, sweep: str, value: float
) -> tuple[ExperimentConfig, float]:
    """The config at one sweep point, and its channel mean: "mu" re-solves the pump power
    for the mean value, "power" sets the power to value, "dfdt" sets the bandwidth-time
    product to value and re-solves the power to hold cfg's own mean. Nothing else changes."""
    if sweep not in SWEEPS:
        raise ValueError(f"sweep must be one of {', '.join(SWEEPS)}, got {sweep!r}")
    source, mu = cfg.source, value
    if sweep == "dfdt":
        mu = PairStatistics.from_power(source.peak_power_w, source).mu_total
        source = replace(source, bandwidth_ghz=value / source.pulse_width_ns)
    if sweep == "power":
        source = replace(source, peak_power_w=value)
        mu = PairStatistics.from_power(value, source).mu_total
    else:
        source = replace(source, peak_power_w=pump_power_for_mu(mu, source))
    return replace(cfg, source=source), mu


def car_closed_form(mu_total: float, source: SourceParams, alpha: float, dark: float) -> float:
    """Coincidence-to-accidental ratio as an explicit function of mu, in the
    unsaturated, symmetrised limit: both arms at one (alpha, dark), click
    probabilities linear in the means, the pump power eliminated:

        CAR = (mu a / (mu a + d))^2 * 4A / (F (b + sqrt(b^2 + 4A mu/F))^2) + 1

    with A the pair coefficient, b the noise coefficient, F the
    bandwidth-time product. With d = 0 the ratio climbs to 1 + A/(F b^2) as
    mu -> 0 and falls toward 1 at large mu. On symmetric arms it is above
    the exact ratio of expected_histogram by a relative (1 - 1/CAR) eps to
    first order, eps = lam - m/2 + d^2/lam, lam = mu a + d, m = mu_pairs a^2.
    """
    if mu_total < 0:
        raise ValueError(f"mu_total must be >= 0, got {mu_total}")
    a = source.pair_coeff
    b = source.noise_coeff
    f = source.bandwidth_time_product
    denom_click = mu_total * alpha + dark
    if denom_click <= 0.0:
        raise ValueError("no photons and no darks: accidental rate is zero")
    prefactor = (mu_total * alpha / denom_click) ** 2
    root = math.sqrt(b * b + 4.0 * a * mu_total / f)
    return prefactor * 4.0 * a / (f * (b + root) ** 2) + 1.0


def predicted_visibility(
    stats: PairStatistics,
    alpha_signal: float,
    alpha_idler: float,
    dark_signal: float,
    dark_idler: float,
    n_slots: int,
) -> float:
    """Raw two-photon fringe visibility including noise and darks.

    The fringe-averaged true-coincidence level is mu_pairs * alpha_s *
    alpha_i / 8 (each photon keeps 1/2 at its interferometer, and the
    matched-slot sum averages to half of that product); accidentals pair the
    two singles streams, each carrying the interferometer's 1/2. With
    C = mu_pairs alpha_s alpha_i / 4 and A the singles product,

        V = (n-1)/n * C / (C + 2 A)

    where (n-1)/n caps the fringe of the lossless, noise-free state
    (sector_probabilities): the two edge slots of the coherence window are
    each fed by a single path and never interfere.

    The alphas here exclude the 1/2 post-selection (it is explicit in the
    formula) but include any interferometer excess loss. This is the
    unsaturated limit of expected_histogram's exact visibility.
    """
    if n_slots < 2:
        raise ValueError(f"n_slots must be >= 2, got {n_slots}")
    edge_cap = (n_slots - 1) / n_slots
    c = stats.mu_pairs * alpha_signal * alpha_idler / 4.0
    a_acc = ((stats.mu_pairs + stats.mu_noise_signal) * alpha_signal / 2.0 + dark_signal) * (
        (stats.mu_pairs + stats.mu_noise_idler) * alpha_idler / 2.0 + dark_idler
    )
    if c + 2.0 * a_acc <= 0.0:
        raise ValueError("no coincidences at all: visibility undefined")
    return edge_cap * c / (c + 2.0 * a_acc)


def stream_means(cfg: ExperimentConfig, phases: PhasePair | None = None) -> tuple[float, ...]:
    """Per-slot Poisson means of the five independent streams a config's
    detections split into, in montecarlo's draw order.

    Thinning splits the pairs into independent streams, and independent
    streams on the same slots sum to one. Pairs seen in both arms in one
    slot; the signal channel's own stream, its pair photons seen in the
    signal arm only, its noise and its darks; the idler's own stream alike;
    then pairs seen one slot apart, signal first and idler first. A fringe
    point at phases, given if and only if cfg.interferometers_present, splits
    the pairs by sector_probabilities; without phases every pair is matched.
    Noise photons see an interferometer as a phase-insensitive 1/2 loss.
    Darks have mean -log(1 - d), so a slot holds one with probability exactly d.
    """
    inside = phases is not None
    if cfg.interferometers_present != inside:
        raise ValueError(
            "fringe runs require interferometers_present = True"
            if inside
            else "histogram runs model the setup without interferometers"
        )
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    a_s, a_i, d_s, d_i = arm_detection(cfg, include_interferometer=inside)
    matched, s_first, i_first, s_only, i_only = (
        sector_probabilities(cfg.coherence_slots, phases) if inside else (1.0, 0.0, 0.0, 0.0, 0.0)
    )
    noise = 0.5 if inside else 1.0
    mu_c = stats.mu_pairs
    kept = matched + s_first + i_first
    both = mu_c * a_s * a_i
    own_s = (mu_c * (kept * (1.0 - a_i) + s_only) + stats.mu_noise_signal * noise) * a_s
    own_i = (mu_c * (kept * (1.0 - a_s) + i_only) + stats.mu_noise_idler * noise) * a_i
    return (
        both * matched,
        own_s - math.log1p(-d_s),
        own_i - math.log1p(-d_i),
        both * s_first,
        both * i_first,
    )


def expected_histogram(cfg: ExperimentConfig, phases: PhasePair | None = None) -> dict[int, float]:
    """Click-pair probability of one slot pair by delay -3..3, exact per arm
    for threshold detectors: with the interferometers at phases, or without.

    With stream_means' pair means m_d the channels share at delay d (matched
    at 0, signal first at +1, idler first at -1) and each channel's per-slot
    Poisson mean, lam_x = own_x + m_0 + m_1 + m_-1,

        P_d = click_s click_i + exp(-(lam_s + lam_i)) expm1(m_d),

    whose second term is evaluated as exp(m_d - lam_s - lam_i)
    (-expm1(-m_d)), finite at any finite mean. The singles do not depend on
    the phases, and the sectors only on their sum, so the fringe visibility
    is (P_0(0) - P_0(pi)) / (P_0(0) + P_0(pi)).
    """
    require_valid(cfg)
    matched, own_s, own_i, s_first, i_first = stream_means(cfg, phases)
    m = dict.fromkeys(range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1), 0.0)
    m.update({0: matched, 1: s_first, -1: i_first})
    lam_s = own_s + matched + s_first + i_first
    lam_i = own_i + matched + s_first + i_first
    clicks = -math.expm1(-lam_s) * -math.expm1(-lam_i)
    return {d: clicks + math.exp(m_d - lam_s - lam_i) * -math.expm1(-m_d) for d, m_d in m.items()}


def estimate_gamma(pair_coeff: float, device_length_m: float) -> float:
    """Effective nonlinear coefficient, 1/(W m), from the pair yield.

    The quadratic coefficient scales as (gamma L)^2, so gamma is recovered
    as sqrt(pair_coeff)/L. Order-of-magnitude tool: it ignores the exact
    phase-matching and envelope factors absorbed into pair_coeff.
    """
    if pair_coeff <= 0:
        raise ValueError(f"pair_coeff must be > 0, got {pair_coeff}")
    if device_length_m <= 0:
        raise ValueError(f"device_length_m must be > 0, got {device_length_m}")
    return math.sqrt(pair_coeff) / device_length_m
