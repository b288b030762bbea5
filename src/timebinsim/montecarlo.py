"""Pulse-by-pulse Monte Carlo of the source and detection chain.

Two run types share one sampling backbone:

* coincidence-histogram runs (no interferometers): Poisson pair and noise
  draws per pulse, loss thinning, dark counts, and a delay histogram of
  click pairs, feeding the coincidence-to-accidental estimate;
* fringe runs (both interferometers in): single-pair emission conditioned
  per pulse, with the joint slot outcome sampled from the exact two-photon
  amplitudes, and delay-0 coincidences accumulated per phase setting.

Reproducibility contract: pulses are processed in fixed blocks of
BLOCK_PULSES; block i draws from default_rng((seed, i)) and results are
merged in block order. Output is a pure function of (config, seed) no
matter how many workers execute the blocks.

Detectors are threshold detectors: any number of photons in one slot
collapses to a single click. The uncollapsed per-slot detection counts are
exposed for diagnostics, since comparing the two histograms bounds the
multi-photon contribution.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .analytic import PairStatistics
from .params import ExperimentConfig, dark_per_slot, effective_alpha, validate_config
from .quantum import PhasePair, sector_probabilities

# Accidental window: delays -3..+3 around the true-coincidence bin.
COINCIDENCE_WINDOW = 3
# Fixed block size; the unit of seeding and of parallel dispatch.
BLOCK_PULSES = 1_000_000

# Fringe-run emission is sampled as at most one pair per pulse, which is
# only a faithful reading of the Poisson source well below one pair/pulse.
SINGLE_PAIR_LIMIT = 0.1


class InsufficientStatisticsError(ValueError):
    """Raised when a run produced no counts to estimate from."""


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Click-pair counts by slot delay (idler slot minus signal slot)."""

    counts: dict[int, int]
    num_pulses: int
    window_delays: tuple[int, ...]

    @property
    def accidental_total(self) -> int:
        return sum(self.counts[d] for d in self.window_delays)


@dataclass(frozen=True)
class CarEstimate:
    car: float
    stderr: float


def _blocks(num_pulses: int) -> list[tuple[int, int]]:
    """(block index, block length) partition of a run."""
    out = []
    full, rest = divmod(num_pulses, BLOCK_PULSES)
    for i in range(full):
        out.append((i, BLOCK_PULSES))
    if rest:
        out.append((full, rest))
    return out


def _dispatch(worker, args_list, workers: int) -> list:
    if workers <= 1 or len(args_list) <= 1:
        return [worker(args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args_list))


def _require_valid(cfg: ExperimentConfig) -> None:
    bad = validate_config(cfg)
    if bad:
        raise ValueError("invalid config: " + "; ".join(bad))


# ----------------------------------------------------------------------
# coincidence-histogram runs (no interferometers)
# ----------------------------------------------------------------------

def _car_block(args) -> tuple[np.ndarray, np.ndarray]:
    """Detection counts per slot for one pulse block, both channels.

    Draw order is fixed: pairs, signal noise, idler noise, the four
    thinnings, darks. A recorded dark is one detection event, so it adds 1
    to the slot's count.
    """
    (seed, index, n, mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i) = args
    rng = np.random.default_rng((seed, index))
    pairs = rng.poisson(mu_c, n)
    noise_s = rng.poisson(mu_n_s, n)
    noise_i = rng.poisson(mu_n_i, n)
    det_s = rng.binomial(pairs, a_s) + rng.binomial(noise_s, a_s)
    det_i = rng.binomial(pairs, a_i) + rng.binomial(noise_i, a_i)
    det_s += rng.random(n) < d_s
    det_i += rng.random(n) < d_i
    clip = lambda x: np.minimum(x, 255).astype(np.uint8)  # noqa: E731
    return clip(det_s), clip(det_i)


def detected_counts(cfg: ExperimentConfig, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot detection-event counts for a histogram run, both channels."""
    _require_valid(cfg)
    if cfg.interferometers_present:
        raise ValueError("histogram runs model the setup without interferometers")
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    args = [
        (
            cfg.seed,
            index,
            length,
            stats.mu_pairs,
            stats.mu_noise_signal,
            stats.mu_noise_idler,
            effective_alpha(cfg.signal),
            effective_alpha(cfg.idler),
            dark_per_slot(cfg.signal, cfg.source.rep_rate_ghz),
            dark_per_slot(cfg.idler, cfg.source.rep_rate_ghz),
        )
        for index, length in _blocks(cfg.num_pulses)
    ]
    parts = _dispatch(_car_block, args, workers)
    counts_s = np.concatenate([p[0] for p in parts])
    counts_i = np.concatenate([p[1] for p in parts])
    return counts_s, counts_i


def histogram_from_counts(
    counts_signal: np.ndarray,
    counts_idler: np.ndarray,
    collapse: bool = True,
) -> CoincidenceHistogram:
    """Delay histogram of click pairs from per-slot detection counts.

    With collapse=True (the physical detectors) a slot contributes at most
    one click per channel; collapse=False counts every detection pair and
    can only be larger, bin by bin.
    """
    n = len(counts_signal)
    if len(counts_idler) != n:
        raise ValueError("channel count arrays differ in length")
    counts: dict[int, int] = {}
    for delay in range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1):
        s = counts_signal[max(0, -delay) : n - max(0, delay)]
        i = counts_idler[max(0, delay) : n + min(0, delay)]
        if collapse:
            counts[delay] = int(np.count_nonzero((s > 0) & (i > 0)))
        else:
            counts[delay] = int(np.sum(s.astype(np.int64) * i.astype(np.int64)))
    window = tuple(d for d in counts if d != 0)
    return CoincidenceHistogram(counts=counts, num_pulses=n, window_delays=window)


def simulate_car_run(cfg: ExperimentConfig, workers: int = 1) -> CoincidenceHistogram:
    """Full histogram run at the config's pump power."""
    counts_s, counts_i = detected_counts(cfg, workers=workers)
    return histogram_from_counts(counts_s, counts_i, collapse=True)


def estimate_car(hist: CoincidenceHistogram) -> CarEstimate:
    """Coincidence-to-accidental ratio from a delay histogram.

    Delay-0 counts over the mean of the accidental bins, with Poisson error
    propagation on both. Empty bins cannot support an estimate.
    """
    if 0 not in hist.counts or not hist.window_delays:
        raise InsufficientStatisticsError(
            "insufficient statistics: histogram lacks delay-0 or accidental bins"
        )
    zero = hist.counts[0]
    acc_total = hist.accidental_total
    if zero == 0 or acc_total == 0:
        raise InsufficientStatisticsError(
            f"insufficient statistics: delay-0 count {zero}, accidental total {acc_total}"
        )
    mean_acc = acc_total / len(hist.window_delays)
    car = zero / mean_acc
    return CarEstimate(car=car, stderr=car * sqrt(1.0 / zero + 1.0 / acc_total))


# ----------------------------------------------------------------------
# fringe runs (both interferometers in)
# ----------------------------------------------------------------------

def _fringe_block(args) -> int:
    """Delay-0 coincidences in one block of a fringe run.

    Pair outcomes per emitting pulse fall in five bins, with probabilities
    taken from the amplitude engine: both photons kept in matched slots,
    both kept one slot apart, signal kept only, idler kept only, neither.
    Kept photons are then thinned by the channel alphas. The one-slot-apart
    outcome yields two singles but no delay-0 pair coincidence; folding it
    into the matched bin would bias the fringe, since the matched and total
    kept-kept norms carry different phase dependence.
    """
    (seed, index, n, mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i, cum) = args
    rng = np.random.default_rng((seed, index))
    emitted = rng.random(n) < mu_c
    m = int(np.count_nonzero(emitted))

    u = rng.random(m)
    category = np.searchsorted(cum, u, side="right")
    s_kept = category <= 2
    i_kept = (category <= 1) | (category == 3)
    s_pair_sub = s_kept & (rng.random(m) < a_s)
    i_pair_sub = i_kept & (rng.random(m) < a_i)
    matched_sub = category == 0

    idx = np.flatnonzero(emitted)
    s_pair = np.zeros(n, dtype=bool)
    i_pair = np.zeros(n, dtype=bool)
    matched = np.zeros(n, dtype=bool)
    s_pair[idx] = s_pair_sub
    i_pair[idx] = i_pair_sub
    matched[idx] = matched_sub

    # Noise photons see the interferometer as a phase-insensitive 1/2 loss.
    noise_s = rng.binomial(rng.poisson(mu_n_s, n), 0.5 * a_s)
    noise_i = rng.binomial(rng.poisson(mu_n_i, n), 0.5 * a_i)
    other_s = (noise_s > 0) | (rng.random(n) < d_s)
    other_i = (noise_i > 0) | (rng.random(n) < d_i)

    coinc = (
        (matched & s_pair & i_pair)
        | (s_pair & other_i)
        | (other_s & i_pair)
        | (other_s & other_i)
    )
    return int(np.count_nonzero(coinc))


def simulate_fringe_run(
    cfg: ExperimentConfig, phases: PhasePair, workers: int = 1
) -> int:
    """Delay-0 coincidence count at one phase setting over cfg.num_pulses."""
    _require_valid(cfg)
    if not cfg.interferometers_present:
        raise ValueError("fringe runs require interferometers_present = True")
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    if stats.mu_pairs >= SINGLE_PAIR_LIMIT:
        raise ValueError(
            f"pair mean {stats.mu_pairs:.3g} >= {SINGLE_PAIR_LIMIT}: "
            "single-pair-per-pulse sampling is not valid there"
        )
    p_matched, p_both, p_s_only, p_i_only = sector_probabilities(cfg.coherence_slots, phases)
    cumulative = (
        p_matched,
        p_both,
        p_both + p_s_only,
        p_both + p_s_only + p_i_only,
    )
    args = [
        (
            cfg.seed,
            index,
            length,
            stats.mu_pairs,
            stats.mu_noise_signal,
            stats.mu_noise_idler,
            effective_alpha(cfg.signal, include_interferometer=True),
            effective_alpha(cfg.idler, include_interferometer=True),
            dark_per_slot(cfg.signal, cfg.source.rep_rate_ghz),
            dark_per_slot(cfg.idler, cfg.source.rep_rate_ghz),
            cumulative,
        )
        for index, length in _blocks(cfg.num_pulses)
    ]
    return sum(_dispatch(_fringe_block, args, workers))
