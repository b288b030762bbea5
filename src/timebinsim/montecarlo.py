"""Event-stream Monte Carlo of the source and detection chain.

Two run types share one sampling backbone:

* coincidence-histogram runs (no interferometers): Poisson pair and noise
  photons, loss thinning, dark counts, and a delay histogram of click
  pairs, feeding the coincidence-to-accidental estimate;
* fringe runs (both interferometers in): single-pair emission per pulse,
  with the joint slot outcome sampled from the exact two-photon
  amplitudes, and delay-0 coincidences accumulated per phase setting.

Work scales with detections, not pulses. A stream is a Poisson total at
uniform slots, i.e. an independent Poisson count per slot; loss thinning
splits the pairs into independent streams (both arms, one, neither). A slot
hit with probability exactly p (a dark, a fringe-run emission) is drawn at
mean -log(1 - p) and collapsed to a slot set. Detections travel per channel
as (slots, counts): slots ascending, counts >= 1.

Reproducibility contract: pulses are processed in fixed blocks of
BLOCK_PULSES; block b of sweep point p draws from
default_rng((seed, b, p)) and results are merged in block order. A single
run is point 0, and SeedSequence pads its entropy with zeros, so its block
b draws from default_rng((seed, b)). Output is a pure function of
(config, seed, point) no matter how many workers execute the blocks.

Detectors are threshold detectors: any number of photons in one slot
collapses to a single click. The uncollapsed per-slot detection counts are
exposed for diagnostics, since comparing the two histograms bounds the
multi-photon contribution.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import log1p, sqrt

import numpy as np

from .analytic import PairStatistics
from .params import ExperimentConfig, arm_detection, require_valid
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
    starts = range(0, num_pulses, BLOCK_PULSES)
    return [(i, min(BLOCK_PULSES, num_pulses - start)) for i, start in enumerate(starts)]


def _dispatch(worker, args_list, workers: int):
    """Yield worker(args) in order, so callers can merge each and free it. The
    pool starts all its processes at once: no more than there are blocks or cores.
    """
    size = min(workers, len(args_list), os.cpu_count() or 1)
    if size <= 1:
        yield from map(worker, args_list)
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield from pool.map(worker, args_list)


def _run_blocks(block, cfg: ExperimentConfig, point: int, workers: int, *extra):
    """Per-block results of one run, yielded in block order. Block b gets
    (key, length, means, per-arm detection, *extra), keyed (cfg.seed, b, point).
    """
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    means = (stats.mu_pairs, stats.mu_noise_signal, stats.mu_noise_idler)
    detection = arm_detection(cfg, include_interferometer=cfg.interferometers_present)
    args = [
        ((cfg.seed, index, point), length, *means, *detection, *extra)
        for index, length in _blocks(cfg.num_pulses)
    ]
    return _dispatch(block, args, workers)


def _events(rng: np.random.Generator, n: int, mean: float) -> np.ndarray:
    """Unsorted slots of Poisson(mean) events in each of n slots."""
    return rng.integers(0, n, rng.poisson(mean * n))


def _slot_set(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Ascending slots, each present with probability exactly p."""
    return np.unique(_events(rng, n, -log1p(-p)))


# ----------------------------------------------------------------------
# coincidence-histogram runs (no interferometers)
# ----------------------------------------------------------------------

def _car_block(args):
    """Detection events of one pulse block, (slots, counts) per channel.

    Draw order is fixed: pairs seen in both arms, signal only, idler only,
    signal noise, idler noise, signal darks, idler darks. A recorded dark
    is one detection event, so it adds 1 to the slot's count.
    """
    (key, n, mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i) = args
    rng = np.random.default_rng(key)
    both = _events(rng, n, mu_c * a_s * a_i)
    only_s = _events(rng, n, mu_c * a_s * (1.0 - a_i))
    only_i = _events(rng, n, mu_c * a_i * (1.0 - a_s))
    noise_s = _events(rng, n, mu_n_s * a_s)
    noise_i = _events(rng, n, mu_n_i * a_i)
    dark_s = _slot_set(rng, n, d_s)
    dark_i = _slot_set(rng, n, d_i)
    return (
        np.unique(np.concatenate((both, only_s, noise_s, dark_s)), return_counts=True),
        np.unique(np.concatenate((both, only_i, noise_i, dark_i)), return_counts=True),
    )


def detected_counts(cfg: ExperimentConfig, workers: int = 1, *, point: int = 0):
    """Detection events of a histogram run, (slots, counts) per channel."""
    require_valid(cfg)
    if cfg.interferometers_present:
        raise ValueError("histogram runs model the setup without interferometers")
    merged = ([], []), ([], [])
    for index, block in enumerate(_run_blocks(_car_block, cfg, point, workers)):
        for (slots, counts), (slots_local, counts_local) in zip(merged, block):
            slots.append(slots_local + index * BLOCK_PULSES)
            counts.append(counts_local)
    return tuple((np.concatenate(slots), np.concatenate(counts)) for slots, counts in merged)


def histogram_from_counts(
    signal, idler, num_pulses: int, collapse: bool = True
) -> CoincidenceHistogram:
    """Delay histogram of click pairs from each channel's (slots, counts).

    With collapse=True (the physical detectors) a slot contributes at most
    one click per channel; collapse=False counts every detection pair and
    can only be larger, bin by bin.
    """
    slots_s, counts_s = signal
    slots_i, counts_i = idler
    counts: dict[int, int] = {}
    for delay in range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1):
        _, at_s, at_i = np.intersect1d(
            slots_s + delay, slots_i, assume_unique=True, return_indices=True
        )
        counts[delay] = len(at_s) if collapse else int(np.dot(counts_s[at_s], counts_i[at_i]))
    window = tuple(d for d in counts if d != 0)
    return CoincidenceHistogram(counts=counts, num_pulses=num_pulses, window_delays=window)


def simulate_car_run(
    cfg: ExperimentConfig, workers: int = 1, *, point: int = 0
) -> CoincidenceHistogram:
    """Full histogram run at the config's pump power."""
    signal, idler = detected_counts(cfg, workers=workers, point=point)
    return histogram_from_counts(signal, idler, cfg.num_pulses, collapse=True)


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
    (key, n, mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i, cum) = args
    rng = np.random.default_rng(key)
    emitting = _slot_set(rng, n, mu_c)
    m = len(emitting)

    category = np.searchsorted(cum, rng.random(m), side="right")
    s_pair = (category <= 2) & (rng.random(m) < a_s)
    i_pair = ((category <= 1) | (category == 3)) & (rng.random(m) < a_i)

    # Noise photons see the interferometer as a phase-insensitive 1/2 loss.
    noise_s = _events(rng, n, mu_n_s * 0.5 * a_s)
    noise_i = _events(rng, n, mu_n_i * 0.5 * a_i)
    other_s = np.union1d(noise_s, _slot_set(rng, n, d_s))
    other_i = np.union1d(noise_i, _slot_set(rng, n, d_i))

    # Only emitting slots can add a pair photon to a coincidence.
    s_other = np.isin(emitting, other_s, assume_unique=True)
    i_other = np.isin(emitting, other_i, assume_unique=True)
    pair = ((category == 0) & s_pair & i_pair) | (s_pair & i_other) | (s_other & i_pair)
    others = np.intersect1d(other_s, other_i, assume_unique=True)
    return len(others) + int(np.count_nonzero(pair & ~(s_other & i_other)))


def simulate_fringe_run(
    cfg: ExperimentConfig, phases: PhasePair, workers: int = 1, *, point: int = 0
) -> int:
    """Delay-0 coincidence count at one phase setting over cfg.num_pulses."""
    require_valid(cfg)
    if not cfg.interferometers_present:
        raise ValueError("fringe runs require interferometers_present = True")
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    if stats.mu_pairs >= SINGLE_PAIR_LIMIT:
        raise ValueError(
            f"pair mean {stats.mu_pairs:.3g} >= {SINGLE_PAIR_LIMIT}: "
            "single-pair-per-pulse sampling is not valid there"
        )
    p_matched, p_both, p_s_only, p_i_only = sector_probabilities(cfg.coherence_slots, phases)
    cumulative = (p_matched, p_both, p_both + p_s_only, p_both + p_s_only + p_i_only)
    return sum(_run_blocks(_fringe_block, cfg, point, workers, cumulative))
