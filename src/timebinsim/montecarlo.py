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

Reproducibility contract: a run is cut into consecutive blocks of
block_pulses(cfg) pulses, sized so that a block expects about
EVENTS_PER_BLOCK draws, within [BLOCK_PULSES, MAX_BLOCK_PULSES]. The size
is a pure function of the config, and a Poisson process split at block
edges leaves the blocks independent. Block b of sweep point p draws from
default_rng((seed, b, p)) and results are merged in block order. A single
run is point 0, and SeedSequence pads its entropy with zeros, so its block
b draws from default_rng((seed, b)). Output is a pure function of
(config, seed, point) no matter how many workers execute the blocks.

The delay histogram is folded over the blocks as they arrive. Each
channel's events in the last COINCIDENCE_WINDOW slots are carried into the
next block, so a pair across a block edge is counted once and no run-length
event list is held: memory is O(events per block).

Detectors are threshold detectors: any number of photons in one slot
collapses to a single click. The uncollapsed per-slot detection counts are
exposed for diagnostics, since comparing the two histograms bounds the
multi-photon contribution.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from math import log1p, sqrt

import numpy as np

from .analytic import PairStatistics
from .params import ExperimentConfig, arm_detection, require_valid
from .quantum import PhasePair, sector_probabilities

# Accidental window: delays -3..+3 around the true-coincidence bin.
COINCIDENCE_WINDOW = 3
# A block is the unit of seeding and of parallel dispatch. It costs about
# 5e-8 s per event, so a million events is ~50 ms of work, about what one
# pool process costs to start.
EVENTS_PER_BLOCK = 1_000_000
# Smallest and largest block, in pulses.
BLOCK_PULSES = 1_000_000
MAX_BLOCK_PULSES = 10**10

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


def _stream_parameters(cfg: ExperimentConfig) -> tuple[float, ...]:
    """(mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i): the means and per-arm
    detection every block function starts from."""
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    detection = arm_detection(cfg, include_interferometer=cfg.interferometers_present)
    return (stats.mu_pairs, stats.mu_noise_signal, stats.mu_noise_idler, *detection)


def block_pulses(cfg: ExperimentConfig) -> int:
    """Pulses per block: about EVENTS_PER_BLOCK expected draws of the run's
    block function, clamped to [BLOCK_PULSES, MAX_BLOCK_PULSES]."""
    mu_c, mu_n_s, mu_n_i, a_s, a_i, d_s, d_i = _stream_parameters(cfg)
    darks = -log1p(-d_s) - log1p(-d_i)
    if cfg.interferometers_present:
        rate = mu_c + 0.5 * (mu_n_s * a_s + mu_n_i * a_i) + darks
    else:
        rate = mu_c * (a_s + a_i - a_s * a_i) + mu_n_s * a_s + mu_n_i * a_i + darks
    if rate * MAX_BLOCK_PULSES <= EVENTS_PER_BLOCK:
        return MAX_BLOCK_PULSES
    return max(BLOCK_PULSES, int(EVENTS_PER_BLOCK / rate))


def _blocks(num_pulses: int, size: int) -> list[tuple[int, int]]:
    """(block index, block length) partition of a run into blocks of size."""
    starts = range(0, num_pulses, size)
    return [(i, min(size, num_pulses - start)) for i, start in enumerate(starts)]


def _dispatch(worker, args_list, workers: int):
    """Yield worker(args) in order, so callers can merge each and free it.

    The pool has no more processes than there are blocks or cores, and at
    most two blocks per process are in flight, so finished results wait in
    memory only until the caller reaches them.
    """
    size = min(workers, len(args_list), os.cpu_count() or 1)
    if size <= 1:
        yield from map(worker, args_list)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        pending = deque()
        for args in args_list:
            if len(pending) == 2 * size:
                yield pending.popleft().result()
            pending.append(pool.submit(worker, args))
        while pending:
            yield pending.popleft().result()


def _run_blocks(block, cfg: ExperimentConfig, point: int, workers: int, *extra):
    """(first slot, length, result) of each block of one run, in block order.
    Block b gets (key, length, means, per-arm detection, *extra), keyed
    (cfg.seed, b, point).
    """
    size = block_pulses(cfg)
    blocks = _blocks(cfg.num_pulses, size)
    parameters = _stream_parameters(cfg)
    args = [((cfg.seed, index, point), length, *parameters, *extra) for index, length in blocks]
    results = _dispatch(block, args, workers)
    return ((index * size, length, result) for (index, length), result in zip(blocks, results))


def _events(rng: np.random.Generator, n: int, mean: float) -> np.ndarray:
    """Unsorted slots of Poisson(mean) events in each of n slots."""
    return rng.integers(0, n, rng.poisson(mean * n))


def _distinct(slots: np.ndarray) -> np.ndarray:
    """np.unique by sorting. Without return_counts, numpy 2.3+ takes a hash
    path that is ~50x slower on a million slots."""
    slots = np.sort(slots)
    keep = np.ones(len(slots), dtype=bool)
    np.not_equal(slots[1:], slots[:-1], out=keep[1:])
    return slots[keep]


def _slot_set(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Ascending slots, each present with probability exactly p."""
    return _distinct(_events(rng, n, -log1p(-p)))


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


def _car_blocks(cfg: ExperimentConfig, point: int, workers: int):
    """Blocks of a histogram run, as _run_blocks yields them."""
    require_valid(cfg)
    if cfg.interferometers_present:
        raise ValueError("histogram runs model the setup without interferometers")
    return _run_blocks(_car_block, cfg, point, workers)


def detected_counts(cfg: ExperimentConfig, workers: int = 1, *, point: int = 0):
    """Detection events of a histogram run, (slots, counts) per channel."""
    merged = ([], []), ([], [])
    for start, _, block in _car_blocks(cfg, point, workers):
        for (slots, counts), (slots_local, counts_local) in zip(merged, block):
            slots.append(slots_local + start)
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
    window = COINCIDENCE_WINDOW
    # Signal events within the window of each idler event: [first, last).
    first = np.searchsorted(slots_s, slots_i - window)
    last = np.searchsorted(slots_s, slots_i + window, side="right")
    per_idler = last - first
    at_i = np.repeat(np.arange(len(slots_i)), per_idler)
    at_s = np.arange(len(at_i)) + np.repeat(first - (np.cumsum(per_idler) - per_idler), per_idler)
    # Float weights sum exactly: every partial sum is an integer below 2**53.
    weights = None if collapse else counts_s[at_s] * counts_i[at_i]
    binned = np.bincount(slots_i[at_i] - slots_s[at_s] + window, weights, 2 * window + 1)
    counts = {delay: int(binned[delay + window]) for delay in range(-window, window + 1)}
    delays = tuple(d for d in counts if d != 0)
    return CoincidenceHistogram(counts=counts, num_pulses=num_pulses, window_delays=delays)


def _fold_histogram(blocks, num_pulses: int, collapse: bool) -> CoincidenceHistogram:
    """Delay histogram of a run from its (first slot, length, events) blocks.

    The tail, each channel's events in the last COINCIDENCE_WINDOW slots so
    far, rides into the next block. Adding the histogram of tail + block and
    subtracting the tail's own counts every pair within the block or across
    its leading edge exactly once.
    """
    totals = dict.fromkeys(range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1), 0)
    empty = np.empty(0, dtype=np.int64)
    tail = ((empty, empty), (empty, empty))
    for start, length, block in blocks:
        joined = [
            (np.concatenate((tail_slots, slots + start)), np.concatenate((tail_counts, counts)))
            for (tail_slots, tail_counts), (slots, counts) in zip(tail, block)
        ]
        added = histogram_from_counts(*joined, length, collapse).counts
        counted = histogram_from_counts(*tail, 0, collapse).counts
        for delay in totals:
            totals[delay] += added[delay] - counted[delay]
        edge = start + length - COINCIDENCE_WINDOW
        tail = [(slots[slots >= edge], counts[slots >= edge]) for slots, counts in joined]
    delays = tuple(d for d in totals if d != 0)
    return CoincidenceHistogram(counts=totals, num_pulses=num_pulses, window_delays=delays)


def simulate_car_run(
    cfg: ExperimentConfig, workers: int = 1, *, point: int = 0
) -> CoincidenceHistogram:
    """Full histogram run at the config's pump power."""
    return _fold_histogram(_car_blocks(cfg, point, workers), cfg.num_pulses, collapse=True)


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
    other_s = _distinct(np.concatenate((noise_s, _slot_set(rng, n, d_s))))
    other_i = _distinct(np.concatenate((noise_i, _slot_set(rng, n, d_i))))

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
    return sum(count for *_, count in _run_blocks(_fringe_block, cfg, point, workers, cumulative))
