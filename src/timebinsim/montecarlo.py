"""Event-stream Monte Carlo of the source and detection chain.

One sampler serves both run types. It draws the channel model of
analytic.stream_means, the one expected_histogram evaluates: pairs split
into the sectors of analytic.sector_probabilities and thinned by the channel
alphas, with noise photons and dark counts joining each channel. Each run
is a delay histogram of click pairs:

* coincidence-histogram runs (no interferometers) feed the
  coincidence-to-accidental estimate;
* a fringe point (one phase setting) is the delay-0 bin of the same folded
  histogram. Multi-pair accidentals and the +-1-slot satellite peaks come
  out of the sampler, at any pair mean;
* a coincidence-ratio curve (car_curve) runs one histogram per channel
  mean and sets each estimate beside its closed form.

Work scales with detections, not pulses. A stream is a Poisson total at
uniform slots, i.e. an independent Poisson count per slot, and a block
draws the five streams of stream_means: pairs seen in both arms in one
slot, each channel's own stream, and pairs seen one slot apart. A channel's
detections are one ascending slot array with one entry per detection, so a
slot with k detections appears k times. A block holds its slots relative to
its first slot, as int32.

Reproducibility contract: every run enters through _chunks, which cuts it
into consecutive blocks of block_pulses(cfg, phases) pulses, sized so that
a block expects about EVENTS_PER_BLOCK draws of the run's stream means (at
least one pulse, at most MAX_BLOCK_PULSES). The size is a pure function of
the config and the phase setting, and a Poisson process split at block
edges leaves the blocks independent. Block b of sweep point p draws from
default_rng((seed, b, p)), whichever process draws it. A single run is
point 0, and SeedSequence pads its entropy with zeros, so its block b draws
from default_rng((seed, b)). Output is a pure function of (config, seed,
point) no matter how many workers run it.

The delay histogram is folded block by block. Each channel's entries in
the last COINCIDENCE_WINDOW slots, the tail, are shifted into the next
block's one join per channel, so a pair across a block edge is counted
once and no block is held twice. The later photon of a pair seen one slot
apart can land one slot past its block, in a slot the next block may fill
too. The clicks are taken once per block, as the distinct slots of each
joined channel, so that slot is one click. The fold holds 6-7 bytes a
detection of its largest block.

With several workers a command opens one pool for all its points (the
phases of a fringe sweep, the rows of a CAR curve) and sends it every
chunk: _sweep_counts opens it, and nothing else does. A chunk is a
contiguous run of one point's blocks; a process folds it and returns the 7
delay counts, and the parent adds each point's chunks. A point is cut into
several chunks only when the command has fewer points than processes. The
fold of a chunk first draws again the few blocks before it whose
detections reach its first COINCIDENCE_WINDOW slots, only to build the tail
it starts from, so every pair is counted in exactly one chunk. A chunk
holds at least two blocks, so with blocks longer than COINCIDENCE_WINDOW
the one block drawn again is at most a third of a chunk's work, and it
expects at least EVENTS_PER_BLOCK draws. At the default losses a pool of
two measured even with one process at ~2e6 draws (2 vCPUs). A command with
one chunk in all, or one process to run them, runs in this process.

numpy is imported inside the functions that draw and bin, so importing this
module, and every command that samples nothing, runs on the standard
library.

Detectors are threshold detectors: any number of photons in one slot
collapses to a single click, so the recorded histogram needs only the
distinct slots. histogram_from_counts of a run's raw detections counts every
detection pair instead, for diagnostics, since comparing the two bounds the
multi-photon contribution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from math import sqrt

from .analytic import (
    COINCIDENCE_WINDOW,
    PhasePair,
    expected_histogram,
    stream_means,
    sweep_config,
)
from .params import ExperimentConfig, require_valid

# Expected draws per block, the unit of seeding and of the fold, at any
# density. The fold measured ~70 ns a draw at the default losses and
# 119-146 ns on dense blocks (2 vCPUs), so a million is 0.07-0.15 s of
# work: per-block overhead is small and a block's arrays stay at a few MiB.
EVENTS_PER_BLOCK = 1_000_000
# Largest block, in pulses; it bounds the peak memory of sparse runs. Every
# value the fold computes, up to the spill slot plus COINCIDENCE_WINDOW,
# then fits in int32.
MAX_BLOCK_PULSES = 2**31 - 1 - COINCIDENCE_WINDOW
# Most expected draws a block may ask for. A block above one pulse expects at
# most EVENTS_PER_BLOCK, so only a one-pulse block can exceed it.
MAX_BLOCK_DRAWS = 4 * EVENTS_PER_BLOCK
# Idler entries histogram_from_counts bins at a time: its temporaries stay
# below 0.4 MiB, and larger slices save at most ~15% on dense blocks.
HISTOGRAM_SLICE = 2**13


class InsufficientStatisticsError(ValueError):
    """Raised when a run produced no counts to estimate from."""


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Click-pair counts by slot delay (idler slot minus signal slot)."""

    counts: dict[int, int]
    num_pulses: int

    @property
    def window_delays(self) -> tuple[int, ...]:
        """The accidental bins: every delay but 0."""
        return tuple(d for d in self.counts if d != 0)

    @property
    def accidental_total(self) -> int:
        return sum(self.counts[d] for d in self.window_delays)


@dataclass(frozen=True)
class CarEstimate:
    """A coincidence-to-accidental ratio and its Poisson standard error."""

    car: float
    stderr: float


@dataclass(frozen=True)
class CarCurveRow:
    """car_curve at one channel mean: the exact ratio, and the sampled one with its error."""

    mu_total: float
    car_analytic: float
    car_simulated: float
    car_stderr: float


def block_pulses(cfg: ExperimentConfig, phases: PhasePair | None = None) -> int:
    """Pulses per block: about EVENTS_PER_BLOCK expected draws of the
    streams stream_means(cfg, phases) gives, at least 1 and at most
    MAX_BLOCK_PULSES."""
    rate = sum(stream_means(cfg, phases))
    if rate * MAX_BLOCK_PULSES <= EVENTS_PER_BLOCK:
        return MAX_BLOCK_PULSES
    return max(1, int(EVENTS_PER_BLOCK / rate))


def _processes(workers: int) -> int:
    """Processes a command may use: workers, capped by the usable cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cores or 1))


def _chunks(
    cfg: ExperimentConfig, point: int, workers: int, phases: PhasePair | None = None
) -> list[tuple]:
    """A run cut into contiguous chunks of its blocks: a histogram run
    without phases, a fringe point at phases with them.

    The only way into a run: the config is checked, the blocks are sized and
    the run is (seed, point, block length, pulses, stream means), whose
    block b _block draws from the key (cfg.seed, b, point). A chunk
    (run, first, stop) names the blocks first..stop - 1 it counts. There
    are at most _processes(workers) chunks, and at least one; each holds at
    least two blocks and expects at least EVENTS_PER_BLOCK draws.
    """
    require_valid(cfg)
    size = block_pulses(cfg, phases)
    means = stream_means(cfg, phases)
    if not sum(means) * size <= MAX_BLOCK_DRAWS:
        raise ValueError(
            f"invalid config: source.peak_power_w must keep a block's expected draws"
            f" within {MAX_BLOCK_DRAWS:.0e}, got {cfg.source.peak_power_w!r}"
        )
    blocks = -(-cfg.num_pulses // size)
    draws = int(sum(means) * cfg.num_pulses // EVENTS_PER_BLOCK)
    count = max(1, min(_processes(workers), blocks // 2, draws))
    edges = [blocks * k // count for k in range(count + 1)]
    run = (cfg.seed, point, size, cfg.num_pulses, means)
    return [(run, first, stop) for first, stop in zip(edges, edges[1:])]


def _events(rng: np.random.Generator, n: int, mean: float) -> np.ndarray:
    """Unsorted int32 slots of Poisson(mean) events in each of n slots."""
    return rng.integers(0, n, rng.poisson(mean * n), dtype="int32")


def _distinct(slots: np.ndarray) -> np.ndarray:
    """Distinct entries of ascending slots: each entry that differs from the
    one before it. np.unique would sort again, and without return_counts
    numpy 2.3+ takes a hash path that is ~50x slower on a million slots."""
    import numpy as np

    keep = np.ones(len(slots), dtype=bool)
    np.not_equal(slots[1:], slots[:-1], out=keep[1:])
    return slots[keep]


def _block(run: tuple, b: int, tail=None):
    """Length n and detections of block b of a run joined to tail, the last
    entries before it in this block's slots: each channel's ascending slots
    relative to the block's first slot, one entry per detection.

    The five streams are drawn in the order of stream_means. A pair seen
    one slot apart puts its later photon in the next slot, so the joined
    slots lie in [-COINCIDENCE_WINDOW, n]. Each channel is one join, and the
    signal's own stream is freed first.
    """
    import numpy as np

    seed, point, size, pulses, means = run
    n = min(size, pulses - b * size)
    rng = np.random.default_rng((seed, b, point))
    both, own_s, own_i, s_first, i_first = (_events(rng, n, mean) for mean in means)
    tail_s, tail_i = tail or (both[:0],) * 2
    signal = np.concatenate((tail_s, both, own_s, s_first, i_first + 1))
    del own_s
    idler = np.concatenate((tail_i, both, own_i, s_first + 1, i_first))
    signal.sort()
    idler.sort()
    return n, (signal, idler)


def _detections(chunk) -> tuple:
    """Each channel's detections in a chunk's blocks: ascending int64 run slots."""
    import numpy as np

    run, first, stop = chunk
    size = run[2]
    parts = [[s.astype(np.int64) + b * size for s in _block(run, b)[1]] for b in range(first, stop)]
    return tuple(np.concatenate(slots) for slots in zip(*parts))


def detected_counts(cfg: ExperimentConfig, workers: int = 1, *, point: int = 0):
    """Detections of a histogram run, drawn whole in this process whatever
    workers is: (signal, idler), ascending slots, one entry per detection."""
    (chunk,) = _chunks(cfg, point, 1)
    return _detections(chunk)


def histogram_from_counts(signal, idler) -> dict[int, int]:
    """Counts by delay (idler entry minus signal entry) of every entry pair
    within COINCIDENCE_WINDOW of two ascending slot arrays.

    Pass distinct slots to count click pairs, or one entry per detection to
    count every detection pair. The idler is binned in slices of
    HISTOGRAM_SLICE entries, in constant memory, and each slice's windows are
    walked, not listed: one search finds the first signal entry of each
    window, and pass k bins every entry against the k-th signal entry from
    there, dropping the entries that run past the signal's end or the
    window's, until none is left.
    """
    import numpy as np

    window = COINCIDENCE_WINDOW
    binned = np.zeros(2 * window + 1, dtype=np.intp)
    for lo in range(0, len(idler), HISTOGRAM_SLICE):
        part = idler[lo : lo + HISTOGRAM_SLICE]
        # The first signal entry of each idler entry's window.
        at = np.searchsorted(signal, part - window)
        while len(part):
            live = at < len(signal)
            part, at = part[live], at[live]
            delay = part - signal[at]
            live = delay >= -window
            part, at, delay = part[live], at[live], delay[live]
            binned += np.bincount(delay + window, minlength=2 * window + 1)
            at += 1
    return {delay: int(binned[delay + window]) for delay in range(-window, window + 1)}


def _fold(chunk) -> dict[int, int]:
    """Click-pair counts by delay of the pairs whose later-drawn detection
    is in one of a chunk's blocks.

    The tail, each channel's clicks from COINCIDENCE_WINDOW slots before
    the next block's first slot on, joins that block in its slots, and each
    joined channel in turn becomes its distinct slots. Adding the histogram
    of tail + block and subtracting the tail's own counts every pair within
    the block or across its leading edge exactly once. A later photon that
    spilled past the previous block is in the tail, and the block may fill
    its slot too: it is one click. The fold first draws again the blocks
    before the chunk whose detections can reach its leading
    COINCIDENCE_WINDOW slots, only to build the tail it starts from.
    """
    import numpy as np

    run, first, stop = chunk
    totals = dict.fromkeys(range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1), 0)
    tail = (np.empty(0, dtype=np.int32),) * 2
    for b in range(max(0, first - COINCIDENCE_WINDOW // run[2] - 1), stop):
        n, (signal, idler) = _block(run, b, tail)
        signal = _distinct(signal)
        idler = _distinct(idler)
        if b >= first:
            added = histogram_from_counts(signal, idler)
            counted = histogram_from_counts(*tail)
            for delay in totals:
                totals[delay] += added[delay] - counted[delay]
        # An int32 key, or numpy searches a widened copy of the slots.
        key = np.int32(n - COINCIDENCE_WINDOW)
        tail = [s[np.searchsorted(s, key) :] - n for s in (signal, idler)]
        del signal, idler
    return totals


def _sweep_counts(points: list[tuple], workers: int) -> list[dict[int, int]]:
    """Delay counts of each (cfg, point, phases) run of one command, all
    folded on one pool.

    With P = _processes(workers), a point is cut into at most
    ceil(P / len(points)) chunks, so it is cut at all only when there are
    fewer points than processes. Every chunk of every point goes to one
    pool of min(P, chunks) processes, or runs in this process when that is
    one.
    """
    processes = _processes(workers)
    share = -(-processes // max(1, len(points)))
    plans = [_chunks(cfg, point, share, phases) for cfg, point, phases in points]
    chunks = [chunk for plan in plans for chunk in plan]
    processes = min(processes, len(chunks))
    if processes <= 1:
        parts = map(_fold, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random  # noqa: F401  (forked workers inherit it instead of each importing it)

        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = iter(list(pool.map(_fold, chunks)))
    sums = []
    for plan in plans:
        folded = [next(parts) for _ in plan]
        sums.append({delay: sum(part[delay] for part in folded) for delay in folded[0]})
    return sums


def simulate_car_run(
    cfg: ExperimentConfig, workers: int = 1, *, point: int = 0
) -> CoincidenceHistogram:
    """Full histogram run at the config's pump power."""
    (counts,) = _sweep_counts([(cfg, point, None)], workers)
    return CoincidenceHistogram(counts=counts, num_pulses=cfg.num_pulses)


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


def simulate_fringe_run(
    cfg: ExperimentConfig, phases: PhasePair, workers: int = 1, *, point: int = 0
) -> int:
    """Delay-0 coincidence count at one phase setting over cfg.num_pulses:
    the delay-0 bin of the run's folded histogram."""
    return _sweep_counts([(cfg, point, phases)], workers)[0][0]


def simulate_fringe_sweep(
    cfg: ExperimentConfig, phase_pairs: list[PhasePair], workers: int = 1
) -> list[int]:
    """simulate_fringe_run at each phase setting, setting k as sweep point
    k, with every point on one pool."""
    points = [(cfg, k, phases) for k, phases in enumerate(phase_pairs)]
    return [counts[0] for counts in _sweep_counts(points, workers)]


def car_curve(
    cfg: ExperimentConfig, mu_values, workers: int = 1
) -> list[CarCurveRow]:
    """Analytic and simulated coincidence ratio across channel-mean values.

    Each row is sweep_config's "mu" point without interferometers. It takes
    the exact ratio of expected_histogram, P(0) over the mean of the six
    accidental bins, and runs the histogram simulation there as sweep point
    i, so rows draw independent yet reproducible streams. Every row's run
    is folded on one pool.
    """
    mu_values = list(mu_values)
    base = replace(cfg, interferometers_present=False)
    cfg_rows = [sweep_config(base, "mu", mu)[0] for mu in mu_values]
    sampled = _sweep_counts([(cfg_row, i, None) for i, cfg_row in enumerate(cfg_rows)], workers)
    rows = []
    for mu, cfg_row, counts in zip(mu_values, cfg_rows, sampled):
        est = estimate_car(CoincidenceHistogram(counts, cfg.num_pulses))
        p = expected_histogram(cfg_row)
        exact = p[0] / ((sum(p.values()) - p[0]) / (2 * COINCIDENCE_WINDOW))
        rows.append(CarCurveRow(float(mu), exact, est.car, est.stderr))
    return rows
