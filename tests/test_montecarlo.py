"""Sampled runs: reproducibility contract, histogram mechanics, ratio and
fringe counts checked against the closed forms and the sector probabilities."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import lossless_config, num_blocks, pairs_only_config
from test_quantum import brute_force_sectors
import timebinsim
from timebinsim import montecarlo
from timebinsim import (
    InsufficientStatisticsError,
    PairStatistics,
    PhasePair,
    car_closed_form,
    default_config,
    estimate_car,
    expected_histogram,
    pump_power_for_mu,
    sector_probabilities,
    simulate_car_run,
    simulate_fringe_run,
)
from timebinsim.analytic import stream_means
from timebinsim.cli import main
from timebinsim.montecarlo import (
    COINCIDENCE_WINDOW,
    EVENTS_PER_BLOCK,
    MAX_BLOCK_PULSES,
    CoincidenceHistogram,
    block_pulses,
    detected_counts,
    histogram_from_counts,
)
from timebinsim.params import SourceParams, arm_detection


def brute_force_histogram(counts_s, counts_i, collapse):
    """Nested loop over individual slots, the definition of the histogram."""
    hist = {d: 0 for d in range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1)}
    for slot_s, cs in enumerate(counts_s):
        if cs == 0:
            continue
        for slot_i, ci in enumerate(counts_i):
            if ci == 0:
                continue
            delay = slot_i - slot_s
            if abs(delay) <= COINCIDENCE_WINDOW:
                hist[delay] += 1 if collapse else int(cs) * int(ci)
    return hist


def events_of(counts):
    """Ascending slots, one entry per detection, of a dense per-slot count
    array."""
    return np.repeat(np.arange(len(counts)), counts)


class TestBlocks:
    def test_partition(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: 40)
        for pulses, lengths in ((2 * 40 + 17, [40, 40, 17]), (40, [40]), (39, [39])):
            ((run, first, stop),) = montecarlo._chunks(lossless_config(4e-3, pulses), 0, 1)
            assert first == 0
            assert [montecarlo._block(run, b)[0] for b in range(stop)] == lengths

    def test_size_is_expected_events_over_draws_per_slot(self):
        # Darks only: each channel's own stream draws -log(1 - d) per slot.
        # At 1e6 Hz a million draws take ~5.0e8 pulses; at 1e5 Hz they would
        # take ~5.0e9, beyond the cap.
        def darks(rate_hz):
            cfg = lossless_config(4e-3, 1, dark_rate_hz=rate_hz)
            return replace(cfg, source=replace(cfg.source, peak_power_w=0.0))

        rate = -2 * math.log1p(-1e-3)
        assert block_pulses(darks(1e6)) == pytest.approx(EVENTS_PER_BLOCK / rate, abs=1)
        assert EVENTS_PER_BLOCK / (-2 * math.log1p(-1e-4)) > MAX_BLOCK_PULSES
        assert block_pulses(darks(1e5)) == MAX_BLOCK_PULSES
        # Fringe point with pairs only and unit alpha: one draw per pair that
        # leaves a photon in a kept port, mu_c (1 - p_none) per slot. Neither
        # kept is both kept with both phases shifted by pi.
        fringe_cfg = pairs_only_config(4e-3, 1000, 1)
        mu = PairStatistics.from_power(fringe_cfg.source.peak_power_w, fringe_cfg.source).mu_pairs
        p_none = sum(sector_probabilities(1000, PhasePair(0.4 + math.pi, math.pi))[:3])
        assert block_pulses(fringe_cfg, PhasePair(0.4, 0.0)) == pytest.approx(
            EVENTS_PER_BLOCK / (mu * (1 - p_none)), abs=1
        )

    def test_size_is_clamped(self):
        assert block_pulses(default_config()) == MAX_BLOCK_PULSES
        # Above one draw per slot a block is shorter than a million pulses,
        # and above EVENTS_PER_BLOCK draws per slot it is a single pulse.
        assert block_pulses(lossless_config(1.0, 1)) == 764_218
        crowded = replace(pairs_only_config(2e6, 5, 1), interferometers_present=False)
        assert block_pulses(crowded) == 1
        dead = lossless_config(4e-3, 1, dark_rate_hz=0.0)
        dead = replace(dead, source=replace(dead.source, peak_power_w=0.0))
        assert block_pulses(dead) == MAX_BLOCK_PULSES

    def test_slot_type_at_the_int32_limit(self):
        # Two blocks of the largest length and 5 pulses at the paper's
        # losses: every block holds int32 slots, and the fold of its blocks
        # cut into one or two chunks equals the click histogram of the whole
        # run's int64 slots.
        cfg = replace(default_config(), num_pulses=2 * MAX_BLOCK_PULSES + 5)
        ((run, first, stop),) = montecarlo._chunks(cfg, 0, 1)
        assert (first, stop) == (0, 3)
        for b in range(stop):
            assert [slots.dtype for slots in montecarlo._block(run, b)[1]] == [np.int32] * 2
        signal, idler = detected_counts(cfg)
        assert signal.dtype == idler.dtype == np.int64
        assert signal[-1] >= 2**31 and idler[-1] >= 2**31
        whole = histogram_from_counts(np.unique(signal), np.unique(idler))
        assert sum(whole.values()) > 0
        assert montecarlo._fold((run, 0, stop)) == whole
        for cut in (1, 2):
            parts = [montecarlo._fold((run, 0, cut)), montecarlo._fold((run, cut, stop))]
            assert {d: sum(part[d] for part in parts) for d in whole} == whole


def short_blocks(monkeypatch, pulses, cfg, *phases):
    """Blocks of `pulses` pulses, each expecting at least EVENTS_PER_BLOCK
    draws of cfg at each of phases, or in a histogram run without them."""
    per_slot = min(sum(stream_means(cfg, p)) for p in phases or [None])
    monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: pulses)
    monkeypatch.setattr(montecarlo, "EVENTS_PER_BLOCK", pulses * per_slot)


class FakePool:
    """Records each pool's size and the items mapped on it, and maps in this
    process; starts no process."""

    opened: list = []

    def __init__(self, max_workers):
        self.items = []
        FakePool.opened.append((max_workers, self.items))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.items.extend(items)
        return map(fn, self.items)


@pytest.fixture
def fake_pool(monkeypatch):
    """The pools opened while the test runs, as (size, items mapped)."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "opened", [])
    return FakePool.opened


# Prints, for each pool a two-worker run of 4 blocks starts, whether
# numpy.random was loaded when the pool started.
NUMPY_RANDOM_AT_POOL_START = """
import json, os, sys
from concurrent.futures import ProcessPoolExecutor

loaded = []
start = ProcessPoolExecutor.__init__

def recording_start(self, *args, **kwargs):
    loaded.append("numpy.random" in sys.modules)
    start(self, *args, **kwargs)

ProcessPoolExecutor.__init__ = recording_start
os.sched_getaffinity = lambda pid: {0, 1}
from conftest import lossless_config
from timebinsim import simulate_car_run

simulate_car_run(lossless_config(1.0, 3_000_000), workers=2)
print(json.dumps(loaded))
"""


class TestDispatch:
    @pytest.mark.parametrize(
        "workers, blocks, cores, size",
        [
            (5000, 10, 4, 4),
            (5000, 3, 4, None),
            (5000, 2, 4, None),
            (2, 10, 4, 2),
            (3, 7, 4, 3),
            (5000, 10, None, None),
            (5000, 1, 4, None),
            (5000, 10, 1, None),
        ],
    )
    def test_pool_capped_by_blocks_and_cores(
        self, monkeypatch, fake_pool, workers, blocks, cores, size
    ):
        # The host has 8 cores and the process may run on `cores` of them;
        # None is a platform without affinity whose cpu_count() is unknown.
        # A pool has one process per chunk, and a chunk at least two blocks.
        cfg = lossless_config(4e-3, 40 * blocks - 3)
        short_blocks(monkeypatch, 40, cfg)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None if cores is None else 8)
        if cores is None:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        else:
            affinity = lambda pid: set(range(cores))
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        drawn = []
        block = montecarlo._block
        monkeypatch.setattr(
            montecarlo, "_block", lambda run, b, tail: drawn.append(b) or block(run, b, tail)
        )
        chunks = montecarlo._chunks(cfg, 0, min(workers, cores or 1))
        # Contiguous chunks cover every block once.
        assert [first for _, first, _ in chunks] == [0] + [stop for *_, stop in chunks[:-1]]
        assert chunks[-1][2] == blocks
        assert len(chunks) == (size or 1)
        simulate_car_run(cfg, workers)
        # The fold of each chunk draws again the one earlier block whose
        # detections reach its first slots.
        assert drawn == [b for _, first, stop in chunks for b in range(max(0, first - 1), stop)]
        # cpu_count() None counts as one core, and one chunk needs no pool:
        # serial, no pool at all.
        assert [(pool_size, items) for pool_size, items in fake_pool] == (
            [] if size is None else [(size, chunks)]
        )

    @pytest.mark.parametrize("workers, cores", [(2, 2), (3, 4), (5000, 3)])
    def test_fringe_command_opens_one_pool(
        self, monkeypatch, fake_pool, tmp_path, workers, cores
    ):
        # 16 points of 10 blocks each and P = min(workers, cores) <= 16
        # processes: one pool of P processes takes every point as one whole
        # chunk, so no block is drawn twice.
        monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: 40)
        affinity = lambda pid: set(range(cores))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        drawn = []
        block = montecarlo._block
        monkeypatch.setattr(
            montecarlo, "_block", lambda run, b, tail: drawn.append(b) or block(run, b, tail)
        )
        cfg = lossless_config(4e-3, 400, interferometers=True)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(timebinsim.config_to_dict(cfg)))
        args = ["mc-fringe", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert main([*args, "--steps", "16", "--workers", str(workers)]) in (0, 1)
        ((size, chunks),) = fake_pool
        assert size == min(workers, cores)
        assert [(run[1], first, stop) for run, first, stop in chunks] == [
            (k, 0, 10) for k in range(16)
        ]
        assert drawn == list(range(10)) * 16

    def test_fewer_points_than_processes_are_cut(self, monkeypatch, fake_pool):
        # 2 points of 10 blocks on 5 processes: each is cut into
        # ceil(5 / 2) = 3 chunks, and the 6 chunks share one pool of 5.
        cfg = lossless_config(4e-3, 400, interferometers=True)
        phases = [PhasePair(0.0, 0.0), PhasePair(1.0, 0.0)]
        short_blocks(monkeypatch, 40, cfg, *phases)
        affinity = lambda pid: set(range(5))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        counts = montecarlo.simulate_fringe_sweep(cfg, phases, workers=5000)
        ((size, chunks),) = fake_pool
        assert size == 5
        assert [(run[1], first, stop) for run, first, stop in chunks] == [
            (0, 0, 3), (0, 3, 6), (0, 6, 10), (1, 0, 3), (1, 3, 6), (1, 6, 10)
        ]
        assert counts == [simulate_fringe_run(cfg, p, point=k) for k, p in enumerate(phases)]

    def test_car_curve_opens_one_pool(self, monkeypatch, fake_pool):
        # Three rows of one block each on two processes: one pool of two
        # folds every row, and the rows match a serial curve.
        affinity = lambda pid: set(range(2))
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        cfg = lossless_config(1e-3, 200_000, seed=100, dark_rate_hz=2e5)
        three_mus = [5e-3, 1e-2, 2e-2]
        pooled = montecarlo.car_curve(cfg, three_mus, workers=2)
        ((size, chunks),) = fake_pool
        assert size == 2
        assert [run[1] for run, *_ in chunks] == [0, 1, 2]
        assert pooled == montecarlo.car_curve(cfg, three_mus, workers=1)

    def test_run_below_two_blocks_of_draws_opens_no_pool(self, monkeypatch, fake_pool, tmp_path):
        # mc-car --pulses 1e10 at the paper's losses: 5 blocks but ~4.7e5 draws,
        # under a chunk's EVENTS_PER_BLOCK; larger runs keep their chunks, and
        # the 4-block mean-1 run (~3.9e6 draws) is cut in two.
        affinity = lambda pid: {0, 1, 2}
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        args = ["mc-car", "--out-dir", str(tmp_path / "out"), "--pulses", "10000000000"]
        assert main([*args, "--workers", "2"]) == 0
        assert fake_pool == []
        paper = replace(default_config(), num_pulses=10**10)
        assert num_blocks(paper) == 5
        assert len(montecarlo._chunks(replace(paper, num_pulses=10**12), 0, 2)) == 2
        dense = lossless_config(1.0, 5_000_000)
        assert num_blocks(dense) == 7
        assert len(montecarlo._chunks(dense, 0, 3)) == 3
        four = lossless_config(1.0, 3_000_000)
        assert num_blocks(four) == 4
        assert len(montecarlo._chunks(four, 0, 2)) == 2

    def test_one_worker_opens_no_pool(self, monkeypatch, fake_pool, tmp_path):
        monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: 40)
        cfg = lossless_config(4e-3, 400, interferometers=True)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(timebinsim.config_to_dict(cfg)))
        args = ["mc-fringe", "--config", str(config), "--out-dir", str(tmp_path / "out")]
        assert main([*args, "--steps", "16", "--workers", "1"]) in (0, 1)
        assert fake_pool == []

    def test_workers_below_one_refused_before_any_draw(self, monkeypatch, fake_pool):
        # Every entry that takes workers refuses a count below 1 in the
        # CLI's words, before it plans a chunk, draws a block or opens a pool.
        planned, drawn = [], []
        chunks, block = montecarlo._chunks, montecarlo._block
        monkeypatch.setattr(
            montecarlo, "_chunks", lambda *args: planned.append(args) or chunks(*args)
        )
        monkeypatch.setattr(
            montecarlo, "_block", lambda run, b, tail=None: drawn.append(b) or block(run, b, tail)
        )
        cfg = lossless_config(1.0, 3_000_000)
        fringe = replace(cfg, interferometers_present=True)
        calls = [
            lambda: simulate_car_run(cfg, workers=0),
            lambda: montecarlo.simulate_fringe_sweep(fringe, [PhasePair(0.0, 0.0)], workers=-3),
            lambda: montecarlo.car_curve(cfg, [1e-2], workers=0),
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "--workers must be >= 1"
        assert planned == drawn == fake_pool == []

    def test_plan_reads_only_its_inputs(self, monkeypatch):
        # A run's chunks depend on its config and the budget passed in, not
        # on the cores the process may run on.
        cfg = lossless_config(1.0, 3_000_000)
        for cores in (1, 4):
            affinity = lambda pid: set(range(cores))
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
            chunks = montecarlo._chunks(cfg, 0, 2)
            assert [(first, stop) for _, first, stop in chunks] == [(0, 2), (2, 4)]

    def test_detections_open_no_pool(self, monkeypatch, fake_pool):
        # The 4-block mean-1 run is two chunks at two workers, but its
        # detection lists are drawn whole in this process.
        affinity = lambda pid: {0, 1}
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        cfg = lossless_config(1.0, 3_000_000)
        assert len(montecarlo._chunks(cfg, 0, 2)) == 2
        pooled = detected_counts(cfg, workers=2)
        assert fake_pool == []
        for slots, serial in zip(pooled, detected_counts(cfg)):
            assert np.array_equal(slots, serial)

    def test_pool_forks_with_numpy_random_loaded(self):
        # A fresh interpreter records, as each pool starts, whether its
        # forked workers inherit numpy.random or must each import it.
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_RANDOM_AT_POOL_START],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [True]


class TestReproducibility:
    def test_same_seed_same_histogram(self):
        cfg = lossless_config(4e-3, 200_000)
        assert simulate_car_run(cfg).counts == simulate_car_run(cfg).counts

    def test_worker_count_is_invisible(self):
        # One block, so no pool starts; the multi-block contract is the
        # *_across_blocks pair below.
        cfg = lossless_config(4e-3, 2_050_000)
        serial = simulate_car_run(cfg, workers=1)
        parallel = simulate_car_run(cfg, workers=3)
        assert serial.counts == parallel.counts

    def test_seed_matters(self):
        a = simulate_car_run(lossless_config(4e-3, 200_000, seed=1))
        b = simulate_car_run(lossless_config(4e-3, 200_000, seed=2))
        assert a.counts != b.counts

    def test_fringe_worker_count_is_invisible(self):
        # One block, like test_worker_count_is_invisible.
        cfg = pairs_only_config(4e-3, 1000, 1_300_000)
        phases = PhasePair(0.3, 0.2)
        assert simulate_fringe_run(cfg, phases, workers=1) == simulate_fringe_run(
            cfg, phases, workers=2
        )

    def test_worker_count_is_invisible_across_blocks(self):
        cfg = lossless_config(0.5, 3_000_000)
        assert num_blocks(cfg) >= 3
        assert simulate_car_run(cfg, workers=1) == simulate_car_run(cfg, workers=2)

    def test_fringe_worker_count_is_invisible_across_blocks(self):
        # Darks near 0.3 per slot make the blocks short.
        cfg = lossless_config(0.05, 3_000_000, dark_rate_hz=3e8, interferometers=True)
        phases = PhasePair(0.3, 0.2)
        assert num_blocks(cfg, phases) >= 3
        assert simulate_fringe_run(cfg, phases, workers=1) == simulate_fringe_run(
            cfg, phases, workers=2
        )

    def test_worker_count_is_invisible_across_chunks(self, monkeypatch):
        # Eleven 20-pulse blocks at 8 pairs per pulse, cut into 2 and 3
        # chunks at 2 and 3 workers: the histogram, a fringe point and the
        # detections equal those of the run at one worker.
        fringe_cfg = pairs_only_config(8.0, 5, 10 * 20 + 3)
        cfg = replace(fringe_cfg, interferometers_present=False)
        phases = PhasePair(0.6, 0.0)
        short_blocks(monkeypatch, 20, fringe_cfg, phases)
        affinity = lambda pid: {0, 1, 2}
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        hist, count = simulate_car_run(cfg), simulate_fringe_run(fringe_cfg, phases)
        signal, idler = detected_counts(cfg)
        for workers in (2, 3):
            assert len(montecarlo._chunks(cfg, 0, workers)) == workers
            assert simulate_car_run(cfg, workers) == hist
            assert simulate_fringe_run(fringe_cfg, phases, workers) == count
            parallel_signal, parallel_idler = detected_counts(cfg, workers)
            assert np.array_equal(parallel_signal, signal)
            assert np.array_equal(parallel_idler, idler)

    def test_worker_count_is_invisible_across_sweep_points(self, monkeypatch):
        # Eleven 20-pulse blocks per point on one pool: 6 points at 1 chunk
        # each, split unevenly over 2 or 3 processes, and 2 points cut into
        # 2 chunks each at 3 processes. Each point's count is that of its
        # own run in this process.
        cfg = pairs_only_config(8.0, 5, 10 * 20 + 3)
        phases = [PhasePair(2.0 * math.pi * k / 6, 0.4) for k in range(6)]
        short_blocks(monkeypatch, 20, cfg, *phases)
        affinity = lambda pid: {0, 1, 2}
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        serial = [simulate_fringe_run(cfg, p, point=k) for k, p in enumerate(phases)]
        assert len(set(serial)) > 1
        for workers in (1, 2, 3):
            assert montecarlo.simulate_fringe_sweep(cfg, phases, workers) == serial
        assert montecarlo.simulate_fringe_sweep(cfg, phases[:2], 3) == serial[:2]

    def test_point_zero_block_streams_are_seed_and_block(self, monkeypatch):
        # The documented contract: block b of a single run (point 0) draws
        # from default_rng((seed, b)); point p from default_rng((seed, b, p)).
        # With pairs only and unit alpha the signal detections are the first
        # stream, shifted by the block's first slot.
        monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: 1000)
        cfg = replace(pairs_only_config(0.05, 5, 2500, seed=77), interferometers_present=False)
        mu = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source).mu_pairs
        for point, key in ((0, ()), (2, (2,))):
            slots_s, _ = detected_counts(cfg, point=point)
            events = np.concatenate(
                [
                    montecarlo._events(np.random.default_rng((77, b, *key)), n, mu)
                    + 1000 * b
                    for b, n in ((0, 1000), (1, 1000), (2, 500))
                ]
            )
            assert len(events) > 0
            assert np.array_equal(slots_s, np.sort(events)), point

    def test_streams_are_pinned(self):
        # Counts recorded at 0.6.0: the delay histograms mc-car writes to
        # histogram.csv for a one-block and a three-block run, and one fringe
        # point; at 0.7.0, a run above one draw per slot, whose blocks are
        # shorter than a million pulses; and at 0.8.0, mc-car --pulses
        # 10000000000 at the paper's losses, five blocks of at most
        # MAX_BLOCK_PULSES. At 0.9.0 darks join each channel's own stream,
        # which moved the one-block, fringe and paper pins; the dark-free
        # lossless pins drew the same streams. They change only together
        # with __version__, since a change to the random streams bumps the
        # version.
        assert timebinsim.__version__ == "0.9.1"
        one_block = lossless_config(1e-2, 500_000, seed=123, dark_rate_hz=1e6)
        three_blocks = lossless_config(0.5, 3_000_000, seed=456)
        dense = lossless_config(1.0, 2_000_000, seed=654)
        assert num_blocks(three_blocks) == 3
        assert num_blocks(dense) == 3
        assert simulate_car_run(one_block).counts == {
            -3: 69, -2: 67, -1: 52, 0: 381, 1: 53, 2: 67, 3: 61
        }
        assert simulate_car_run(three_blocks).counts == {
            -3: 463412, -2: 463944, -1: 463956, 0: 846831, 1: 464363, 2: 463900, 3: 464167
        }
        assert simulate_car_run(dense).counts == {
            -3: 798623, -2: 798531, -1: 798914, 0: 1068308, 1: 798624, 2: 798553, 3: 798281
        }
        fringe_cfg = lossless_config(0.05, 500_000, seed=789, dark_rate_hz=1e6, interferometers=True)
        assert simulate_fringe_run(fringe_cfg, PhasePair(0.3, 0.2)) == 1495
        paper = replace(default_config(), num_pulses=10**10)
        assert num_blocks(paper) == 5
        assert simulate_car_run(paper).counts == {
            -3: 7, -2: 11, -1: 9, 0: 41, 1: 6, 2: 3, 3: 4
        }

    def test_sweep_points_do_not_reuse_the_next_seed(self):
        # Point k used to run at seed + k, so point 1 repeated the next
        # seed's point 0.
        cfg = pairs_only_config(4e-3, 1000, 400_000, seed=100)
        phases = PhasePair(0.3, 0.0)
        point_1 = simulate_fringe_run(cfg, phases, point=1)
        assert point_1 == simulate_fringe_run(cfg, phases, point=1)
        assert point_1 != simulate_fringe_run(cfg, phases)
        assert point_1 != simulate_fringe_run(replace(cfg, seed=101), phases)

    def test_fringe_depends_on_phase_sum_only(self):
        # Identical seed and identical phase sum: the same stream draws at
        # the same sector probabilities.
        cfg = pairs_only_config(4e-3, 1000, 400_000)
        a = simulate_fringe_run(cfg, PhasePair(1.0, 0.5))
        b = simulate_fringe_run(cfg, PhasePair(1.5, 0.0))
        assert a == b


class TestDetectedCounts:
    def test_shapes_and_dtype(self):
        cfg = lossless_config(4e-3, 12_345)
        for slots in detected_counts(cfg):
            assert len(slots) > 0
            assert slots.dtype.kind == "i"
            assert np.all(np.diff(slots) >= 0)
            assert 0 <= slots[0] and slots[-1] < 12_345

    def test_slot_counts_are_not_clipped(self):
        # A slot holds any number of detections: at 400 pairs per pulse
        # nearly every slot is above 255, the largest uint8.
        cfg = replace(pairs_only_config(400.0, 5, 1000), interferometers_present=False)
        for slots in detected_counts(cfg):
            _, counts = np.unique(slots, return_counts=True)
            assert counts.max() > 255

    def test_memory_scales_with_events(self):
        # At the paper's losses 1e8 pulses give a few thousand detections;
        # per-pulse arrays of a single block would already take megabytes.
        cfg = replace(default_config(), num_pulses=100_000_000)
        tracemalloc.start()
        try:
            simulate_car_run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_slot_sets_are_sorted_unique(self):
        rng = np.random.default_rng(3)
        for size in (0, 1, 50, 5000):
            slots = np.sort(rng.integers(0, 100, size))
            assert np.array_equal(montecarlo._distinct(slots), np.unique(slots))

    @pytest.mark.parametrize("slice_entries", [3, 7, 2**13])
    def test_slot_sets_compact_in_place_across_slices(self, monkeypatch, slice_entries):
        # Runs of a repeated slot, one to four entries long, each become one
        # entry, and the clicks keep the blocks' int32 dtype.
        monkeypatch.setattr(montecarlo, "HISTOGRAM_SLICE", slice_entries)
        slots = np.repeat(np.arange(-3, 20_000, 3, dtype=np.int32), 1 + np.arange(6_668) % 4)
        expected = np.unique(slots)
        distinct = montecarlo._distinct(slots)
        assert distinct.dtype == np.int32
        assert np.array_equal(distinct, expected)

    def test_rejects_interferometer_setup(self):
        cfg = replace(lossless_config(4e-3, 100), interferometers_present=True)
        with pytest.raises(ValueError, match="without interferometers"):
            detected_counts(cfg)

    def test_rejects_invalid_config(self):
        cfg = lossless_config(4e-3, 100)
        cfg = replace(cfg, signal=replace(cfg.signal, detector_efficiency=1.5))
        with pytest.raises(ValueError, match="detector_efficiency"):
            detected_counts(cfg)

    def test_pairs_only_perfect_detection_arms_match(self):
        # No noise, no darks, unit alpha: both channels see the same pair
        # number in every slot, so the arrays are identical.
        cfg = replace(pairs_only_config(0.01, 1000, 100_000), interferometers_present=False)
        slots_s, slots_i = detected_counts(cfg)
        assert np.array_equal(slots_s, slots_i)
        assert len(slots_s) > 0

    def test_darks_only_rate(self):
        n, d = 1_000_000, 0.01
        cfg = lossless_config(1e-3, n, dark_rate_hz=1e7)  # d = 0.01/slot
        cfg = replace(cfg, source=replace(cfg.source, peak_power_w=0.0))
        # Darks join each channel's own stream at -log(1 - d) per slot, so a
        # slot holds one or more of them with probability exactly d.
        raw = -n * math.log1p(-d)
        for slots in detected_counts(cfg):
            assert abs(len(slots) - raw) < 5 * math.sqrt(raw)
            assert abs(len(np.unique(slots)) - n * d) < 5 * math.sqrt(n * d * (1 - d))


# Each collapse case at the module's histogram slice, then with slices of 3
# and 7 idler entries, so that windows and runs of a repeated slot straddle
# slice edges.
SLICED = [
    pytest.param(collapse, size, id=f"{collapse}-slice{size}" if size else f"{collapse}")
    for size in (None, 3, 7)
    for collapse in (True, False)
]


class TestHistogram:
    @pytest.mark.parametrize("collapse, slice_entries", SLICED)
    def test_matches_brute_force(self, monkeypatch, collapse, slice_entries):
        if slice_entries:
            monkeypatch.setattr(montecarlo, "HISTOGRAM_SLICE", slice_entries)
        rng = np.random.default_rng(7)
        counts_s = rng.integers(0, 4, size=40)
        counts_i = rng.integers(0, 4, size=40)
        # Events at both ends of the run, where shifted delays fall off it.
        edges = [0, 1, 2, -3, -2, -1]
        counts_s[edges] = [1, 2, 3, 3, 2, 1]
        counts_i[edges] = [3, 1, 2, 2, 1, 3]
        channels = events_of(counts_s), events_of(counts_i)
        if collapse:
            channels = [np.unique(slots) for slots in channels]
        hist = histogram_from_counts(*channels)
        assert hist == brute_force_histogram(counts_s, counts_i, collapse)

    @pytest.mark.parametrize("collapse, slice_entries", SLICED)
    @pytest.mark.parametrize("ends", ["no-signal", "no-idler", "signal-first"])
    def test_walk_off_the_signal_end(self, monkeypatch, collapse, slice_entries, ends):
        # With no signal entry every idler window starts past the signal's
        # end; with no idler entry there is no window to walk. Where the
        # signal ends at slot 19 and the idler fills slots 20-39, the
        # windows of idler entries from slot 23 on start past the last
        # signal entry and those of slots 16-22 run into it, so whole
        # slices and the ends of slices are dropped there.
        if slice_entries:
            monkeypatch.setattr(montecarlo, "HISTOGRAM_SLICE", slice_entries)
        rng = np.random.default_rng(13)
        counts_s = rng.integers(0, 4, size=40)
        counts_i = rng.integers(1, 4, size=40)
        if ends == "no-signal":
            counts_s[:] = 0
        elif ends == "no-idler":
            counts_i[:] = 0
        else:
            counts_s[19], counts_s[20:] = 2, 0
        channels = events_of(counts_s), events_of(counts_i)
        if collapse:
            channels = [np.unique(slots) for slots in channels]
        hist = histogram_from_counts(*channels)
        assert hist == brute_force_histogram(counts_s, counts_i, collapse)

    @pytest.mark.parametrize("collapse, slice_entries", SLICED)
    def test_streamed_run_matches_whole_run_events(self, monkeypatch, collapse, slice_entries):
        # Five blocks of 40 slots, the last one 2 slots long; at two
        # detections per slot every block has events in its first and last
        # COINCIDENCE_WINDOW slots, so pairs cross every block edge.
        monkeypatch.setattr(montecarlo, "block_pulses", lambda cfg, phases=None: 40)
        if slice_entries:
            monkeypatch.setattr(montecarlo, "HISTOGRAM_SLICE", slice_entries)
        cfg = lossless_config(2.0, 4 * 40 + 2)
        (chunk,) = montecarlo._chunks(cfg, 0, 1)
        signal, idler = montecarlo._detections(chunk)
        for slots in (signal, idler):
            assert {0, 1, 2, 37, 38, 39} <= set((slots % 40).tolist())
        whole = brute_force_histogram(
            np.bincount(signal, minlength=cfg.num_pulses),
            np.bincount(idler, minlength=cfg.num_pulses),
            collapse,
        )
        # The fold counts click pairs; every detection pair is counted over
        # the run's detections.
        if collapse:
            assert montecarlo._fold(chunk) == whole
            assert simulate_car_run(cfg) == CoincidenceHistogram(whole, cfg.num_pulses)
        else:
            assert histogram_from_counts(signal, idler) == whole

    @pytest.mark.parametrize("collapse", [True, False])
    def test_int32_slots_at_the_top_of_the_range(self, collapse):
        # Block-relative slots of the longest int32 block, crowded near both
        # ends of [-COINCIDENCE_WINDOW, n]: the tail, the first slots, the
        # last slots and the spill slot n. The walk takes delays of nearly
        # -n, from an entry below the gap to the first signal entry above
        # it; had they wrapped, the int32 counts would differ from the int64
        # ones.
        n = MAX_BLOCK_PULSES
        rng = np.random.default_rng(5)
        span = np.r_[-COINCIDENCE_WINDOW : 8, n - 8 : n + 1]
        # Every slot of the span once, then some again.
        channels = [np.sort(np.r_[span, rng.choice(span, size=40)]) for _ in range(2)]
        if collapse:
            channels = [np.unique(slots) for slots in channels]
        hist = histogram_from_counts(*(slots.astype(np.int32) for slots in channels))
        assert hist == histogram_from_counts(*channels)
        assert sum(hist.values()) > 0

    @pytest.mark.parametrize("collapse", [True, False])
    def test_memory_scales_with_entries(self, collapse):
        # ~7.6e5 detections per channel at a channel mean of 1, each inside
        # the windows of about seven others uncollapsed: a list of every
        # pair would take ~200 MiB, the entries themselves ~3 MiB a channel.
        # The histogram bins fixed slices of entries, so its temporaries
        # (~0.35 MiB) do not grow with them.
        cfg = lossless_config(1.0, 2_000_000, seed=654)
        ((run, *_),) = montecarlo._chunks(cfg, 0, 1)
        _, block = montecarlo._block(run, 0)
        if collapse:
            block = [np.unique(slots) for slots in block]
        tracemalloc.start()
        try:
            histogram_from_counts(*block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "cfg, bound",
        [
            (replace(default_config(), num_pulses=2 * MAX_BLOCK_PULSES), 8),
            (lossless_config(1.0, 2_000_000, seed=654), 8),
        ],
        ids=["paper-2-blocks", "lossless-mu-1"],
    )
    def test_fold_holds_one_block(self, cfg, bound):
        # The fold draws the tail into each channel's one join, frees the
        # signal's own streams before the idler is built, takes each
        # channel's clicks in turn and shifts the tail out, so no block is
        # alive twice: its traced peak stays below two int32 entries per
        # detection of the largest block.
        (chunk,) = montecarlo._chunks(cfg, 0, 1)
        run, first, stop = chunk
        assert stop - first >= 2
        largest = max(sum(map(len, montecarlo._block(run, b)[1])) for b in range(first, stop))
        tracemalloc.start()
        try:
            montecarlo._fold(chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * largest

    def test_collapse_bounds_multiphoton_bins(self):
        # At half a pair per pulse, double emissions are common; the
        # collapsed histogram must sit strictly below the raw one at
        # delay 0 and never above it anywhere.
        cfg = replace(pairs_only_config(0.05, 1000, 200_000), interferometers_present=False)
        cfg = replace(cfg, source=replace(cfg.source, peak_power_w=pump_power_for_mu(0.5, cfg.source)))
        signal, idler = detected_counts(cfg)
        clicked = histogram_from_counts(np.unique(signal), np.unique(idler))
        raw = histogram_from_counts(signal, idler)
        for delay in clicked:
            assert clicked[delay] <= raw[delay]
        assert clicked[0] < raw[0]


class TestEstimateCar:
    def test_constructed_histogram(self):
        hist = CoincidenceHistogram(
            counts={0: 870, 1: 100, -1: 100, 2: 100, -2: 100, 3: 100, -3: 100},
            num_pulses=10**6,
        )
        est = estimate_car(hist)
        assert est.car == pytest.approx(8.7, rel=1e-12)
        assert est.stderr == pytest.approx(8.7 * math.sqrt(1 / 870 + 1 / 600), rel=1e-12)

    def test_empty_bins_raise(self):
        empty = CoincidenceHistogram(counts={0: 0, 1: 0}, num_pulses=10)
        with pytest.raises(InsufficientStatisticsError):
            estimate_car(empty)
        no_zero = CoincidenceHistogram(counts={1: 5}, num_pulses=10)
        with pytest.raises(InsufficientStatisticsError):
            estimate_car(no_zero)

    def test_single_pulse_run_cannot_be_estimated(self):
        with pytest.raises(InsufficientStatisticsError):
            estimate_car(simulate_car_run(lossless_config(4e-3, 1)))

    def test_realistic_losses_starve_a_short_run(self):
        # Baseline channel alphas at desk-scale pulse counts leave the
        # delay-0 bin empty; the estimator must refuse, not return junk.
        cfg = replace(default_config(), num_pulses=100_000)
        with pytest.raises(InsufficientStatisticsError):
            estimate_car(simulate_car_run(cfg))


def hotelling_t2(runs, expected) -> float:
    """Hotelling's T^2 of K runs' bin counts against their expected mean:
    K (x - expected)' S^-1 (x - expected), x the runs' mean and S their
    sample covariance. For K independent normal runs with p bins,
    T^2 (K - p) / (p (K - 1)) is F(p, K - p) distributed."""
    counts = np.array(runs, dtype=float)
    gap = counts.mean(axis=0) - np.asarray(expected)
    return len(counts) * gap @ np.linalg.solve(np.cov(counts, rowvar=False), gap)


# The pooled gates of the saturated regimes: T2_RUNS runs, run k as sweep
# point k, its click bins folded and its raw bins counted over the run's
# detections. At saturation the bins of one run are neither Poisson nor
# independent, so each gate is Hotelling's T^2 over the 7 bins with the
# covariance of the runs. Its bound, 45.73, is 7 * 49 / 43 times the upper
# 1e-4 point of F(7, 43), so a correct sampler fails with probability 1e-4.
T2_RUNS, T2_BOUND = 50, 45.73


def pooled_folds(cfg, block, phases=None) -> tuple[list, list]:
    """Click delay counts, folded, and raw delay counts, every detection
    pair of the run's detections, of T2_RUNS runs of cfg, each one chunk of
    `block`-pulse blocks: a histogram run without phases, a fringe point at
    phases with them."""
    clicks, raw = [], []
    with pytest.MonkeyPatch.context() as patch:
        short_blocks(patch, block, cfg, phases)
        for k in range(T2_RUNS):
            (chunk,) = montecarlo._chunks(cfg, k, 1, phases)
            assert chunk[1:] == (0, -(-cfg.num_pulses // block))
            clicks.append(list(montecarlo._fold(chunk).values()))
            raw.append(list(histogram_from_counts(*montecarlo._detections(chunk)).values()))
    return clicks, raw


class TestCarAgainstClosedForm:
    # Saturated threshold detectors across block edges: channel mean 1 and
    # darks at 0.3 per slot, in runs of forty 100-pulse blocks, the last one
    # pulse short. The bins of one run correlate at 0.79 or more. The clicks
    # gate fails on a 0.44% bias in one bin (1.0% in all seven alike) half
    # the time, and on 0.56% (1.3%) nine times in ten; the raw gate on 0.90%
    # (1.95%) and 1.15% (2.5%).
    SATURATED_BLOCK = 100

    @pytest.fixture(scope="class")
    def saturated(self):
        """The saturated config and each run's click and raw delay counts."""
        cfg = lossless_config(1.0, 40 * self.SATURATED_BLOCK - 1, seed=90_023, dark_rate_hz=3e8)
        return (cfg, *pooled_folds(cfg, self.SATURATED_BLOCK))

    def test_ten_point_sweep(self):
        # Graded pulse counts keep the accidental bins populated at low mu
        # without burning minutes at high mu. Darks at 2e-4 per slot anchor
        # the accidental floor where pair rates alone would leave empty bins.
        dark = 2e-4
        src = default_config().source
        for k, mu in enumerate(np.logspace(-4, -2, 10)):
            pulses = int(min(2e7, max(5e5, 20.0 / (mu + dark) ** 2)))
            cfg = lossless_config(
                mu, pulses, seed=40_000 + k, dark_rate_hz=dark * 1e9
            )
            est = estimate_car(simulate_car_run(cfg))
            expected = car_closed_form(mu, src, 1.0, dark)
            assert est.car == pytest.approx(expected, abs=3.5 * est.stderr), (
                f"mu={mu:.3e}"
            )

    def test_paper_point_bins_pool_to_closed_form(self):
        # The exactness gate at the paper's losses: 40 sweep points of 1e10
        # pulses, each five blocks with the last one partial. Each delay bin
        # is pooled over the points, and one chi-square over the 7 bins is
        # taken against the threshold-detector expectation. The bound, 29.88,
        # is the upper 1e-4 point of chi-square with 7 degrees of freedom,
        # so a correct sampler fails with probability 1e-4. At 4e11 pooled
        # pulses (~1720 delay-0 and ~220 counts per accidental bin expected)
        # a bias of 12% at delay 0, or 33% in one accidental bin, fails the
        # gate half the time, and one of 15% or 42% nine times in ten.
        cfg = replace(default_config(), num_pulses=10**10, seed=90_019)
        assert num_blocks(cfg) == 5
        p, points = expected_histogram(cfg), 40
        totals = dict.fromkeys(p, 0)
        for k in range(points):
            for delay, count in simulate_car_run(cfg, point=k).counts.items():
                totals[delay] += count
        expected = {d: points * (cfg.num_pulses - abs(d)) * p[d] for d in p}
        chi2 = sum((totals[d] - expected[d]) ** 2 / expected[d] for d in p)
        assert chi2 < 29.88, (totals, expected)

    def test_saturated_clicks_pool_to_closed_form(self, saturated):
        cfg, clicks, _ = saturated
        p, n = expected_histogram(cfg), cfg.num_pulses
        t2 = hotelling_t2(clicks, [(n - abs(d)) * p[d] for d in p])
        assert t2 < T2_BOUND, np.sum(clicks, axis=0)

    def test_saturated_raw_pool_to_closed_form(self, saturated):
        # Every detection pair: each channel is Poisson(lam) in every slot
        # and the matched pairs add m_0 at delay 0, so a slot pair at delay
        # d holds lam_s lam_i + m_d detection pairs on average. lam and m are
        # written out here, not read from analytic.stream_means, which both
        # the sampler and expected_histogram draw on: this gate and the
        # satellite raw gate are the independent derivation of those means.
        cfg, _, raw = saturated
        stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
        a_s, a_i, d_s, d_i = arm_detection(cfg, include_interferometer=False)
        lam_s = (stats.mu_pairs + stats.mu_noise_signal) * a_s - math.log1p(-d_s)
        lam_i = (stats.mu_pairs + stats.mu_noise_idler) * a_i - math.log1p(-d_i)
        m = {0: stats.mu_pairs * a_s * a_i}
        n = cfg.num_pulses
        expected = [(n - abs(d)) * (lam_s * lam_i + m.get(d, 0.0)) for d in range(-3, 4)]
        assert hotelling_t2(raw, expected) < T2_BOUND, np.sum(raw, axis=0)


class TestFringeAgainstClosedForm:
    # A fringe point with satellites, in runs of 120 one-pulse blocks: eight
    # pairs per pulse, no noise or darks, and arms that detect half their
    # photons, so each arm also sees pairs whose partner the other arm missed
    # (the kept (1 - alpha) term of the own streams). A channel holds ~2
    # detections a slot. Every pair one slot apart spills its later photon
    # past its block, into the slot the next block's tail carries.
    SATELLITE_BLOCK = 1

    @pytest.fixture(scope="class")
    def satellites(self):
        """The fringe config, its phases and each run's click and raw delay
        counts."""
        cfg = pairs_only_config(8.0, 1000, 120 * self.SATELLITE_BLOCK, seed=90_029)
        half = {"detector_efficiency": 0.5}
        cfg = replace(cfg, signal=replace(cfg.signal, **half), idler=replace(cfg.idler, **half))
        phases = PhasePair(1.0, 0.3)
        return (cfg, phases, *pooled_folds(cfg, self.SATELLITE_BLOCK, phases))

    def test_satellite_clicks_pool_to_closed_form(self, satellites):
        cfg, phases, clicks, _ = satellites
        p, n = expected_histogram(cfg, phases), cfg.num_pulses
        t2 = hotelling_t2(clicks, [(n - abs(d)) * p[d] for d in p])
        assert t2 < T2_BOUND, np.sum(clicks, axis=0)

    def test_satellite_raw_pool_to_closed_form(self, satellites):
        # As the saturated raw gate, from the sectors: each channel keeps
        # its pairs' photons in every sector but the other arm's alone, and
        # half its noise, and the pairs both arms see add m_d at delays 0
        # and +-1.
        cfg, phases, _, raw = satellites
        stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
        a_s, a_i, d_s, d_i = arm_detection(cfg, include_interferometer=True)
        matched, s_first, i_first, s_only, i_only = sector_probabilities(cfg.coherence_slots, phases)
        kept = matched + s_first + i_first
        lam_s = (stats.mu_pairs * (kept + s_only) + stats.mu_noise_signal / 2) * a_s - math.log1p(-d_s)
        lam_i = (stats.mu_pairs * (kept + i_only) + stats.mu_noise_idler / 2) * a_i - math.log1p(-d_i)
        shared = stats.mu_pairs * a_s * a_i
        m = {0: shared * matched, 1: shared * s_first, -1: shared * i_first}
        n = cfg.num_pulses
        expected = [(n - abs(d)) * (lam_s * lam_i + m.get(d, 0.0)) for d in range(-3, 4)]
        assert hotelling_t2(raw, expected) < T2_BOUND, np.sum(raw, axis=0)


# A pair's photon slots (signal, idler) after its pulse's slot, for each
# outcome of brute_force_sectors and then the neither-kept remainder. A
# discarded photon has no slot, and a lone kept photon takes the short or the
# long path of its interferometer with equal chance.
LONE = "lone"
PAIR_OUTCOMES = ((0, 0), (0, 1), (1, 0), (LONE, None), (None, LONE), (None, None))


def reference_run(cfg, phases, rng) -> list[int]:
    """Click pairs by delay -3..3 of one run of cfg, drawn photon by photon
    with none of the sampler's thinning algebra: a fringe point at phases,
    or a histogram run without them.

    Each pulse emits a Poisson number of pairs, and of noise photons in each
    arm. Behind the interferometers each pair takes its joint outcome from
    the ket oracle brute_force_sectors, and each noise photon takes either
    port and either path with equal chance. Every photon then survives its
    own arm's alpha, every pulse slot holds a dark with probability d, and a
    slot with any of them is one click of a threshold detector. The
    histogram is counted from the two click arrays slot by slot; the slot
    after the last pulse holds the photons that took a long path there.
    """
    n = cfg.num_pulses
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    inside = phases is not None
    detection = arm_detection(cfg, include_interferometer=inside)
    outcomes, weights = PAIR_OUTCOMES[:1], [1.0]
    if inside:
        sectors = brute_force_sectors(cfg.coherence_slots, phases.signal, phases.idler)
        outcomes, weights = PAIR_OUTCOMES, [*sectors, 1.0 - sum(sectors)]
    pulses = np.repeat(np.arange(n), rng.poisson(stats.mu_pairs, n))
    outcome = rng.choice(len(outcomes), size=len(pulses), p=weights)
    clicks = []
    for arm, noise_mean in enumerate((stats.mu_noise_signal, stats.mu_noise_idler)):
        photons = []
        for k, slots in enumerate(outcomes):
            if slots[arm] is not None:
                at = pulses[outcome == k]
                shift = rng.integers(0, 2, len(at)) if slots[arm] == LONE else slots[arm]
                photons.append(at + shift)
        noise = np.repeat(np.arange(n), rng.poisson(noise_mean, n))
        if inside:
            noise = noise[rng.random(len(noise)) < 0.5]
            noise = noise + rng.integers(0, 2, len(noise))
        photons = np.concatenate([*photons, noise])
        click = np.zeros(n + 1, dtype=bool)
        click[photons[rng.random(len(photons)) < detection[arm]]] = True
        click[:n] |= rng.random(n) < detection[arm + 2]
        clicks.append(click)
    signal, idler = clicks
    counts = []
    for d in range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1):
        lo, hi = max(0, -d), n + 1 - max(0, d)
        counts.append(int(np.count_nonzero(signal[lo:hi] & idler[lo + d : hi + d])))
    return counts


class TestModelAgainstReference:
    # The channel model, analytic.stream_means as expected_histogram reads
    # it, against reference_run, which shares none of its algebra: T2_RUNS
    # runs of REFERENCE_PULSES pulses, run k drawn from
    # default_rng((cfg.seed, k)), and Hotelling's T^2 at T2_BOUND. The fringe
    # point has five coherence slots, noise at ~0.3 photons a pulse beside
    # ~0.7 pairs, and arms that detect half their photons, so each arm sees
    # pairs whose partner the other arm lost. The histogram run has darks at
    # 0.3 per slot. Seeded into stream_means, noise at factor 1 inside the
    # interferometers reads T^2 ~2e4 on the fringe gate and `kept` without
    # the idler-first sector ~350; darks at mean d read ~940 on the
    # histogram gate.
    REFERENCE_PULSES = 10_000

    def assert_matches_reference(self, cfg, phases=None):
        rngs = (np.random.default_rng((cfg.seed, k)) for k in range(T2_RUNS))
        runs = [reference_run(cfg, phases, rng) for rng in rngs]
        p, n = expected_histogram(cfg, phases), cfg.num_pulses
        t2 = hotelling_t2(runs, [(n - abs(d)) * p[d] for d in p])
        assert t2 < T2_BOUND, np.sum(runs, axis=0)

    def test_fringe_point_matches_reference(self):
        cfg = lossless_config(1.0, self.REFERENCE_PULSES, seed=90_031, interferometers=True)
        half = {"detector_efficiency": 0.5}
        signal, idler = replace(cfg.signal, **half), replace(cfg.idler, **half)
        cfg = replace(cfg, coherence_slots=5, signal=signal, idler=idler)
        self.assert_matches_reference(cfg, PhasePair(1.0, 0.3))

    def test_dark_heavy_histogram_matches_reference(self):
        self.assert_matches_reference(
            lossless_config(1.0, self.REFERENCE_PULSES, seed=90_037, dark_rate_hz=3e8)
        )


class TestFringeRun:
    def test_counts_match_sector_probabilities(self):
        # Pure pairs with unit alpha: a delay-0 coincidence is a matched-slot
        # outcome or two pairs whose photons share a slot, so the mean count
        # is pulses * P_0 with the sector probabilities straight from
        # analytic.sector_probabilities. At phi = pi it is 4.49, not
        # pulses * mu * p_matched = 0.5.
        n_slots, mu, pulses = 1000, 4e-3, 1_000_000
        for phi in (0.0, 0.5 * math.pi, math.pi):
            cfg = pairs_only_config(mu, n_slots, pulses, seed=50_000 + int(10 * phi))
            got = simulate_fringe_run(cfg, PhasePair(phi, 0.0))
            expected = pulses * expected_histogram(cfg, PhasePair(phi, 0.0))[0]
            assert abs(got - expected) <= 4 * math.sqrt(expected) + 3, f"phi={phi}"

    def test_phase_sum_pairs_conserve_counts(self):
        # p_matched(theta) + p_matched(theta + pi) = 1/4 independent of
        # theta, so opposite-phase runs sum to a nearly phase-free total:
        # pulses * mu / 4 = 500 from single pairs, plus two-pair accidentals,
        # about 502.2 at each theta. The sum must match the threshold-detector
        # form within counting noise.
        mu, pulses = 4e-3, 500_000
        for k, theta in enumerate((0.0, 0.7, 2.1)):
            cfg = pairs_only_config(mu, 1000, pulses, seed=51_000 + k)
            expected = pulses * sum(
                expected_histogram(cfg, PhasePair(phi, 0.0))[0]
                for phi in (theta, theta + math.pi)
            )
            total = simulate_fringe_run(cfg, PhasePair(theta, 0.0)) + simulate_fringe_run(
                cfg, PhasePair(theta + math.pi, 0.0)
            )
            assert abs(total - expected) <= 4 * math.sqrt(expected), f"theta={theta}"

    def test_visibility_reaches_slot_count_bound(self):
        # Five slots, no noise anywhere: the fitted fringe visibility is the
        # fit of the expected counts up to counting noise. Two pairs in one
        # pulse add a phase-free floor, so at mu = 0.05 that is 0.727, below
        # the ideal (n-1)/n = 0.8 of the single-pair state.
        from timebinsim import fit_fringe

        phases = 2 * math.pi * np.arange(12) / 12
        counts, expected = [], []
        for k, phi in enumerate(phases):
            cfg = pairs_only_config(0.05, 5, 200_000, seed=52_000 + k)
            counts.append(simulate_fringe_run(cfg, PhasePair(phi, 0.0)))
            expected.append(200_000 * expected_histogram(cfg, PhasePair(phi, 0.0))[0])
        fit = fit_fringe(phases, counts)
        assert fit.visibility == pytest.approx(fit_fringe(phases, expected).visibility, abs=0.04)

    @pytest.mark.parametrize(
        "cfg",
        [
            pairs_only_config(0.5, 5, 100_000),
            lossless_config(4e-3, 5_000_000, interferometers=True),
        ],
        ids=["pairs-mu-0.5", "lossless-mu-4e-3"],
    )
    def test_delay_histogram_matches_closed_form(self, cfg):
        # The whole folded histogram of a fringe point, not only delay 0:
        # multi-pair accidentals everywhere and the one-slot-apart pairs at
        # +-1, summed over 40 seeds, each bin within 4 sigma.
        phases = PhasePair(1.0, 0.3)
        p = expected_histogram(cfg, phases)
        n, runs = cfg.num_pulses, 40
        totals = dict.fromkeys(p, 0)
        for k in range(runs):
            (chunk,) = montecarlo._chunks(replace(cfg, seed=60_000 + k), 0, 1, phases)
            for delay, count in montecarlo._fold(chunk).items():
                totals[delay] += count
        for delay, count in totals.items():
            expected = runs * (n - abs(delay)) * p[delay]
            assert abs(count - expected) <= 4 * math.sqrt(expected), f"delay {delay}"
        assert totals[1] > totals[2] and totals[-1] > totals[-2]

    def test_rejects_histogram_setup(self):
        cfg = lossless_config(4e-3, 1000, interferometers=False)
        with pytest.raises(ValueError, match="interferometers_present"):
            simulate_fringe_run(cfg, PhasePair(0.0, 0.0))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 20])
    def test_pair_across_block_edge_counted_once(self, monkeypatch, size):
        # Blocks of `size` slots at 8 pairs per pulse: one-slot-apart pairs
        # put their later photon one slot past their block, into a slot the
        # next block fills too. Blocks shorter than COINCIDENCE_WINDOW leave
        # detections of several earlier blocks in the tail, and a chunk must
        # draw all of them again to start from that tail. Summed over the
        # chunks of 1, 2 or 3 workers, folded in this process, the fold must
        # count a shared slot as one click and equal the click histogram of
        # the whole run's detections, which the chunks' detections make up.
        cfg = pairs_only_config(8.0, 5, 10 * 20 + 3)
        phases = PhasePair(0.6, 0.0)
        short_blocks(monkeypatch, size, cfg, phases)
        affinity = lambda pid: {0, 1, 2}
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", affinity, raising=False)
        ((run, *_),) = montecarlo._chunks(cfg, 0, 1, phases)
        blocks = [montecarlo._block(run, b) for b in range(-(-cfg.num_pulses // size))]
        assert any(slots[-1] == n for n, block in blocks for slots in block)
        whole = [
            np.sort(np.concatenate([block[channel] + b * size for b, (_, block) in enumerate(blocks)]))
            for channel in range(2)
        ]
        expected = histogram_from_counts(*(np.unique(slots) for slots in whole))
        for workers in (1, 2, 3):
            chunks = montecarlo._chunks(cfg, 0, workers, phases)
            assert len(chunks) == workers
            parts = [montecarlo._fold(chunk) for chunk in chunks]
            assert {d: sum(part[d] for part in parts) for d in expected} == expected
            detections = [montecarlo._detections(chunk) for chunk in chunks]
            for channel in range(2):
                joined = np.concatenate([part[channel] for part in detections])
                assert np.array_equal(joined, whole[channel])
