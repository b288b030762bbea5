"""The benchmark's workloads: inputs generated from a seed, and commands.

Each workload is a cycle of CLI commands run in a closed loop. Inputs come
from the public API only (`default_config`, `pump_power_for_mu`,
`config_to_dict`), and the workload seed reaches the program only as the
`--seed` of each command and through the generated input files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from timebinsim import ChannelParams, ExperimentConfig, config_to_dict, default_config, pump_power_for_mu

import checks

CAR_PAPER_PULSES = 20_000_000
CAR_DENSE_PULSES = 10_000_000
CAR_DENSE_MU = 1e-2
FRINGE_PULSES = 1_000_000
FRINGE_STEPS = 16
OPERATING_MU = 4e-3
SWEEPS = (("mu", 1e-4, 1e-2, 25), ("dfdt", 0.25, 2.5, 10))
# The fit inputs have the documented pipeline's sizes: 16 phase points, as
# `mc-fringe --steps 16` writes the fringe.csv `fit --model fringe` reads,
# and 16 pump powers, as in the scaling fits of the repository's tests.
SCALING_ROWS = 16
FRINGE_ROWS = FRINGE_STEPS
# Pulses per call in the --workers 1 vs 2 dispatch probe: four blocks.
PROBE_PULSES = 4_000_000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without --out-dir) and how to check its output."""

    argv: list[str]
    check: Callable[[Path, int], None]
    # Units of work: simulated pulses, or rows computed or fitted.
    work: int


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    # Histogram or fringe config the --workers 1 vs 2 probe samples.
    probe_config: ExperimentConfig
    # Command cycle for one round, given that round's seed.
    cycle: Callable[[int], list[Command]]


def lossless_proxy(mu_total: float) -> ExperimentConfig:
    """Baseline source at the requested channel mean, perfect detection."""
    cfg = default_config()

    def lossless(ch: ChannelParams) -> ChannelParams:
        return replace(
            ch,
            out_coupling_db=0.0,
            channel_loss_db=0.0,
            interferometer_loss_db=0.0,
            detector_efficiency=1.0,
        )

    return replace(
        cfg,
        source=replace(cfg.source, peak_power_w=pump_power_for_mu(mu_total, cfg.source)),
        signal=lossless(cfg.signal),
        idler=lossless(cfg.idler),
    )


def _write_config(path: Path, cfg: ExperimentConfig) -> str:
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    return str(path)


def _write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def round_seeds(name: str, seed: int):
    """Per-round CLI seeds, a pure function of the workload and its seed."""
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(2**31)


def car_paper(work: Path, seed: int) -> Workload:
    def cycle(s: int) -> list[Command]:
        cfg = replace(default_config(), num_pulses=CAR_PAPER_PULSES, seed=s)
        argv = ["mc-car", "--pulses", str(CAR_PAPER_PULSES), "--workers", "1", "--seed", str(s)]
        return [Command(argv, partial(checks.check_car_paper, cfg=cfg), CAR_PAPER_PULSES)]

    return Workload("car-paper", 1, default_config(), cycle)


def car_dense(work: Path, seed: int) -> Workload:
    proxy = lossless_proxy(CAR_DENSE_MU)
    path = _write_config(work / "dense.json", proxy)
    workers = min(2, nproc())

    def cycle(s: int) -> list[Command]:
        cfg = replace(proxy, num_pulses=CAR_DENSE_PULSES, seed=s)
        argv = [
            "mc-car", "--config", path, "--pulses", str(CAR_DENSE_PULSES),
            "--workers", str(workers), "--seed", str(s),
        ]
        return [Command(argv, partial(checks.check_car_dense, cfg=cfg), CAR_DENSE_PULSES)]

    return Workload("car-dense", workers, proxy, cycle)


def fringe_long(work: Path, seed: int) -> Workload:
    proxy = replace(lossless_proxy(OPERATING_MU), interferometers_present=True)
    path = _write_config(work / "fringe.json", proxy)

    def cycle(s: int) -> list[Command]:
        cfg = replace(proxy, num_pulses=FRINGE_PULSES, seed=s)
        argv = [
            "mc-fringe", "--config", path, "--pulses", str(FRINGE_PULSES),
            "--steps", str(FRINGE_STEPS), "--phi-i", "pi/2", "--workers", "1", "--seed", str(s),
        ]
        check = partial(checks.check_fringe, cfg=cfg, steps=FRINGE_STEPS)
        return [Command(argv, check, FRINGE_PULSES * FRINGE_STEPS)]

    return Workload("fringe-long", 1, proxy, cycle)


def analysis(work: Path, seed: int) -> Workload:
    """README analysis commands on a seed-drawn source and noisy CSVs."""
    rng = np.random.default_rng(seed)
    base = default_config()
    source = replace(
        base.source,
        pair_coeff=float(rng.uniform(4.0, 8.0)),
        noise_coeff=float(rng.uniform(0.7, 1.4)),
    )
    source = replace(source, peak_power_w=pump_power_for_mu(OPERATING_MU, source))
    cfg = replace(base, source=source)
    config_path = _write_config(work / "analysis.json", cfg)

    # Power sweep: closed-form means plus homoscedastic Gaussian noise of a
    # known sd, so each slope's true standard error is sd / |x|.
    f = source.bandwidth_time_product
    noise_s, noise_i = source.noise_coeff, source.noise_coeff * float(rng.uniform(0.8, 1.2))
    power = np.linspace(0.5e-3, 1e-2, SCALING_ROWS)
    designs = [power**2 * f, power * f, power * f]
    coeffs = {"pair_coeff": source.pair_coeff, "noise_coeff_signal": noise_s, "noise_coeff_idler": noise_i}
    sds = [0.01 * k * x.max() for k, x in zip(coeffs.values(), designs)]
    noisy = [k * x + rng.normal(0.0, sd, SCALING_ROWS) for k, x, sd in zip(coeffs.values(), designs, sds)]
    expected = {
        name: (k, sd / float(np.linalg.norm(x)))
        for (name, k), x, sd in zip(coeffs.items(), designs, sds)
    }
    scaling = _write_csv(
        work / "scaling.csv",
        ["power_w", "mu_pairs", "mu_noise_signal", "mu_noise_idler"],
        zip(power.tolist(), *(n.tolist() for n in noisy)),
    )

    # Fringe: Poisson counts around A (1 + V cos(phi + phi0)).
    visibility = float(rng.uniform(0.5, 0.95))
    level = float(rng.uniform(3000.0, 6000.0))
    offset = float(rng.uniform(-math.pi, math.pi))
    phi = 2.0 * math.pi * np.arange(FRINGE_ROWS) / FRINGE_ROWS
    counts = rng.poisson(level * (1.0 + visibility * np.cos(phi + offset)))
    fringe = _write_csv(work / "fringe.csv", ["phi_s", "coincidences"], zip(phi.tolist(), counts.tolist()))

    def cycle(s: int) -> list[Command]:
        common = ["--config", config_path, "--seed", str(s)]
        cfg_s = replace(cfg, seed=s)
        commands = [
            Command(
                ["analytic", "--sweep", sweep, "--start", str(start), "--stop", str(stop),
                 "--steps", str(steps), *common],
                partial(checks.check_sweep, cfg=cfg_s, sweep=sweep, start=start, stop=stop, steps=steps),
                steps,
            )
            for sweep, start, stop, steps in SWEEPS
        ]
        commands.append(
            Command(
                ["fit", "--model", "scaling", "--data", scaling, *common],
                partial(checks.check_fit_scaling, seed=s, data=Path(scaling), cfg=cfg, expected=expected),
                SCALING_ROWS,
            )
        )
        commands.append(
            Command(
                ["fit", "--model", "fringe", "--data", fringe, *common],
                partial(checks.check_fit_fringe, seed=s, visibility=visibility),
                FRINGE_ROWS,
            )
        )
        return commands

    return Workload("analysis", 1, base, cycle)


WORKLOADS = {
    "car-paper": car_paper,
    "car-dense": car_dense,
    "fringe-long": fringe_long,
    "analysis": analysis,
}
