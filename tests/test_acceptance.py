"""Acceptance gate: the eleven headline checks, one test and one printed
verdict line each. Run with `pytest -v -s tests/test_acceptance.py` to see
the lines; each asserts at its stated tolerance.

Criteria 3 and 4 sample a lossless-channel variant of the baseline config,
where both compared quantities are ratios that do not depend on the
transmission scale. Criterion 10 samples the baseline config itself, with
its channel transmissions near 6e-3, at 1e10 pulses: ten seconds of the
1 GHz train. Criterion 11 runs the same config through the command line at
1e12 pulses, a 1 GHz acquisition of about 17 minutes, in a child process
whose wall time and peak memory it bounds. The analytic legs use the
baseline config as is. Criteria 3, 10 and 11 hold a sampled ratio to the
exact ratio of expected_histogram at the sampled config.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import exact_car, lossless_config, pairs_only_config, saturation_gap
from timebinsim import (
    PairStatistics,
    PhasePair,
    car_closed_form,
    default_config,
    estimate_car,
    estimate_gamma,
    expected_histogram,
    fit_fringe,
    fit_scaling,
    predicted_visibility,
    pump_power_for_mu,
    sector_probabilities,
    simulate_car_run,
    simulate_fringe_run,
)
from timebinsim.analytic import sweep_config
from timebinsim.cli import main
from timebinsim.params import SourceParams, arm_detection

PHASES_16 = 2 * math.pi * np.arange(16) / 16


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def cross_check_source() -> SourceParams:
    """Baseline coefficients at a bandwidth-time product of 2.5."""
    return SourceParams(
        pair_coeff=5.78,
        noise_coeff=1.03,
        bandwidth_ghz=2.5,
        pulse_width_ns=1.0,
        rep_rate_ghz=1.0,
        peak_power_w=1e-3,
    )


def test_criterion_1_ratio_cross_check_ideal_detection():
    car = car_closed_form(0.004, cross_check_source(), 1.0, 0.0)
    ok = abs(car - 3.1) <= 0.1
    verdict(1, ok, f"closed-form ratio {car:.4f} within 3.1 +/- 0.1")
    assert ok


def test_criterion_2_ratio_cross_check_lossy_detection():
    car = car_closed_form(0.004, cross_check_source(), 0.0058, 7e-6)
    ok = abs(car - 2.2) <= 0.15
    verdict(2, ok, f"closed-form ratio {car:.4f} within 2.2 +/- 0.15")
    assert ok


def test_criterion_3_peak_ratio_analytic_and_sampled():
    start = time.perf_counter()
    cfg = default_config()
    analytic_default = exact_car(sweep_config(cfg, "mu", 1e-3)[0])
    in_band = 7.7 <= analytic_default <= 9.7

    mc_cfg = lossless_config(1e-3, 10_000_000, seed=80_003)
    est = estimate_car(simulate_car_run(mc_cfg))
    analytic_variant = exact_car(mc_cfg)
    within = abs(est.car - analytic_variant) <= 3 * est.stderr
    elapsed = time.perf_counter() - start
    fast = elapsed < 120.0

    ok = in_band and within and fast
    verdict(
        3,
        ok,
        f"exact ratio {analytic_default:.3f} in [7.7, 9.7]; sampled "
        f"{est.car:.2f} +/- {est.stderr:.2f} vs {analytic_variant:.3f} "
        f"(lossless-channel variant) within 3 stderr; {elapsed:.1f} s < 120 s",
    )
    assert ok


def test_criterion_4_fringe_visibility_predicted_and_sampled():
    start = time.perf_counter()
    cfg = default_config()
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    detection = arm_detection(cfg, include_interferometer=True)
    predicted = predicted_visibility(stats, *detection, cfg.coherence_slots)
    in_band = 0.741 <= predicted <= 0.819

    mc_cfg = replace(
        lossless_config(stats.mu_total, 10_000_000, seed=80_004),
        interferometers_present=True,
    )
    counts = []
    for k, phi in enumerate(PHASES_16):
        counts.append(simulate_fringe_run(mc_cfg, PhasePair(float(phi), 0.0), point=k))
    fit = fit_fringe(PHASES_16, counts)
    fitted_in_band = 0.70 <= fit.visibility <= 0.85
    elapsed = time.perf_counter() - start
    fast = elapsed < 300.0

    ok = in_band and fitted_in_band and fast
    verdict(
        4,
        ok,
        f"predicted visibility {predicted:.4f} in [0.741, 0.819]; sampled fit "
        f"{fit.visibility:.3f} (lossless-channel variant, 16 x 1e7 pulses) in "
        f"[0.70, 0.85]; {elapsed:.1f} s < 300 s",
    )
    assert ok


def test_criterion_5_slot_count_law_of_the_exact_engine():
    worst = 0.0
    for n in (2, 3, 5, 10, 64):
        probabilities = [sector_probabilities(n, PhasePair(float(p), 0.0))[0] for p in PHASES_16]
        fit = fit_fringe(PHASES_16, probabilities)
        worst = max(worst, abs(fit.visibility - (n - 1) / n))
    top, bottom = (sector_probabilities(2, PhasePair(p, 0.0))[0] for p in (0.0, math.pi))
    exact_half = (top - bottom) / (top + bottom) == 0.5
    ok = worst <= 1e-9 and exact_half
    verdict(
        5,
        ok,
        f"fitted engine visibility matches (n-1)/n, worst |error| {worst:.2e} "
        f"<= 1e-9 over n in {{2,3,5,10,64}}; n=2 sector fringe is exactly 0.5",
    )
    assert ok


def test_criterion_6_ratio_route_and_inversion_consistency():
    # On symmetric arms the closed form is the exact ratio but for its
    # first-order saturation term; the rest is second order, within eps^2.
    worst_gap = worst_rest = worst_trip = 0.0
    for f in np.logspace(-1, 1, 10):
        src = replace(cross_check_source(), bandwidth_ghz=float(f))
        for mu in np.logspace(-5, -1, 10):
            power = pump_power_for_mu(mu, src)
            stats = PairStatistics.from_power(power, src)
            worst_trip = max(worst_trip, abs(stats.mu_total - mu) / mu)
            gap, first_order, eps = saturation_gap(src, mu, 0.0058, 3e-8)
            worst_gap = max(worst_gap, abs(gap))
            worst_rest = max(worst_rest, abs(gap - first_order) / eps**2)
    ok = worst_rest <= 1.0 and worst_trip <= 1e-12
    verdict(
        6,
        ok,
        f"closed form within {worst_gap:.2e} of the exact ratio, its first-order "
        f"saturation term to {worst_rest:.2f} eps^2 (<= 1), and the pump "
        f"inversion round-trips to {worst_trip:.2e} (<= 1e-12) on a 10x10 grid",
    )
    assert ok


def test_criterion_7_nonlinearity_scale():
    gamma = estimate_gamma(5.78, 420e-6)
    ok = 5300.0 <= gamma <= 6500.0
    verdict(7, ok, f"recovered nonlinear coefficient {gamma:.0f} /W/m in [5300, 6500]")
    assert ok


def test_criterion_8_fit_recovery():
    rng = np.random.default_rng(80_008)
    powers = np.linspace(0.05, 0.2, 16)
    jitter = lambda y: y * (1 + 0.01 * rng.standard_normal(len(y)))  # noqa: E731
    fit = fit_scaling(
        powers,
        jitter(5.78 * powers**2 * 0.75),
        jitter(1.03 * powers * 0.75),
        jitter(1.03 * powers * 0.75),
        0.75,
    )
    scaling_ok = (
        abs(fit.pair_coeff_hat - 5.78) / 5.78 <= 0.02
        and abs(fit.noise_coeff_signal_hat - 1.03) / 1.03 <= 0.02
        and abs(fit.noise_coeff_idler_hat - 1.03) / 1.03 <= 0.02
    )

    worst = 0.0
    for visibility in (0.0, 0.5, 0.78, 1.0):
        counts = 500.0 * (1 + visibility * np.cos(PHASES_16 + 0.4))
        worst = max(worst, abs(fit_fringe(PHASES_16, counts).visibility - visibility))
    fringe_ok = worst <= 1e-9

    ok = scaling_ok and fringe_ok
    verdict(
        8,
        ok,
        f"scaling coefficients {fit.pair_coeff_hat:.3f}/"
        f"{fit.noise_coeff_signal_hat:.3f} within 2% of 5.78/1.03 under 1% "
        f"noise; fringe fit exact to {worst:.2e} (<= 1e-9)",
    )
    assert ok


def test_criterion_9_bitwise_reproducible_commands(tmp_path):
    import json

    from timebinsim import config_to_dict

    car_cfg = tmp_path / "car.json"
    car_cfg.write_text(
        json.dumps(config_to_dict(lossless_config(5e-3, 400_000, seed=80_009, dark_rate_hz=2e5)))
    )
    fringe_cfg = tmp_path / "fringe.json"
    fringe_cfg.write_text(
        json.dumps(config_to_dict(pairs_only_config(0.05, 5, 50_000, seed=80_019)))
    )

    def run(cmd, cfg_path, out_name, extra=()):
        out = tmp_path / out_name
        code = main(
            [cmd, "--config", str(cfg_path), "--out-dir", str(out), *extra]
        )
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    car_runs = [
        run("mc-car", car_cfg, "car-a"),
        run("mc-car", car_cfg, "car-b"),
        run("mc-car", car_cfg, "car-c", ("--workers", "3")),
    ]
    fringe_runs = [
        run("mc-fringe", fringe_cfg, "fr-a", ("--steps", "8")),
        run("mc-fringe", fringe_cfg, "fr-b", ("--steps", "8")),
        run("mc-fringe", fringe_cfg, "fr-c", ("--steps", "8", "--workers", "2")),
    ]
    car_ok = car_runs[0] == car_runs[1] == car_runs[2]
    fringe_ok = fringe_runs[0] == fringe_runs[1] == fringe_runs[2]
    ok = car_ok and fringe_ok
    verdict(
        9,
        ok,
        "mc-car and mc-fringe reruns byte-identical across repeats and "
        "worker counts (histogram, estimate, fringe, fit, manifest files)",
    )
    assert ok


def test_criterion_10_paper_operating_point():
    start = time.perf_counter()
    cfg = replace(default_config(), num_pulses=10**10, seed=80_010)
    hist = simulate_car_run(cfg)
    n = cfg.num_pulses
    p = expected_histogram(cfg)
    expected_zero = n * p[0]
    expected_acc = sum((n - abs(d)) * p[d] for d in hist.window_delays)
    zero_z = (hist.counts[0] - expected_zero) / math.sqrt(expected_zero)
    acc_z = (hist.accidental_total - expected_acc) / math.sqrt(expected_acc)

    est = estimate_car(hist)
    analytic = exact_car(cfg)
    within = abs(est.car - analytic) <= 4 * est.stderr
    elapsed = time.perf_counter() - start
    fast = elapsed < 120.0

    ok = abs(zero_z) <= 4 and abs(acc_z) <= 4 and within and fast
    verdict(
        10,
        ok,
        f"baseline config, 1e10 pulses: delay-0 {hist.counts[0]} vs "
        f"{expected_zero:.1f} (z {zero_z:+.2f}), accidentals "
        f"{hist.accidental_total} vs {expected_acc:.1f} (z {acc_z:+.2f}); "
        f"sampled ratio {est.car:.2f} +/- {est.stderr:.2f} vs exact ratio "
        f"{analytic:.3f} within 4 stderr; {elapsed:.1f} s < 120 s",
    )
    assert ok


PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_criterion_11_paper_scale_command(tmp_path):
    seed, pulses = 80_011, 10**12
    cfg = replace(default_config(), num_pulses=pulses, seed=seed)
    out = tmp_path / "car"
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "timebinsim.cli", "mc-car", "--out-dir", str(out)]
    argv += ["--pulses", str(pulses), "--seed", str(seed)]
    start = time.perf_counter()
    # A child's ru_maxrss starts from the high-water RSS of the process that
    # spawned it, here the whole test session, so a fresh launcher spawns
    # the command and reports its exit code and peak RSS.
    launched = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    elapsed = time.perf_counter() - start
    returncode, peak_kib = map(int, launched.stdout.split())
    peak_mib = peak_kib / 1024  # KiB on Linux
    assert returncode == 0, launched.stderr

    result = json.loads((out / "car.json").read_text())
    p = expected_histogram(cfg)
    expected_zero = pulses * p[0]
    expected_acc = sum((pulses - abs(d)) * p[d] for d in (-3, -2, -1, 1, 2, 3))
    zero_z = (result["delay_zero_counts"] - expected_zero) / math.sqrt(expected_zero)
    acc_z = (result["accidental_total"] - expected_acc) / math.sqrt(expected_acc)
    analytic = exact_car(cfg)
    within = abs(result["car"] - analytic) <= 4 * result["stderr"]

    ok = abs(zero_z) <= 4 and abs(acc_z) <= 4 and within and elapsed < 60.0 and peak_mib < 150.0
    verdict(
        11,
        ok,
        f"baseline config, mc-car --pulses 1e12: delay-0 {result['delay_zero_counts']} vs "
        f"{expected_zero:.1f} (z {zero_z:+.2f}), accidentals {result['accidental_total']} vs "
        f"{expected_acc:.1f} (z {acc_z:+.2f}); ratio {result['car']:.2f} +/- "
        f"{result['stderr']:.2f} vs exact ratio {analytic:.3f} within 4 stderr; "
        f"{elapsed:.1f} s < 60 s, peak RSS {peak_mib:.0f} MiB < 150 MiB",
    )
    assert ok
