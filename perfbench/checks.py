"""Output checks for the benchmark's CLI commands.

Every check reads what one command left in its --out-dir, plus its exit
code, and compares it with the closed forms of the public `timebinsim` API.
A check returns None when the output is correct and a one-line reason when
it is not; the runner counts the reasons as failed commands.

Statistical checks are set so that a correct program fails one of them far
less often than once per benchmark campaign (hundreds of commands): Poisson
bins are rejected below a 1e-7 tail probability, estimates beyond 4
standard errors.

A known program defect that a check sees but does not count goes to NOTES,
which the runner prints and clears after each command.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from timebinsim import (
    ExperimentConfig,
    PairStatistics,
    car_closed_form,
    dark_per_slot,
    effective_alpha,
    fit_fringe,
    fit_scaling,
    predicted_visibility,
    pump_power_for_mu,
)

COINCIDENCE_WINDOW = 3
POISSON_TAIL = 1e-7
SIGMAS = 4.0
REL_TOL = 1e-9


NOTES: list[str] = []


class CheckFailed(Exception):
    """One reason an output is wrong."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from None
    _require(isinstance(data, dict), f"{path.name}: not a JSON object")
    return data


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], [[float(x) for x in row] for row in rows[1:]]
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from None


def _number(data: dict, key: str) -> float:
    value = data.get(key)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{key} is {value!r}, not a finite number",
    )
    return float(value)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _check_manifest(out: Path, command: str, seed: int) -> None:
    manifest = _read_json(out / "manifest.json")
    _require(manifest.get("command") == command, f"manifest command {manifest.get('command')!r}")
    _require(manifest.get("seed") == seed, f"manifest seed {manifest.get('seed')!r} != {seed}")
    for name in manifest.get("outputs", []):
        _require((out / name).is_file(), f"manifest lists missing output {name}")


def run_check(fn, *args, **kwargs) -> str | None:
    """Call a check; its failure reason, or None when the output is correct."""
    try:
        fn(*args, **kwargs)
    except CheckFailed as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# coincidence histograms
# ----------------------------------------------------------------------

def poisson_tails(k: int, lam: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Poisson(lam)."""
    if lam <= 0.0:
        return 1.0, float(k == 0)

    def pmf(j: int) -> float:
        return math.exp(j * math.log(lam) - lam - math.lgamma(j + 1))

    below = math.fsum(pmf(j) for j in range(k))
    return min(1.0, below + pmf(k)), max(0.0, 1.0 - below)


def bin_probabilities(cfg: ExperimentConfig) -> tuple[float, float]:
    """Per-slot-pair click-pair probabilities (delay 0, any other delay).

    Threshold detectors: a slot clicks when at least one photon or a dark
    count is detected. Pair photons split into independent Poisson streams
    (both detected, one detected, neither), so the joint no-click
    probability is a product of exponentials.
    """
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    a_s, a_i = effective_alpha(cfg.signal), effective_alpha(cfg.idler)
    d_s = dark_per_slot(cfg.signal, cfg.source.rep_rate_ghz)
    d_i = dark_per_slot(cfg.idler, cfg.source.rep_rate_ghz)
    # log of the no-click probability for each channel and for both
    log_q_s = -(stats.mu_pairs + stats.mu_noise_signal) * a_s + math.log1p(-d_s)
    log_q_i = -(stats.mu_pairs + stats.mu_noise_idler) * a_i + math.log1p(-d_i)
    log_q_si = (
        -stats.mu_pairs * (a_s + a_i - a_s * a_i)
        - stats.mu_noise_signal * a_s
        - stats.mu_noise_idler * a_i
        + math.log1p(-d_s)
        + math.log1p(-d_i)
    )
    click_s, click_i = -math.expm1(log_q_s), -math.expm1(log_q_i)
    click_any = -math.expm1(log_q_si)
    return click_s + click_i - click_any, click_s * click_i


def expected_threshold_car(cfg: ExperimentConfig) -> float:
    """Coincidence ratio threshold detectors give in expectation.

    car_closed_form is the unsaturated limit of this; at a channel mean of
    1e-2 it sits 0.8% higher, about half the standard error of a 1e7-pulse
    run.
    """
    p_zero, p_acc = bin_probabilities(cfg)
    return p_zero / p_acc


def _check_histogram(out: Path, cfg: ExperimentConfig) -> dict[int, int]:
    header, rows = _read_csv(out / "histogram.csv")
    _require(header == ["delay", "counts"], f"histogram.csv header {header}")
    _require(all(c >= 0 and c == int(c) for _, c in rows), "histogram counts are not counts")
    counts = {int(d): int(c) for d, c in rows}
    delays = list(range(-COINCIDENCE_WINDOW, COINCIDENCE_WINDOW + 1))
    _require(sorted(counts) == delays, f"histogram delays {sorted(counts)}")
    p_zero, p_acc = bin_probabilities(cfg)
    n = cfg.num_pulses
    for delay, k in counts.items():
        lam = n * p_zero if delay == 0 else (n - abs(delay)) * p_acc
        low, high = poisson_tails(k, lam)
        _require(
            min(low, high) >= POISSON_TAIL,
            f"delay {delay}: {k} counts, expected {lam:.4g} (tail {min(low, high):.2g})",
        )
    return counts


def _check_estimate(car: dict, counts: dict[int, int], cfg: ExperimentConfig) -> None:
    zero = counts[0]
    acc = sum(c for d, c in counts.items() if d != 0)
    _require(car.get("delay_zero_counts") == zero, "car.json delay_zero_counts != histogram")
    _require(car.get("accidental_total") == acc, "car.json accidental_total != histogram")
    _require(car.get("num_pulses") == cfg.num_pulses, "car.json num_pulses != --pulses")
    _require(zero > 0 and acc > 0, "estimate reported from an empty bin")
    ratio = zero / (acc / (2 * COINCIDENCE_WINDOW))
    stderr = ratio * math.sqrt(1.0 / zero + 1.0 / acc)
    _require(_close(_number(car, "car"), ratio), f"car {car['car']} != {ratio}")
    _require(_close(_number(car, "stderr"), stderr), f"stderr {car['stderr']} != {stderr}")


def check_car_paper(out: Path, exit_code: int, cfg: ExperimentConfig) -> None:
    """Realistic-loss histogram run: bins against the closed form.

    At this length the expected delay-0 count is far below one, so two
    outcomes are correct: exit 1 with an `insufficient statistics` error,
    or exit 0 with an estimate consistent with the bins.
    """
    counts = _check_histogram(out, cfg)
    car = _read_json(out / "car.json")
    if exit_code == 1:
        error = car.get("error")
        _require(
            isinstance(error, str) and error.startswith("insufficient statistics"),
            f"exit 1 without an insufficient-statistics error: {car}",
        )
        accidental = sum(c for d, c in counts.items() if d != 0)
        _require(counts[0] == 0 or accidental == 0, "exit 1 with both bins filled")
    else:
        _require(exit_code == 0, f"exit code {exit_code}")
        _require("error" not in car, f"exit 0 with an error: {car.get('error')}")
        _check_estimate(car, counts, cfg)
    _check_manifest(out, "mc-car", cfg.seed)


def check_car_dense(out: Path, exit_code: int, cfg: ExperimentConfig) -> None:
    """Dense histogram run: bins and a full estimate near the expected ratio."""
    _require(exit_code == 0, f"exit code {exit_code}")
    counts = _check_histogram(out, cfg)
    car = _read_json(out / "car.json")
    _check_estimate(car, counts, cfg)
    _within("car", car["car"], car["stderr"] ** 2, expected_threshold_car(cfg), "expected")
    _check_manifest(out, "mc-car", cfg.seed)


# ----------------------------------------------------------------------
# fringe runs
# ----------------------------------------------------------------------

def fringe_prediction(cfg: ExperimentConfig) -> float:
    stats = PairStatistics.from_power(cfg.source.peak_power_w, cfg.source)
    return predicted_visibility(
        stats,
        effective_alpha(cfg.signal, include_interferometer=True),
        effective_alpha(cfg.idler, include_interferometer=True),
        dark_per_slot(cfg.signal, cfg.source.rep_rate_ghz),
        dark_per_slot(cfg.idler, cfg.source.rep_rate_ghz),
        cfg.coherence_slots,
    )


def fringe_likelihood_ratio(phases, counts, visibility: float) -> float:
    """Poisson likelihood-ratio statistic of fringe counts against a visibility.

    The counts are taken as Poisson with means A (1 + b cos(phi) + c sin(phi)).
    Over phases spread evenly across a period the level A drops out, so the
    statistic is twice the log-likelihood at the best (b, c) less its best
    on the circle hypot(b, c) = visibility (a 3600-point phase grid). When
    the fringe has that visibility it is chi-squared with one degree of
    freedom, at ~17 counts per point as well as at thousands, unlike a
    weighted least-squares error.
    """
    phi = np.asarray(phases, dtype=float)
    y = np.asarray(counts, dtype=float)
    x = np.column_stack([np.cos(phi), np.sin(phi)])

    def loglik(beta) -> float:
        u = 1.0 + x @ beta
        return float(np.sum(y * np.log(u))) if np.all(u > 0.0) else -math.inf

    # The log-likelihood is concave in (b, c): damped Newton from a flat fringe.
    beta, best = np.zeros(2), 0.0
    for _ in range(100):
        u = 1.0 + x @ beta
        hess = (x.T * (y / u**2)) @ x + 1e-12 * np.eye(2)
        step = np.linalg.solve(hess, x.T @ (y / u))
        t = 1.0
        while t > 1e-12 and loglik(beta + t * step) < best:
            t *= 0.5
        if t <= 1e-12:
            break
        beta = beta + t * step
        gain = loglik(beta) - best
        best += gain
        if gain < 1e-12:
            break
    theta = np.linspace(-math.pi, math.pi, 3600, endpoint=False)
    null = float(np.max(y @ np.log1p(visibility * np.cos(phi[:, None] + theta[None, :]))))
    return 2.0 * (best - null)


def check_fringe(out: Path, exit_code: int, cfg: ExperimentConfig, steps: int) -> None:
    """Phase sweep: counts consistent with the predicted visibility.

    The counts are tested with fringe_likelihood_ratio at 4 sigma, and
    fringe_fit.json must be fit_fringe of fringe.csv. The fit's own
    visibility is not held to 4 visibility_error of the prediction: at
    ~17 counts per point the 1/counts weights of fit_fringe bias it upward
    and understate its error, so a correct sweep misses that test about
    once in 60. Such a miss is a known defect of fit_fringe and goes to
    NOTES; `fit --model fringe` in the analysis workload holds the fit to
    that test at thousands of counts per point.
    """
    _require(exit_code == 0, f"exit code {exit_code}")
    header, rows = _read_csv(out / "fringe.csv")
    _require(header == ["phi_s", "coincidences"], f"fringe.csv header {header}")
    _require(len(rows) == steps, f"{len(rows)} phase points, expected {steps}")
    phases = [r[0] for r in rows]
    counts = [r[1] for r in rows]
    for k, phi in enumerate(phases):
        _require(_close(phi, 2.0 * math.pi * k / steps), f"phase {k} is {phi}")
    _require(all(c >= 0 and c == int(c) for c in counts), "coincidences not counts")
    fit = _read_json(out / "fringe_fit.json")
    try:
        refit = asdict(fit_fringe(phases, counts))
    except ValueError as exc:
        raise CheckFailed(f"fringe.csv cannot be fitted: {exc}") from None
    for key, want in refit.items():
        got = fit.get(key)
        same = got is want if isinstance(want, bool) else _close(_number(fit, key), want)
        _require(same, f"{key} {got!r} != fit of fringe.csv {want!r}")
    predicted = fringe_prediction(cfg)
    statistic = fringe_likelihood_ratio(phases, counts, predicted)
    _require(
        statistic <= SIGMAS**2,
        f"fringe.csv likelihood ratio {statistic:.3g} > {SIGMAS**2:g} against predicted visibility {predicted:.4g}",
    )
    try:
        _within("visibility", fit["visibility"], fit["visibility_error"] ** 2, predicted, "predicted")
    except CheckFailed as exc:
        NOTES.append(f"fit_fringe low-count bias (known defect, not counted): {exc}")
    _check_manifest(out, "mc-fringe", cfg.seed)


# ----------------------------------------------------------------------
# analysis commands
# ----------------------------------------------------------------------

def sweep_rows(cfg: ExperimentConfig, sweep: str, start: float, stop: float, steps: int):
    """The sweep the README documents, recomputed from the public API."""
    src = cfg.source
    alpha_sym = math.sqrt(effective_alpha(cfg.signal) * effective_alpha(cfg.idler))
    d_s = dark_per_slot(cfg.signal, src.rep_rate_ghz)
    d_i = dark_per_slot(cfg.idler, src.rep_rate_ghz)
    a_s = effective_alpha(cfg.signal, include_interferometer=True)
    a_i = effective_alpha(cfg.idler, include_interferometer=True)
    rows = []
    for value in np.linspace(start, stop, steps):
        value = float(value)
        if sweep == "mu":
            source, mu = src, value
        elif sweep == "dfdt":
            mu = PairStatistics.from_power(src.peak_power_w, src).mu_total
            source = replace(src, bandwidth_ghz=value / src.pulse_width_ns)
        else:
            raise ValueError(f"unsupported sweep {sweep!r}")
        stats = PairStatistics.from_power(pump_power_for_mu(mu, source), source)
        rows.append(
            [
                value,
                stats.mu_pairs,
                0.5 * (stats.mu_noise_signal + stats.mu_noise_idler),
                car_closed_form(mu, source, alpha_sym, 0.5 * (d_s + d_i)),
                predicted_visibility(stats, a_s, a_i, d_s, d_i, cfg.coherence_slots),
            ]
        )
    return rows


def check_sweep(
    out: Path, exit_code: int, cfg: ExperimentConfig, sweep: str, start: float, stop: float, steps: int
) -> None:
    """sweep.csv equals the closed forms recomputed here."""
    _require(exit_code == 0, f"exit code {exit_code}")
    header, rows = _read_csv(out / "sweep.csv")
    _require(
        header == [sweep, "mu_pairs", "mu_noise", "car", "predicted_visibility"],
        f"sweep.csv header {header}",
    )
    expected = sweep_rows(cfg, sweep, start, stop, steps)
    _require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    for i, (got, want) in enumerate(zip(rows, expected)):
        for name, g, w in zip(header, got, want):
            _require(_close(g, w), f"row {i} {name}: {g!r} != {w!r}")
    _check_manifest(out, "analytic", cfg.seed)


def _within(name: str, got: float, var: float, truth: float, what: str = "generated with") -> None:
    sigma = math.sqrt(max(var, 0.0))
    _require(
        abs(got - truth) <= SIGMAS * sigma,
        f"{name} {got:.6g} +- {sigma:.2g}, {what} {truth:.6g}",
    )


def check_fit_scaling(
    out: Path, exit_code: int, seed: int, data: Path, cfg: ExperimentConfig,
    expected: dict[str, tuple[float, float]],
) -> None:
    """Scaling fit: the fit of the data, within 4 sigma of the truth.

    `expected` maps each coefficient to its generating value and the true
    standard error of its slope. The reported variance, a residual estimate
    with few degrees of freedom, is checked against a refit of the data
    instead, as its Student-t tails would fail a 4-sigma test far more often.
    """
    _require(exit_code == 0, f"exit code {exit_code}")
    fit = _read_json(out / "fit.json")
    header, rows = _read_csv(data)
    columns = dict(zip(header, np.array(rows).T))
    refit = fit_scaling(
        columns["power_w"], columns["mu_pairs"], columns["mu_noise_signal"], columns["mu_noise_idler"],
        cfg.source.bandwidth_time_product,
    )
    for name, (truth, sigma) in expected.items():
        for key in (name + "_hat", name + "_var"):
            got, want = _number(fit, key), getattr(refit, key)
            _require(_close(got, want), f"{key} {got!r} != refit of {data.name} {want!r}")
        _within(name, fit[name + "_hat"], sigma**2, truth)
    _check_manifest(out, "fit", seed)


def check_fit_fringe(out: Path, exit_code: int, seed: int, visibility: float) -> None:
    """Fringe fit recovers the generating visibility within 4 sigma."""
    _require(exit_code == 0, f"exit code {exit_code}")
    fit = _read_json(out / "fit.json")
    _within("visibility", _number(fit, "visibility"), _number(fit, "visibility_error") ** 2, visibility)
    _check_manifest(out, "fit", seed)
