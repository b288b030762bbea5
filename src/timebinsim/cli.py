"""Command-line front end.

Four subcommands: `analytic` (closed-form sweeps), `mc-car` (histogram run
plus coincidence-ratio estimate), `mc-fringe` (phase sweep plus visibility
fit), `fit` (re-fit a CSV produced here or elsewhere). A command computes
every output first and only then writes --out-dir, in _write, so a command
that fails creates nothing. The outputs come with a manifest recording the
semantic invocation: config hash, seed, and the flags that affect the
numbers. Location (--out-dir) and execution detail (--workers) are left out
of the manifest so a re-run reproduces every file byte for byte. The
`error` JSON of a starved mc-car or a failed fringe fit is written but not
listed in the manifest.

CSV files carry a header row and LF line endings; JSON outputs are single
objects with sorted keys.

`run`, the console script and `python -m` entry, ends the process without
interpreter teardown once `main` has closed every output; `main(argv)` is
the in-process entry.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import __version__
from .analytic import (
    SWEEPS,
    PairStatistics,
    PhasePair,
    car_closed_form,
    predicted_visibility,
    sweep_config,
)
from .fitting import fit_fringe, fit_scaling
from .montecarlo import (
    InsufficientStatisticsError,
    estimate_car,
    simulate_car_run,
    simulate_fringe_sweep,
)
from .params import (
    ExperimentConfig,
    arm_detection,
    config_from_dict,
    config_to_dict,
    default_config,
    require_valid,
)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str | None) -> ExperimentConfig:
    """Config from a JSON file, or the built-in baseline when omitted."""
    if path is None:
        return default_config()
    with open(path, encoding="utf-8-sig") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    return config_from_dict(data)


def _csv(header: list[str], rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(
    out_dir: str,
    command: str,
    arguments: dict,
    cfg: ExperimentConfig,
    files: dict[str, str],
    reports: dict[str, str] | None = None,
) -> None:
    """Create out_dir and write each file's text, then manifest.json.

    files are the outputs the manifest lists; reports, the error JSON
    written in place of an output, follow them unlisted. Every command
    calls this once, as its last step.
    """
    manifest = {
        "tool_version": __version__,
        "command": command,
        "arguments": arguments,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "outputs": list(files),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, text in {**files, **(reports or {}), "manifest.json": _json(manifest)}.items():
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


# Most points --steps may ask for, in analytic and mc-fringe alike: far
# above any documented sweep, far below a list that fills memory.
MAX_STEPS = 2**16


def _check_steps(steps: int, least: int, purpose: str = "") -> None:
    """Refuse --steps outside [least, MAX_STEPS], before any list is built."""
    if steps < least:
        raise ValueError(f"--steps must be >= {least}{purpose}")
    if steps > MAX_STEPS:
        raise ValueError(f"--steps must be <= {MAX_STEPS}, got {steps}")


def _finite_float(token: str | None) -> float:
    """A real flag or CSV cell; argparse names the flag when this raises."""
    try:
        value = float(token)
    except (TypeError, ValueError):  # TypeError: a CSV row shorter than its header
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {token!r}")
    return value


def _parse_phase(token: str) -> float:
    if token.strip() == "pi/2":
        return math.pi / 2.0
    return _finite_float(token)


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    """numpy.linspace(start, stop, steps), float for float: start + k*step,
    the last value set to stop."""
    if steps == 1:
        return [start]
    div = steps - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # numpy's path for a delta too small to divide
        values = [k / div * delta + start for k in range(steps)]
    else:
        values = [k * step + start for k in range(steps)]
    values[-1] = stop
    return values


def _prepare(ns) -> ExperimentConfig:
    cfg = load_config(ns.config)
    if getattr(ns, "seed", None) is not None:
        cfg = replace(cfg, seed=ns.seed)
    if getattr(ns, "pulses", None) is not None:
        cfg = replace(cfg, num_pulses=ns.pulses)
    require_valid(cfg)
    return cfg


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_analytic(ns) -> int:
    """Closed-form sweep: means, and the unsaturated limits of the coincidence
    ratio and the visibility. car_closed_form takes one arm, the geometric-mean
    alpha and the mean dark probability of the two without interferometer
    excess loss; predicted_visibility takes both arms with it."""
    cfg = _prepare(ns)
    _check_steps(ns.steps, 1)
    if ns.start <= 0 or ns.stop <= 0:
        raise ValueError("sweep range must be positive")
    values = _linspace(ns.start, ns.stop, ns.steps)

    alpha_s, alpha_i, dark_s, dark_i = arm_detection(cfg, include_interferometer=False)
    alpha_sym, dark_mean = math.sqrt(alpha_s * alpha_i), 0.5 * (dark_s + dark_i)
    detection = arm_detection(cfg, include_interferometer=True)

    header = [ns.sweep, "mu_pairs", "mu_noise", "car", "predicted_visibility"]
    rows = []
    for value in values:
        point, mu = sweep_config(cfg, ns.sweep, value)
        stats = PairStatistics.from_power(point.source.peak_power_w, point.source)
        car = car_closed_form(mu, point.source, alpha_sym, dark_mean)
        vis = predicted_visibility(stats, *detection, cfg.coherence_slots)
        mu_noise = 0.5 * (stats.mu_noise_signal + stats.mu_noise_idler)
        row = [value, stats.mu_pairs, mu_noise, car, vis]
        for name, cell in zip(header, row):
            if not math.isfinite(cell):
                raise ValueError(
                    f"--sweep {ns.sweep} value {value!r} from --start/--stop gives {name} = {cell}"
                )
        rows.append(row)

    _write(
        ns.out_dir,
        "analytic",
        {"sweep": ns.sweep, "start": ns.start, "stop": ns.stop, "steps": ns.steps},
        cfg,
        {"sweep.csv": _csv(header, rows)},
    )
    return 0


def cmd_mc_car(ns) -> int:
    """Histogram run at the config's operating point, with the estimate."""
    cfg = _prepare(ns)
    hist = simulate_car_run(cfg, workers=ns.workers)
    rows = [[delay, hist.counts[delay]] for delay in sorted(hist.counts)]
    files = {"histogram.csv": _csv(["delay", "counts"], rows)}
    reports = {}
    try:
        est = estimate_car(hist)
        files["car.json"] = _json(
            {
                "car": est.car,
                "stderr": est.stderr,
                "delay_zero_counts": hist.counts[0],
                "accidental_total": hist.accidental_total,
                "num_pulses": hist.num_pulses,
            }
        )
    except InsufficientStatisticsError as exc:
        reports["car.json"] = _json({"error": str(exc)})
    _write(ns.out_dir, "mc-car", {"pulses": cfg.num_pulses}, cfg, files, reports)
    return 1 if reports else 0


def cmd_mc_fringe(ns) -> int:
    """Phase sweep of delay-0 coincidences, then the visibility fit."""
    _check_steps(ns.steps, 4, " for a fringe sweep")
    cfg = replace(_prepare(ns), interferometers_present=True)
    phi_s = [2.0 * math.pi * k / ns.steps for k in range(ns.steps)]
    phases = [PhasePair(phi, ns.phi_i) for phi in phi_s]
    counts = simulate_fringe_sweep(cfg, phases, workers=ns.workers)
    files = {"fringe.csv": _csv(["phi_s", "coincidences"], zip(phi_s, counts))}
    reports = {}
    try:
        files["fringe_fit.json"] = _json(asdict(fit_fringe(phi_s, counts)))
    except ValueError as exc:
        reports["fringe_fit.json"] = _json({"error": str(exc)})
    arguments = {"pulses": cfg.num_pulses, "steps": ns.steps, "phi_i": ns.phi_i}
    _write(ns.out_dir, "mc-fringe", arguments, cfg, files, reports)
    return 1 if reports else 0


def _read_csv_columns(path: str, required: list[str]) -> dict[str, list[float]]:
    """The required columns as float lists; every cell must be finite."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            missing = [c for c in required if c not in fields]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}; found {fields}")
            columns: dict[str, list[float]] = {c: [] for c in required}
            for row in reader:
                for c in required:
                    try:
                        columns[c].append(_finite_float(row[c]))
                    except argparse.ArgumentTypeError as exc:
                        raise ValueError(
                            f"{path}: row {reader.line_num}, column {c}: {exc}"
                        ) from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not columns[required[0]]:
        raise ValueError(f"{path}: no data rows")
    return columns


def cmd_fit(ns) -> int:
    """Re-fit a data CSV: fringe visibility or power-scaling coefficients."""
    cfg = _prepare(ns)
    if ns.model == "fringe":
        data = _read_csv_columns(ns.data, ["phi_s", "coincidences"])
        fit = fit_fringe(data["phi_s"], data["coincidences"])
    else:
        data = _read_csv_columns(
            ns.data, ["power_w", "mu_pairs", "mu_noise_signal", "mu_noise_idler"]
        )
        fit = fit_scaling(
            data["power_w"],
            data["mu_pairs"],
            data["mu_noise_signal"],
            data["mu_noise_idler"],
            cfg.source.bandwidth_time_product,
        )
    arguments = {"model": ns.model, "data": os.path.basename(ns.data)}
    _write(ns.out_dir, "fit", arguments, cfg, {"fit.json": _json(asdict(fit))})
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebinsim",
        description="Simulate and analyze a time-bin entangled photon-pair source.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, pulses: bool = False) -> None:
        p.add_argument("--config", help="JSON config file (default: built-in baseline)")
        p.add_argument("--out-dir", required=True, help="directory for run outputs")
        p.add_argument("--seed", type=int, help="override the config seed")
        if pulses:
            p.add_argument("--pulses", type=int, help="override the pulse count")
            p.add_argument("--workers", type=int, default=1, help="parallel block workers")

    p_an = sub.add_parser("analytic", help="closed-form sweep to CSV")
    common(p_an)
    p_an.add_argument("--sweep", choices=SWEEPS, required=True)
    p_an.add_argument("--start", type=_finite_float, required=True)
    p_an.add_argument("--stop", type=_finite_float, required=True)
    p_an.add_argument("--steps", type=int, required=True)
    p_an.set_defaults(func=cmd_analytic)

    p_car = sub.add_parser("mc-car", help="histogram run and coincidence ratio")
    common(p_car, pulses=True)
    p_car.set_defaults(func=cmd_mc_car)

    p_fr = sub.add_parser("mc-fringe", help="phase sweep and visibility fit")
    common(p_fr, pulses=True)
    p_fr.add_argument(
        "--phi-i",
        type=_parse_phase,
        default=0.0,
        help="idler interferometer phase: finite float or 'pi/2'",
    )
    p_fr.add_argument("--steps", type=int, default=16, help="signal phase points")
    p_fr.set_defaults(func=cmd_mc_fringe)

    p_fit = sub.add_parser("fit", help="fit an existing data CSV")
    common(p_fit)
    p_fit.add_argument("--model", choices=["scaling", "fringe"], required=True)
    p_fit.add_argument("--data", required=True, help="input CSV")
    p_fit.set_defaults(func=cmd_fit)
    return parser


# numpy's BLAS thread-count variables (OpenBLAS, OpenMP and MKL builds).
# Nothing here calls BLAS, so a command keeps numpy from starting an idle
# thread pool unless the user has set them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _observed() -> bool:
    """Whether a profiler, tracer or sys.monitoring tool (3.12+) is attached,
    one that reports only on the interpreter's normal exit."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def run() -> None:
    """main() on sys.argv, then end the process with its exit code.

    By the time main returns, _write has closed every output and
    montecarlo._sweep_counts has joined its pool, so the only state left is
    the two standard streams: they are flushed and the process ends with
    os._exit, skipping the teardown of every loaded module (numpy's
    included). A profiler or tracer, or a flush that fails, gets the
    normal exit instead.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --version, --help, a usage error
        code = exc.code
    if _observed():
        raise SystemExit(code)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start-up
                stream.flush()
    except (OSError, ValueError):  # the normal exit flushes again and reports it
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
