"""Benchmark of the `timebinsim` command line, end to end and per layer.

    python3 perfbench/run.py --workload car-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every command runs as users run it: a fresh `python -m timebinsim.cli`
process, one client in a closed loop, the next command issued only after
the previous one exits. Inputs are generated from --seed (see
workloads.py) and every command's output is checked against the closed
forms (see checks.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs every command cycle twice, untraced and through traced.py, in an order
that alternates cycle by cycle, then probes --workers 1 against 2, and
reports the per-layer metrics. Human-readable lines go first; the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 5
MIB = 1024 * 1024
LAYERS = (
    "import",
    "cli",
    "params",
    "analytic",
    "fitting",
    "quantum",
    "montecarlo.sampler",
    "montecarlo.histogram",
    "montecarlo.estimate",
)


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mib: float
    work: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], cwd: Path) -> tuple[Sample, int, str]:
    """Run one process to completion: its sample, exit code and stderr."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = perf()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        # wait4 gives the child's rusage including its reaped pool workers.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, 0)
    return sample, proc.returncode, stderr


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cycles(seconds: float):
    """Yield 0, 1, ... while the loop body is expected to end near `seconds`.

    A further cycle starts only if, at the median cycle length so far, it
    would end less than half a cycle past the deadline. Runs then last
    about `seconds` on average instead of overrunning by up to a cycle.
    """
    start, lengths = perf(), []
    while not lengths or perf() - start + statistics.median(lengths) / 2 < seconds:
        began = perf()
        yield len(lengths)
        lengths.append(perf() - began)


class Runner:
    def __init__(self, workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.notes = 0

    def execute(self, command, traced: bool) -> tuple[Sample, dict | None]:
        """Run and check one command; the sample, and its spans if traced."""
        import checks

        self.attempted += 1
        out = self.work / f"out{self.attempted}"
        argv = [*command.argv, "--out-dir", str(out)]
        spans_path = self.work / f"spans{self.attempted}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), "cli", *argv]
        else:
            argv = [sys.executable, "-m", "timebinsim.cli", *argv]
        sample, code, stderr = run_process(argv, self.work)
        sample.work = command.work
        reason = checks.run_check(command.check, out, code)
        for note in checks.NOTES:
            print(f"NOTE {self.workload.name}: {command.argv[0]}: {note}", file=sys.stderr)
        self.notes += len(checks.NOTES)
        checks.NOTES.clear()
        spans = None
        if traced:
            if spans_path.is_file():
                spans = json.loads(spans_path.read_text())
                spans["bytes_written"] = dir_bytes(out)
                spans_path.unlink()
            elif reason is None:
                reason = "traced run wrote no spans"
        if reason is not None:
            tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            self.failures.append(f"{command.argv[0]}: {reason} {tail}")
            print(f"FAILED {self.workload.name}: {self.failures[-1]}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return sample, spans

    def loop(self, seeds, seconds: float) -> tuple[list[Sample], list[float]]:
        """Closed loop over whole untraced command cycles for about `seconds`.

        One `timebinsim --version` is timed after every cycle, so set-up
        samples spread over the run like the commands do.
        """
        samples, setup = [], []
        for _ in cycles(seconds):
            for command in self.workload.cycle(next(seeds)):
                samples.append(self.execute(command, traced=False)[0])
            setup.append(self.version())
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(self.version())
        return samples, setup

    def paired(self, seeds, seconds: float) -> list[tuple[list, list]]:
        """Closed loop of (untraced, traced) runs of the same cycle.

        Which of the two goes first alternates pair by pair, so a drift in
        the machine's throughput falls on both sides alike.
        """
        pairs = []
        for i in cycles(seconds):
            commands = self.workload.cycle(next(seeds))
            order = (False, True) if i % 2 == 0 else (True, False)
            runs = {traced: [self.execute(c, traced) for c in commands] for traced in order}
            pairs.append((runs[False], runs[True]))
        return pairs

    def version(self) -> float:
        """Wall seconds of `timebinsim --version`."""
        sample, code, stderr = run_process([sys.executable, "-m", "timebinsim.cli", "--version"], self.work)
        if code != 0:
            raise SystemExit(f"timebinsim --version failed: {stderr.strip()}")
        return sample.wall

    def probe(self) -> float:
        """Sampler wall at --workers 1 over --workers 2 (traced.py probe)."""
        from timebinsim import config_to_dict
        import workloads

        config = self.work / "probe.json"
        config.write_text(json.dumps(config_to_dict(self.workload.probe_config)))
        spans_path = self.work / "probe_spans.json"
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), "probe", str(config),
                str(workloads.PROBE_PULSES)]
        _, code, stderr = run_process(argv, self.work)
        if code != 0:
            raise SystemExit(f"dispatch probe failed: {stderr.strip()}")
        walls = defaultdict(list)
        for workers, wall in json.loads(spans_path.read_text())["probe"]:
            walls[workers].append(wall)
        return statistics.median(walls[1]) / statistics.median(walls[2])


def end_to_end(samples: list[Sample], setup: list[float]) -> dict:
    """Metric name -> (value, unit, sample count)."""
    n = len(samples)
    return {
        "cmd_s": (statistics.median(s.wall for s in samples), "s", n),
        "work_per_s": (sum(s.work for s in samples) / sum(s.wall for s in samples), "1/s", n),
        "cpu_s": (statistics.median(s.cpu for s in samples), "s", n),
        "peak_rss_mb": (statistics.median(s.rss_mib for s in samples), "MiB", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    children = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (layer, _, start, end, _, _), child in zip(spans, children):
        out[layer] += end - start - child
    return out


def trace_overhead(pairs: list[tuple[list, list]]) -> float:
    """Median over cycle pairs of traced over untraced cycle wall, minus 1."""

    def wall(runs) -> float:
        return sum(sample.wall for sample, _ in runs)

    return statistics.median(wall(traced) / wall(untraced) for untraced, traced in pairs) - 1.0


def per_layer(traced: list[tuple[Sample, dict]], overhead: tuple[float, int], speedup: float) -> dict:
    """Per-layer metrics, per command (means over the traced commands).

    `overhead` is trace_overhead() and its number of cycle pairs.

    Metric name -> (value, unit, sample count).
    """
    n = len(traced)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    peak: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    bytes_written = 0
    for _, record in traced:
        spans = record["spans"]
        for layer, seconds in self_times(spans).items():
            self_s[layer] += seconds
        for layer, name, _, _, _, counts in spans:
            calls[layer] += 1
            if "peak_alloc_b" in counts:
                peak[layer] = max(peak[layer], counts["peak_alloc_b"])
            if layer == "montecarlo.sampler" and "pulses" in counts:
                for key in ("pulses", "events", "bytes"):
                    count[key] += counts[key]
                count["slot_channels"] += counts["pulses"] * counts["channels"]
            if "slots" in counts:
                count["slots"] += counts["slots"]
        bytes_written += record["bytes_written"]

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    metrics = {f"{layer}.self_s": (self_s[layer] / n, "s") for layer in LAYERS}
    metrics.update(
        {
            "cli.bytes_written": (bytes_written / n, "B"),
            "params.calls": (calls["params"] / n, "count"),
            "analytic.calls": (calls["analytic"] / n, "count"),
            "fitting.calls": (calls["fitting"] / n, "count"),
            "quantum.calls": (calls["quantum"] / n, "count"),
            "quantum.peak_alloc_mb": (peak["quantum"] / MIB, "MiB"),
            "montecarlo.sampler.pulses_per_s": (rate(count["pulses"], self_s["montecarlo.sampler"]), "1/s"),
            "montecarlo.sampler.peak_alloc_mb": (peak["montecarlo.sampler"] / MIB, "MiB"),
            "montecarlo.sampler.events_per_pulse": (rate(count["events"], count["slot_channels"]), "1"),
            "montecarlo.sampler.bytes_returned": (count["bytes"] / n, "B"),
            "montecarlo.histogram.slots_per_s": (rate(count["slots"], self_s["montecarlo.histogram"]), "1/s"),
            "montecarlo.dispatch.speedup_2w": (speedup, "x"),
            "trace.overhead_frac": (overhead[0], "1"),
        }
    )
    counts = {"montecarlo.dispatch.speedup_2w": 4, "trace.overhead_frac": overhead[1]}
    return {k: (v, unit, counts.get(k, n)) for k, (v, unit) in metrics.items()}


def machine(workload) -> dict:
    """Machine, versions and commit recorded with every result."""
    import numpy
    import timebinsim
    import workloads

    def first(path: str, prefix: str = "") -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": workloads.nproc(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "l3_cache": first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timebinsim": timebinsim.__version__,
        "commit": commit,
        "workers": workload.workers,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> tuple[dict, Runner]:
    import workloads

    work = scratch / name
    work.mkdir()
    workload = workloads.WORKLOADS[name](work, seed)
    runner = Runner(workload, work)
    print(f"{name}: machine {json.dumps(machine(workload), sort_keys=True)}")
    runner.version()  # warm-up: byte-compiles the package on a fresh checkout
    seeds = workloads.round_seeds(name, seed)
    if trace:
        pairs = runner.paired(seeds, seconds)
        traced = [t for _, runs in pairs for t in runs if t[1] is not None]
        metrics = per_layer(traced, (trace_overhead(pairs), len(pairs)), runner.probe())
    else:
        metrics = end_to_end(*runner.loop(seeds, seconds))
    print(
        f"{name}: {runner.attempted} commands, {len(runner.failures)} failed output checks, "
        f"{runner.notes} known-defect notes"
    )
    for metric, (value, unit, n) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit} (n={n})")
    return metrics, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "timebinsim" / "cli.py").is_file():
        print(f"error: no timebinsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0 or args.seed < 0:
        parser.error(f"unknown workload {unknown}" if unknown else "--seconds > 0 and --seed >= 0")

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base))
    metrics: dict = {}
    attempted, failed = 0, 0
    try:
        for name in names:
            result, runner = run_workload(name, args.seed, args.seconds, bool(args.trace), scratch)
            prefix = "" if len(names) == 1 else f"{name}/"
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in result.items()})
            attempted += runner.attempted
            failed += len(runner.failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
