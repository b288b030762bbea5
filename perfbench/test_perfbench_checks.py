"""Each output check accepts real CLI output and rejects a corrupted copy.

Outputs come from `timebinsim.cli.main` run in-process on the benchmark's
own generated inputs, shrunk where a workload's full size would be slow.
"""

import csv
import json
import math
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from timebinsim import config_to_dict, default_config, fit_fringe, fit_scaling
from timebinsim.cli import main

import checks
import run
import workloads


def rewrite_json(path: Path, **changes) -> None:
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def rewrite_csv(path: Path, row: int, column: int, value=None, scale: float = 1.0) -> None:
    """Set (or scale) one data cell; row 0 is the first row after the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cell = rows[row + 1][column]
    rows[row + 1][column] = repr(float(cell) * scale) if value is None else str(value)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def run_cli(argv, out: Path) -> int:
    return main([*argv, "--out-dir", str(out)])


def mc_car(tmp_path: Path, cfg, pulses: int, seed: int) -> tuple[Path, int, object]:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "out"
    code = run_cli(["mc-car", "--config", str(config), "--pulses", str(pulses), "--seed", str(seed)], out)
    return out, code, replace(cfg, num_pulses=pulses, seed=seed)


class TestCarPaper:
    @pytest.fixture
    def result(self, tmp_path):
        return mc_car(tmp_path, default_config(), 1_000_000, 11)

    def test_insufficient_statistics_exit_is_correct(self, result):
        out, code, cfg = result
        assert code == 1
        assert checks.run_check(checks.check_car_paper, out, code, cfg) is None

    def test_rejects_other_exit_codes(self, result):
        out, _, cfg = result
        assert checks.run_check(checks.check_car_paper, out, 0, cfg) is not None
        assert checks.run_check(checks.check_car_paper, out, 2, cfg) is not None

    def test_rejects_another_error(self, result):
        out, code, cfg = result
        rewrite_json(out / "car.json", error="no histogram")
        assert "insufficient" in checks.run_check(checks.check_car_paper, out, code, cfg)

    def test_rejects_a_bin_off_its_closed_form(self, result):
        out, code, cfg = result
        rewrite_csv(out / "histogram.csv", 3, 1, 5)
        assert "delay 0" in checks.run_check(checks.check_car_paper, out, code, cfg)

    def test_accepts_an_estimate_consistent_with_the_bins(self, result):
        out, _, cfg = result
        rewrite_csv(out / "histogram.csv", 3, 1, 1)
        rewrite_csv(out / "histogram.csv", 0, 1, 1)
        (out / "car.json").write_text(json.dumps({
            "car": 6.0, "stderr": 6.0 * math.sqrt(2.0), "delay_zero_counts": 1,
            "accidental_total": 1, "num_pulses": cfg.num_pulses,
        }))
        assert checks.run_check(checks.check_car_paper, out, 0, cfg) is None
        rewrite_json(out / "car.json", car=7.0)
        assert "car 7.0" in checks.run_check(checks.check_car_paper, out, 0, cfg)


class TestCarDense:
    @pytest.fixture
    def result(self, tmp_path):
        return mc_car(tmp_path, workloads.lossless_proxy(workloads.CAR_DENSE_MU), 1_000_000, 12)

    def test_accepts_the_run(self, result):
        out, code, cfg = result
        assert code == 0
        assert checks.run_check(checks.check_car_dense, out, code, cfg) is None

    def test_rejects_a_nonzero_exit(self, result):
        out, _, cfg = result
        assert checks.run_check(checks.check_car_dense, out, 1, cfg) is not None

    def test_rejects_an_estimate_off_the_bins(self, result):
        out, code, cfg = result
        car = json.loads((out / "car.json").read_text())
        rewrite_json(out / "car.json", car=car["car"] * 1.01)
        assert checks.run_check(checks.check_car_dense, out, code, cfg).startswith("car ")

    def test_rejects_a_ratio_off_the_expectation(self, result):
        # Every bin 3 sigma off its expectation, which the Poisson bounds
        # accept, but the ratio moved beyond 4 standard errors: the delay-0
        # bin up, every accidental bin down. The estimate is rewritten to
        # match the bins.
        out, code, cfg = result
        p_zero, p_acc = checks.bin_probabilities(cfg)
        n = cfg.num_pulses
        for row, delay in enumerate(range(-3, 4)):
            lam = n * p_zero if delay == 0 else (n - abs(delay)) * p_acc
            sigmas = 3 if delay == 0 else -3
            rewrite_csv(out / "histogram.csv", row, 1, round(lam + sigmas * math.sqrt(lam)))
        assert checks.run_check(checks._check_histogram, out, cfg) is None
        with open(out / "histogram.csv", newline="") as fh:
            bins = {int(r["delay"]): int(r["counts"]) for r in csv.DictReader(fh)}
        zero, acc = bins[0], sum(bins.values()) - bins[0]
        car = zero / (acc / 6)
        rewrite_json(
            out / "car.json", delay_zero_counts=zero, accidental_total=acc, car=car,
            stderr=car * math.sqrt(1 / zero + 1 / acc),
        )
        reason = checks.run_check(checks.check_car_dense, out, code, cfg)
        assert reason.startswith("car ") and "expected" in reason

    def test_threshold_ratio_sits_below_the_closed_form(self):
        # The closed form is the unsaturated limit: 7.368 against 7.307.
        cfg = workloads.lossless_proxy(workloads.CAR_DENSE_MU)
        assert checks.expected_threshold_car(cfg) == pytest.approx(7.307, abs=1e-3)


class TestFringe:
    @pytest.fixture
    def result(self, tmp_path):
        cfg = replace(workloads.lossless_proxy(workloads.OPERATING_MU), coherence_slots=20)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_to_dict(cfg)))
        out = tmp_path / "out"
        code = run_cli(
            ["mc-fringe", "--config", str(config), "--pulses", "400000", "--steps", "16",
             "--phi-i", "pi/2", "--seed", "13"],
            out,
        )
        return out, code, replace(cfg, num_pulses=400_000, seed=13)

    def test_accepts_the_run(self, result):
        out, code, cfg = result
        assert code == 0
        assert checks.run_check(checks.check_fringe, out, code, cfg, 16) is None

    @pytest.mark.parametrize("key", ["visibility", "visibility_error", "mean_level"])
    def test_rejects_a_fit_that_does_not_match_the_csv(self, result, key):
        out, code, cfg = result
        fit = json.loads((out / "fringe_fit.json").read_text())
        rewrite_json(out / "fringe_fit.json", **{key: fit[key] * 0.99})
        assert "fit of fringe.csv" in checks.run_check(checks.check_fringe, out, code, cfg, 16)

    @staticmethod
    def write_fringe(out: Path, counts) -> None:
        """Replace the run's fringe by `counts`, with the fit the CLI would write."""
        phases = 2.0 * np.pi * np.arange(len(counts)) / len(counts)
        for row, count in enumerate(counts):
            rewrite_csv(out / "fringe.csv", row, 1, int(count))
        (out / "fringe_fit.json").write_text(json.dumps(asdict(fit_fringe(phases, counts))))

    def test_rejects_a_flat_fringe(self, result):
        out, code, cfg = result
        self.write_fringe(out, [400 + (row % 2) for row in range(16)])
        assert "likelihood ratio" in checks.run_check(checks.check_fringe, out, code, cfg, 16)

    def test_a_biased_low_count_fit_is_a_note_not_a_failure(self, result):
        out, code, cfg = result
        predicted = checks.fringe_prediction(cfg)
        phases = 2.0 * np.pi * np.arange(16) / 16
        counts = np.random.default_rng(283).poisson(17.0 * (1.0 + predicted * np.cos(phases + 1.0)))
        fit = fit_fringe(phases, counts)
        assert (fit.visibility - predicted) / fit.visibility_error > 4.0
        assert checks.fringe_likelihood_ratio(phases, counts, predicted) < 4.0
        self.write_fringe(out, counts.tolist())
        checks.NOTES.clear()
        assert checks.run_check(checks.check_fringe, out, code, cfg, 16) is None
        assert len(checks.NOTES) == 1 and "known defect" in checks.NOTES.pop()

    def test_likelihood_ratio_is_chi_squared_at_low_counts(self):
        # ~17 counts per point, as fringe-long gives: P(chi2_1 > 4) = 0.0455.
        rng = np.random.default_rng(5)
        phases = 2.0 * np.pi * np.arange(16) / 16
        means = 17.0 * (1.0 + 0.774 * np.cos(phases + 0.3))
        stats = [checks.fringe_likelihood_ratio(phases, rng.poisson(means), 0.774) for _ in range(1000)]
        assert 0.025 < np.mean(np.array(stats) > 4.0) < 0.07

    def test_rejects_missing_phase_points(self, result):
        out, code, cfg = result
        assert "phase points" in checks.run_check(checks.check_fringe, out, code, cfg, 17)


class TestAnalysis:
    @pytest.fixture
    def commands(self, tmp_path):
        workload = workloads.analysis(tmp_path, 14)
        return [(cmd, tmp_path / f"out{i}") for i, cmd in enumerate(workload.cycle(99))]

    def test_accepts_every_command(self, commands):
        for cmd, out in commands:
            code = run_cli(cmd.argv, out)
            assert checks.run_check(cmd.check, out, code) is None, cmd.argv

    def test_rejects_a_perturbed_sweep_cell(self, commands):
        for cmd, out in commands[:2]:
            code = run_cli(cmd.argv, out)
            rewrite_csv(out / "sweep.csv", 4, 3, scale=1 + 1e-6)
            assert "row 4 car" in checks.run_check(cmd.check, out, code)

    def test_rejects_a_fit_off_its_coefficients(self, commands):
        (scaling, out_s), (fringe, out_f) = commands[2:]
        # A pair series 5% above the generating coefficient: the fit follows
        # the data, so only the comparison with the truth can catch it.
        data = scaling.check.keywords["data"]
        for row in range(workloads.SCALING_ROWS):
            rewrite_csv(data, row, 1, scale=1.05)
        code = run_cli(scaling.argv, out_s)
        assert "generated with" in checks.run_check(scaling.check, out_s, code)

        code = run_cli(fringe.argv, out_f)
        fit = json.loads((out_f / "fit.json").read_text())
        truth = fringe.check.keywords["visibility"]
        rewrite_json(out_f / "fit.json", visibility=truth - 5 * fit["visibility_error"])
        assert "visibility" in checks.run_check(fringe.check, out_f, code)

    def test_rejects_a_variance_off_the_refit(self, commands):
        scaling, out = commands[2]
        code = run_cli(scaling.argv, out)
        fit = json.loads((out / "fit.json").read_text())
        rewrite_json(out / "fit.json", noise_coeff_idler_var=fit["noise_coeff_idler_var"] * 100)
        assert "noise_coeff_idler_var" in checks.run_check(scaling.check, out, code)

    def test_scaling_sigmas_are_the_slope_standard_errors(self, tmp_path):
        # Over many seeds the generated slopes scatter by the sigma the check uses.
        z = []
        for seed in range(200):
            (tmp_path / str(seed)).mkdir()
            workload = workloads.analysis(tmp_path / str(seed), seed)
            check = workload.cycle(0)[2].check.keywords
            columns = np.loadtxt(check["data"], delimiter=",", skiprows=1).T
            fit = fit_scaling(*columns, check["cfg"].source.bandwidth_time_product)
            truth, sigma = check["expected"]["pair_coeff"]
            z.append((fit.pair_coeff_hat - truth) / sigma)
        assert abs(np.mean(z)) < 0.3 and 0.8 < np.std(z) < 1.2

    def test_rejects_a_wrong_manifest_seed(self, commands):
        cmd, out = commands[0]
        code = run_cli(cmd.argv, out)
        rewrite_json(out / "manifest.json", seed=1)
        assert "manifest seed" in checks.run_check(cmd.check, out, code)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        workloads.analysis(tmp_path / name, seed)
    read = lambda name: (tmp_path / name / "scaling.csv").read_text()  # noqa: E731
    assert read("a") == read("b") != read("c")
    first = workloads.round_seeds("analysis", 5)
    again = workloads.round_seeds("analysis", 5)
    assert [next(first) for _ in range(3)] == [next(again) for _ in range(3)]


def test_traced_command_attributes_time_to_layers(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "traced.py"), str(spans_path), "cli", "analytic",
         "--out-dir", str(tmp_path / "out"), "--sweep", "mu", "--start", "1e-3", "--stop", "1e-2",
         "--steps", "3"],
        env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    self_s = run.self_times(spans)
    assert {"import", "cli", "params", "analytic"} <= set(self_s)
    top = [s for s in spans if s[4] == -1 and s[0] != "import"]
    assert [s[1] for s in top] == ["main"]
    total = sum(v for k, v in self_s.items() if k != "import")
    assert total == pytest.approx(top[0][3] - top[0][2], rel=1e-9)


def test_self_time_subtracts_children():
    spans = [
        ["cli", "main", 0.0, 10.0, -1, {}],
        ["montecarlo.sampler", "simulate_fringe_run", 1.0, 9.0, 0, {}],
        ["quantum", "apply_mzi", 2.0, 5.0, 1, {}],
        ["quantum", "apply_mzi", 5.0, 6.0, 1, {}],
    ]
    assert dict(run.self_times(spans)) == {"cli": 2.0, "montecarlo.sampler": 4.0, "quantum": 4.0}


def test_work_rate_is_total_work_over_total_wall():
    samples = [run.Sample(1.0, 1.0, 1.0, 25), run.Sample(3.0, 1.0, 1.0, 75)]
    assert run.end_to_end(samples, [0.1])["work_per_s"][0] == pytest.approx(25.0)


def test_trace_overhead_pairs_cycles():
    # Throughput halves between the two pairs; the 10% overhead is still seen.
    def runs(*walls):
        return [(run.Sample(w, 0.0, 0.0, 1), None) for w in walls]

    pairs = [(runs(1.0, 1.0), runs(1.1, 1.1)), (runs(2.0, 2.0), runs(2.2, 2.2))]
    assert run.trace_overhead(pairs) == pytest.approx(0.1)
