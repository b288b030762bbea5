"""Command-line flows: files written, exit codes, byte-level reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import lossless_config, num_blocks, pairs_only_config
from timebinsim import PhasePair, __version__, config_to_dict, default_config, expected_histogram
from timebinsim.cli import BLAS_THREAD_VARIABLES, MAX_STEPS, _linspace, config_hash, main

# Closed-form anchors at the baseline operating point, symmetrized
# detection; frozen from direct evaluation of the formulas.
CAR_BASELINE = 7.8527647071247175
CAR_DFDT_2P5 = 3.1365914592870823
CAR_MU_1E3 = 8.087542873348045


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def boosted_config(seed=70_001, pulses=300_000):
    return lossless_config(5e-3, pulses, seed=seed, dark_rate_hz=2e5)


class TestAnalytic:
    @pytest.mark.parametrize("flag", ["--start", "--stop"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_range_rejected(self, tmp_path, capsys, flag, value):
        bounds = {"--start": "1e-3", "--stop": "1e-2", flag: value}
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main([
                "analytic", "--out-dir", str(out), "--sweep", "mu", "--steps", "2",
                *(f"{name}={v}" for name, v in bounds.items()),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, start, stop, shown",
        [
            # The pair mean grows as p^2, which leaves the float range.
            ("power", "1e200", "1e201", "1e+200 from --start/--stop gives mu_pairs = inf"),
            # A subnormal bandwidth-time product leaves no finite pump power.
            ("dfdt", "1e-320", "1e-310", "1e-320 from --start/--stop gives mu_pairs = nan"),
        ],
    )
    def test_sweep_beyond_float_range_is_one_error_line(
        self, tmp_path, capsys, sweep, start, stop, shown
    ):
        out = tmp_path / "out"
        assert main([
            "analytic", "--out-dir", str(out), "--sweep", sweep,
            "--start", start, "--stop", stop, "--steps", "2",
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --sweep {sweep} value {shown}"]
        assert not out.exists()

    def test_unusable_out_dir_is_one_error_line(self, tmp_path, capsys):
        # A regular file where the directory should go.
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main([
            "analytic", "--out-dir", str(out),
            "--sweep", "mu", "--start", "1e-3", "--stop", "1e-3", "--steps", "1",
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert out.read_text() == "kept\n"

    def test_empty_out_dir_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "analytic", "--out-dir", "",
            "--sweep", "mu", "--start", "1e-3", "--stop", "1e-3", "--steps", "1",
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_dfdt_sweep_holds_operating_mu(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "analytic", "--out-dir", str(out),
            "--sweep", "dfdt", "--start", "0.75", "--stop", "2.5", "--steps", "2",
        ]) == 0
        rows = read_rows(out / "sweep.csv")
        assert [r["dfdt"] for r in rows] == ["0.75", "2.5"]
        assert float(rows[0]["car"]) == pytest.approx(CAR_BASELINE, rel=1e-9)
        assert float(rows[1]["car"]) == pytest.approx(CAR_DFDT_2P5, rel=1e-9)
        # Same channel mean split differently: wider collection, more of the
        # budget spent on linear noise, so fewer correlated pairs.
        assert float(rows[1]["mu_pairs"]) < float(rows[0]["mu_pairs"])

    def test_mu_sweep_single_point(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "analytic", "--out-dir", str(out),
            "--sweep", "mu", "--start", "1e-3", "--stop", "1e-3", "--steps", "1",
        ]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["car"]) == pytest.approx(CAR_MU_1E3, rel=1e-9)
        assert set(rows[0]) == {"mu", "mu_pairs", "mu_noise", "car", "predicted_visibility"}

    def test_power_sweep_quadratic_pairs(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "analytic", "--out-dir", str(out),
            "--sweep", "power", "--start", "0.05", "--stop", "0.1", "--steps", "2",
        ]) == 0
        rows = read_rows(out / "sweep.csv")
        assert float(rows[1]["mu_pairs"]) == pytest.approx(
            4 * float(rows[0]["mu_pairs"]), rel=1e-9
        )
        assert float(rows[1]["mu_noise"]) == pytest.approx(
            2 * float(rows[0]["mu_noise"]), rel=1e-9
        )

    def test_config_with_byte_order_mark_reads_as_plain(self, tmp_path):
        # Spreadsheet and lab tools often write UTF-8 with a leading BOM.
        cfg = replace(default_config(), seed=4_242)
        plain = write_config(tmp_path, cfg)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(config_to_dict(cfg)).encode())
        written = []
        for path in (plain, str(bom)):
            out = tmp_path / f"out{len(written)}"
            assert main([
                "analytic", "--config", path, "--out-dir", str(out),
                "--sweep", "mu", "--start", "1e-4", "--stop", "1e-2", "--steps", "5",
            ]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert written[0] == written[1]
        assert json.loads(written[1]["manifest.json"])["config_hash"] == config_hash(cfg)

    def test_bad_sweep_ranges(self, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["analytic", "--out-dir", str(out), "--sweep", "mu"]
        assert main(base + ["--start", "1e-3", "--stop", "1e-2", "--steps", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --steps must be >= 1"]
        # Equals form: argparse would read a bare "-1" as a flag.
        assert main(base + ["--start=-1", "--stop", "1e-2", "--steps", "3"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: sweep range must be positive"]
        assert not out.exists()

    def test_too_many_steps_refused_before_any_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["analytic", "--out-dir", str(out), "--sweep", "mu", "--start", "1e-4"]
        assert main(argv + ["--stop", "1e-2", "--steps", str(10**12)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --steps must be <= {MAX_STEPS}, got {10**12}"
        ]
        assert not out.exists()


class TestMcCar:
    def test_outputs_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, boosted_config())
        out = tmp_path / "out"
        assert main(["mc-car", "--config", cfg_path, "--out-dir", str(out)]) == 0

        rows = read_rows(out / "histogram.csv")
        assert [int(r["delay"]) for r in rows] == [-3, -2, -1, 0, 1, 2, 3]

        car = json.loads((out / "car.json").read_text())
        assert set(car) == {
            "car", "stderr", "delay_zero_counts", "accidental_total", "num_pulses",
        }
        assert car["car"] > 1.0
        assert car["num_pulses"] == 300_000

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        assert manifest["command"] == "mc-car"
        assert manifest["config_hash"].startswith("sha256:")
        assert manifest["seed"] == 70_001
        assert manifest["outputs"] == ["histogram.csv", "car.json"]

        for name in ("histogram.csv", "car.json", "manifest.json"):
            assert b"\r" not in (out / name).read_bytes()

    def test_rerun_and_workers_are_byte_identical(self, tmp_path):
        # One block, and a run of three whose blocks go to a real pool.
        multi_block = lossless_config(0.5, 3_000_000)
        assert num_blocks(multi_block) >= 3
        for run, cfg in enumerate((boosted_config(), multi_block)):
            cfg_path = write_config(tmp_path, cfg, f"config{run}.json")
            outs = [tmp_path / f"run{run}-out{k}" for k in range(3)]
            assert main(["mc-car", "--config", cfg_path, "--out-dir", str(outs[0])]) == 0
            assert main(["mc-car", "--config", cfg_path, "--out-dir", str(outs[1])]) == 0
            assert main([
                "mc-car", "--config", cfg_path, "--out-dir", str(outs[2]), "--workers", "2",
            ]) == 0
            for name in ("histogram.csv", "car.json", "manifest.json"):
                first = (outs[0] / name).read_bytes()
                assert (outs[1] / name).read_bytes() == first
                assert (outs[2] / name).read_bytes() == first

    def test_seed_flag_equals_config_seed(self, tmp_path):
        via_flag = write_config(tmp_path, boosted_config(seed=5), "a.json")
        via_config = write_config(tmp_path, boosted_config(seed=99), "b.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["mc-car", "--config", via_flag, "--out-dir", str(out_a), "--seed", "99"]) == 0
        assert main(["mc-car", "--config", via_config, "--out-dir", str(out_b)]) == 0
        for name in ("histogram.csv", "car.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_starved_run_reports_error(self, tmp_path):
        # Baseline losses at a short pulse count: histogram is still
        # written, the estimate degrades to an explicit error.
        out = tmp_path / "out"
        assert main(["mc-car", "--out-dir", str(out), "--pulses", "50000"]) == 1
        assert (out / "histogram.csv").exists()
        assert "error" in json.loads((out / "car.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["histogram.csv"]

    def test_invalid_config_lists_all_violations(self, tmp_path, capsys):
        cfg = default_config()
        cfg = replace(
            cfg,
            signal=replace(cfg.signal, detector_efficiency=1.5),
            idler=replace(cfg.idler, dark_rate_hz=-1.0),
        )
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["mc-car", "--config", cfg_path, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "detector_efficiency" in err
        assert "dark_rate_hz" in err
        assert not out.exists()

    def test_config_error_is_one_line(self, tmp_path, capsys):
        # Only a flag argparse cannot parse gets its usage block and exit 2.
        out = tmp_path / "never"
        assert main(["mc-car", "--out-dir", str(out), "--seed", "4294967296"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid config: seed")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, field, flag",
        [
            ("mc-car", "num_pulses", "--pulses"),
            ("mc-fringe", "num_pulses", "--pulses"),
            ("mc-fringe", "coherence_slots", None),
        ],
    )
    def test_count_without_a_float_is_one_error_line(
        self, tmp_path, capsys, command, field, flag
    ):
        # 10**400 has no float: the count is refused before a run converts it.
        huge = 10**400
        cfg = default_config() if flag else replace(default_config(), **{field: huge})
        out = tmp_path / "never"
        argv = [command, "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]
        assert main(argv + ([flag, str(huge)] if flag else [])) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: invalid config: {field} must be in [")
        assert err[0].endswith(f", 2**63), got {huge}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("mc-car", []),
            ("mc-fringe", []),
            ("analytic", ["--sweep", "dfdt", "--start", "1", "--stop", "2", "--steps", "2"]),
        ],
    )
    def test_overflowing_peak_power_is_one_error_line(self, tmp_path, capsys, command, extra):
        cfg = default_config()
        cfg = replace(cfg, source=replace(cfg.source, peak_power_w=1e200))
        out = tmp_path / "never"
        cfg_path = write_config(tmp_path, cfg)
        assert main([command, "--config", cfg_path, "--out-dir", str(out), *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid config: source.peak_power_w must keep the channel mean finite,"
            " got 1e+200"
        ]
        assert not out.exists()

    def test_undrawable_channel_mean_is_one_error_line(self, tmp_path, capsys):
        # A finite channel mean of ~3e298 per slot passes validation, but
        # numpy cannot draw a Poisson mean above ~9.2e18: the run stops
        # before any draw, naming the field. The closed forms still run.
        cfg = default_config()
        cfg = replace(cfg, source=replace(cfg.source, peak_power_w=1e150))
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["mc-car", "--config", cfg_path, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid config: source.peak_power_w ")
        assert err[0].endswith(", got 1e+150")
        assert not out.exists()
        analytic = ["--sweep", "mu", "--start", "1e-3", "--stop", "1e-2", "--steps", "2"]
        assert main(["analytic", "--config", cfg_path, "--out-dir", str(out), *analytic]) == 0

    def test_oversized_block_is_one_error_line(self, tmp_path, capsys):
        # At 2e8 W a stream expects ~1e15 events per slot: within numpy's
        # Poisson range, but far more than one block may draw at once.
        cfg = default_config()
        cfg = replace(cfg, source=replace(cfg.source, peak_power_w=2e8))
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["mc-car", "--config", cfg_path, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid config: source.peak_power_w ")
        assert not out.exists()

    def test_config_that_is_not_json_names_its_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{\n")
        out = tmp_path / "never"
        assert main(["mc-car", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg_path}: Expecting property name enclosed in double quotes:"
            " line 2 column 1 (char 2)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("source", "pair_coeff", None),
            ("source", "pair_coeff", "5.78"),
            (None, "num_pulses", 1000.0),
            ("source", "peak_power_w", math.nan),
            (None, "seed", None),
        ],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, section, key, value):
        data = config_to_dict(default_config())
        target = data if section is None else data[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(data))
        proc = subprocess.run(
            [
                sys.executable, "-m", "timebinsim.cli",
                "mc-car", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"),
            ],
            capture_output=True,
            text=True,
        )
        field = key if section is None else f"{section}.{key}"
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: {field} ")


class TestMcFringe:
    def fringe_config(self, tmp_path, pulses=50_000, seed=71_001):
        cfg = pairs_only_config(0.05, 5, pulses, seed=seed)
        return write_config(tmp_path, cfg)

    def test_sweep_fit_and_phase_token(self, tmp_path):
        cfg_path = self.fringe_config(tmp_path)
        out = tmp_path / "out"
        assert main([
            "mc-fringe", "--config", cfg_path, "--out-dir", str(out),
            "--steps", "8", "--phi-i", "pi/2",
        ]) == 0
        rows = read_rows(out / "fringe.csv")
        assert len(rows) == 8
        phases = [float(r["phi_s"]) for r in rows]
        assert phases[0] == 0.0
        assert phases[-1] == pytest.approx(2 * math.pi * 7 / 8, rel=1e-12)

        fit = json.loads((out / "fringe_fit.json").read_text())
        # Five coherence slots bound the fringe at 0.8; small-sample noise
        # on eight points stays well inside this window.
        assert fit["visibility"] == pytest.approx(0.8, abs=0.1)
        # The idler phase shifts the fringe; fitted offset tracks it.
        assert abs(math.remainder(fit["phase_offset"] - math.pi / 2, 2 * math.pi)) < 0.2

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mc-fringe"
        assert manifest["arguments"]["phi_i"] == pytest.approx(math.pi / 2, rel=1e-12)
        assert manifest["outputs"] == ["fringe.csv", "fringe_fit.json"]

    def test_rerun_is_byte_identical(self, tmp_path):
        # One block per point, and points of three or more blocks each, with
        # darks near 0.3 per slot making the blocks short.
        multi_block = lossless_config(0.05, 3_000_000, dark_rate_hz=3e8, interferometers=True)
        for k in range(4):
            assert num_blocks(multi_block, PhasePair(2 * math.pi * k / 4, 0.0)) >= 3
        for run, (cfg_path, steps) in enumerate((
            (self.fringe_config(tmp_path), "6"),
            (write_config(tmp_path, multi_block, "multi.json"), "4"),
        )):
            out_a, out_b = tmp_path / f"a{run}", tmp_path / f"b{run}"
            args = ["mc-fringe", "--config", cfg_path, "--steps", steps]
            assert main(args + ["--out-dir", str(out_a)]) == 0
            assert main(args + ["--out-dir", str(out_b), "--workers", "2"]) == 0
            for name in ("fringe.csv", "fringe_fit.json", "manifest.json"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_long_coherence_window_runs(self, tmp_path):
        # The sector probabilities are closed forms in the coherence window,
        # so a 10**15-slot window is as cheap as a 5-slot one.
        cfg = pairs_only_config(0.05, 10**15, 20_000, seed=71_003)
        out = tmp_path / "out"
        assert main([
            "mc-fringe", "--config", write_config(tmp_path, cfg), "--out-dir", str(out),
            "--steps", "4",
        ]) == 0
        assert len(read_rows(out / "fringe.csv")) == 4

    def test_too_few_steps_refused_before_running(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["mc-fringe", "--out-dir", str(out), "--steps", "3"]) == 1
        assert ">= 4" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_steps_refused_before_running(self, tmp_path, capsys):
        out = tmp_path / "never"
        argv = ["mc-fringe", "--out-dir", str(out), "--pulses", "1", "--steps", str(10**12)]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --steps must be <= {MAX_STEPS}, got {10**12}"
        ]
        assert not out.exists()

    def test_dead_source_reports_fit_error(self, tmp_path):
        cfg = replace(
            pairs_only_config(0.05, 5, 1000, seed=71_002),
            source=replace(pairs_only_config(0.05, 5, 1000).source, peak_power_w=0.0),
        )
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([
            "mc-fringe", "--config", cfg_path, "--out-dir", str(out), "--steps", "6",
        ]) == 1
        assert "error" in json.loads((out / "fringe_fit.json").read_text())
        rows = read_rows(out / "fringe.csv")
        assert all(r["coincidences"] == "0" for r in rows)

    def test_bad_phase_token_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "mc-fringe", "--out-dir", str(tmp_path / "o"),
                "--phi-i", "quarter-turn",
            ])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_phase_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main(["mc-fringe", "--out-dir", str(out), f"--phi-i={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --phi-i: expected a finite number, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-car", "mc-fringe"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_one_error_line(self, tmp_path, capsys, command, workers):
        out = tmp_path / "never"
        assert main([command, "--out-dir", str(out), "--workers", workers]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --workers must be >= 1"]
        assert not out.exists()


class TestFit:
    def test_fringe_round_trip(self, tmp_path):
        phases = 2 * math.pi * np.arange(16) / 16
        counts = 220.0 * (1 + 0.78 * np.cos(phases + 0.9))
        data = tmp_path / "fringe.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["phi_s", "coincidences"])
            writer.writerows(zip(phases, counts))

        out = tmp_path / "out"
        assert main([
            "fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out),
        ]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["visibility"] == pytest.approx(0.78, abs=1e-9)
        assert fit["mean_level"] == pytest.approx(220.0, rel=1e-9)
        assert math.remainder(fit["phase_offset"] - 0.9, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_fringe_csv_with_byte_order_mark_and_crlf_reads_as_plain(self, tmp_path):
        # A spreadsheet's "CSV UTF-8" export: a leading BOM and CRLF rows.
        phases = 2 * math.pi * np.arange(16) / 16
        counts = 150.0 * (1 + 0.74 * np.cos(phases + 0.3))
        points = zip(phases.tolist(), counts.tolist())
        rows = ["phi_s,coincidences", *(f"{p!r},{c!r}" for p, c in points)]
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes("".join(f"{row}\n" for row in rows).encode())
        bom.write_bytes(b"\xef\xbb\xbf" + "".join(f"{row}\r\n" for row in rows).encode())
        fits = []
        for data in (plain, bom):
            out = tmp_path / data.stem
            assert main([
                "fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out),
            ]) == 0
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1]
        assert json.loads(fits[1])["visibility"] == pytest.approx(0.74, abs=1e-9)

    def test_csv_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"phi_s,coincidences\n0.0,1\n\xff,2\n")
        out = tmp_path / "o"
        assert main(["fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {data}: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    def test_scaling_round_trip(self, tmp_path):
        powers = np.linspace(0.05, 0.2, 16)
        data = tmp_path / "scaling.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["power_w", "mu_pairs", "mu_noise_signal", "mu_noise_idler"])
            writer.writerows(
                zip(powers, 5.78 * powers**2 * 0.75, 1.03 * powers * 0.75, 0.9 * powers * 0.75)
            )

        out = tmp_path / "out"
        assert main([
            "fit", "--model", "scaling", "--data", str(data), "--out-dir", str(out),
        ]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["pair_coeff_hat"] == pytest.approx(5.78, rel=1e-9)
        assert fit["noise_coeff_signal_hat"] == pytest.approx(1.03, rel=1e-9)
        assert fit["noise_coeff_idler_hat"] == pytest.approx(0.9, rel=1e-9)

    def test_missing_columns_are_named(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("phi,counts\n0.0,1\n")
        out = tmp_path / "o"
        assert main(["fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "missing columns" in err
        assert "phi_s" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, where, cell",
        [
            ("phi_s,coincidences\n0.0,1\n1.0\n", "row 3, column coincidences", "None"),
            ("phi_s,coincidences\n0.0,1\n1.0,nan\n", "row 3, column coincidences", "'nan'"),
            ("phi_s,coincidences\nabc,1\n", "row 2, column phi_s", "'abc'"),
        ],
    )
    def test_malformed_cell_is_one_error_line(self, tmp_path, capsys, body, where, cell):
        data = tmp_path / "bad.csv"
        data.write_text(body)
        out = tmp_path / "o"
        assert main(["fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {data}: {where}: expected a finite number, got {cell}"]
        assert not out.exists()

    def test_overflowing_power_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "scaling.csv"
        data.write_text(
            "power_w,mu_pairs,mu_noise_signal,mu_noise_idler\n"
            "0.05,0.01,0.04,0.04\n0.06,0.02,0.05,0.05\n1e200,0.03,0.06,0.06\n"
        )
        out = tmp_path / "o"
        assert main(["fit", "--model", "scaling", "--data", str(data), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: power_w must keep p^2 F finite, got a power of 1e+200"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("power", [1e100, 1.3e77], ids=["square-overflows", "sum-overflows"])
    def test_overflowing_fit_sums_are_one_error_line(self, tmp_path, capsys, power):
        # p^2 F is finite, but the sum of its squares is not: (p^2 F)^2
        # overflows at 1e100, and fsum's running total of three finite
        # squares at 1.3e77. The slope came out 0, or fsum raised.
        data = tmp_path / "scaling.csv"
        rows = "".join(f"{k * power!r},{0.01 * k},0.04,0.04\n" for k in (1, 2, 3))
        data.write_text("power_w,mu_pairs,mu_noise_signal,mu_noise_idler\n" + rows)
        out = tmp_path / "o"
        assert main(["fit", "--model", "scaling", "--data", str(data), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: power_w and mu_pairs overflow the sums of the least-squares fit"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_fringe_level_beyond_float_range_is_one_error_line(self, tmp_path, capsys, scale):
        # The fitted mean level is finite, but its square overflows (or
        # underflows to 0). The visibility error, taken in rationals, never
        # rounds that square to a float, so these exact V = 0.7 data fit.
        data = tmp_path / "fringe.csv"
        rows = "".join(
            f"{2 * math.pi * k / 16!r},{scale * (1 + 0.7 * math.cos(2 * math.pi * k / 16))!r}\n"
            for k in range(16)
        )
        data.write_text("phi_s,coincidences\n" + rows)
        out = tmp_path / "o"
        assert main(["fit", "--model", "fringe", "--data", str(data), "--out-dir", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["visibility"] == pytest.approx(0.7, abs=1e-12)
        assert math.isfinite(fit["visibility_error"])

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([
            "fit", "--model", "fringe", "--data", str(tmp_path / "nope.csv"),
            "--out-dir", str(out),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert not out.exists()


# Runs each argv list through cli.main in a fresh interpreter, with numpy
# made unimportable unless the first argument is "numpy", and prints the
# exit codes, which modules the package loaded, and the baseline's expected
# histogram without interferometers and with them at phases (0.3, 0.2).
STDLIB_RUNNER = """
import json, sys
block, runs = sys.argv[1] != "numpy", json.loads(sys.argv[2])
if block:
    sys.modules["numpy"] = None
import timebinsim.cli
modules = ("analytic", "fitting", "montecarlo", "params")
names = ["fractions", "numpy", *(f"timebinsim.{m}" for m in modules)]
loaded = {name: sys.modules.get(name) is not None for name in names}
from dataclasses import replace
from timebinsim import PhasePair, default_config, expected_histogram
cfg = default_config()
histograms = [
    expected_histogram(cfg),
    expected_histogram(replace(cfg, interferometers_present=True), PhasePair(0.3, 0.2)),
]
codes = [timebinsim.cli.main(argv) for argv in runs]
print(json.dumps({"codes": codes, "loaded": loaded, "histograms": histograms}))
"""

# `import timebinsim.cli` loads every submodule, no numpy and no fractions
# (fit_fringe imports it). The tracer, perfbench/traced.py, wraps only the
# modules that import loads, and its --workers probe reads
# sys.modules["timebinsim.montecarlo"]: a submodule imported lazily would
# run untraced.
CLI_IMPORT_LOADS = {
    "fractions": False,
    "numpy": False,
    "timebinsim.analytic": True,
    "timebinsim.fitting": True,
    "timebinsim.montecarlo": True,
    "timebinsim.params": True,
}


def run_fresh(block_numpy: bool, runs: list[list[str]]) -> dict:
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    mode = "blocked" if block_numpy else "numpy"
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_RUNNER, mode, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Standard-library modules no command needs at start-up. Without site
# (python -S), which may load some of them from a .pth file, importing the
# CLI loads none of them.
START_UP_UNUSED = ("decimal", "fractions", "pathlib", "typing")


def test_site_free_cli_import_loads_only_what_commands_run():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = "import sys, timebinsim.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *START_UP_UNUSED],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestWithoutNumpy:
    """Commands that sample nothing load no numpy and run without it."""

    def test_cli_import_loads_no_numpy(self):
        assert run_fresh(False, [])["loaded"] == CLI_IMPORT_LOADS

    @pytest.mark.parametrize(
        "start, stop, steps",
        [
            (1e-4, 1e-2, 25), (0.25, 2.5, 10), (2e-2, 1e-3, 7), (1e-3, 1e-3, 3), (1e-3, 1e-2, 1),
            (5e-324, 1e-323, 3),  # a step that underflows to 0
        ],
    )
    def test_sweep_values_are_numpy_linspace(self, start, stop, steps):
        assert _linspace(start, stop, steps) == np.linspace(start, stop, steps).tolist()

    def test_analysis_commands_run_and_match_a_normal_run(self, tmp_path):
        fringe, scaling = tmp_path / "fringe.csv", tmp_path / "scaling.csv"
        phases = 2 * math.pi * np.arange(16) / 16
        counts = np.random.default_rng(67_001).poisson(120.0 * (1 + 0.7 * np.cos(phases + 0.4)))
        powers = np.linspace(0.05, 0.2, 16)
        rng = np.random.default_rng(67_002)
        means = (5.78 * powers**2, 1.03 * powers, 0.9 * powers)
        series = [mean * (1 + 0.01 * rng.standard_normal(16)) for mean in means]
        scaling_header = ["power_w", "mu_pairs", "mu_noise_signal", "mu_noise_idler"]
        for path, header, columns in (
            (fringe, ["phi_s", "coincidences"], (phases, counts)),
            (scaling, scaling_header, (powers, *series)),
        ):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(zip(*(c.tolist() for c in columns)))
        commands = {
            "mu": "analytic --sweep mu --start 1e-4 --stop 1e-2 --steps 25".split(),
            "power": "analytic --sweep power --start 1e-3 --stop 2e-2 --steps 7".split(),
            "dfdt": "analytic --sweep dfdt --start 0.25 --stop 2.5 --steps 10".split(),
            "scaling": ["fit", "--model", "scaling", "--data", str(scaling)],
            "fringe": ["fit", "--model", "fringe", "--data", str(fringe)],
        }
        runs = [[*argv, "--out-dir", str(tmp_path / "blocked" / name)] for name, argv in commands.items()]
        result = run_fresh(True, runs)
        assert result["codes"] == [0] * len(commands)
        assert result["loaded"] == CLI_IMPORT_LOADS
        # The expected histogram, without and with the interferometers.
        cfg = default_config()
        histograms = [
            expected_histogram(cfg),
            expected_histogram(replace(cfg, interferometers_present=True), PhasePair(0.3, 0.2)),
        ]
        assert [{int(d): p for d, p in h.items()} for h in result["histograms"]] == histograms
        for name, argv in commands.items():
            assert main([*argv, "--out-dir", str(tmp_path / "normal" / name)]) == 0
            blocked, normal = tmp_path / "blocked" / name, tmp_path / "normal" / name
            files = sorted(f.name for f in normal.iterdir())
            assert sorted(f.name for f in blocked.iterdir()) == files
            for file in files:
                assert (blocked / file).read_bytes() == (normal / file).read_bytes(), (name, file)


BLAS_RUNNER = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1] == "library":
    from dataclasses import replace
    import timebinsim
    timebinsim.simulate_car_run(replace(timebinsim.default_config(), num_pulses=1_000_000))
else:
    from timebinsim.cli import main
    assert main(["mc-car", "--out-dir", sys.argv[2], "--pulses", "10000000000"]) == 0
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
names = set(before) | set(os.environ)
changed = {k: os.environ.get(k) for k in names if before.get(k) != os.environ.get(k)}
print(json.dumps({"threads": threads, "changed": changed}))
"""


def run_blas(mode: str, tmp_path, **env) -> dict:
    """BLAS_RUNNER in a fresh process whose BLAS variables are env only."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_RUNNER, mode, str(tmp_path / "out")],
        env={**base, **env},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBlasThreads:
    """A sampling command starts no BLAS thread pool; library calls leave
    the environment alone."""

    def test_sampling_command_runs_one_thread(self, tmp_path):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        result = run_blas("cli", tmp_path)
        assert result["threads"] == 1
        assert result["changed"] == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")

    def test_user_setting_is_kept(self, tmp_path):
        result = run_blas("cli", tmp_path, OPENBLAS_NUM_THREADS="2")
        assert result["changed"] == {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def test_library_call_leaves_environment_unchanged(self, tmp_path):
        assert run_blas("library", tmp_path)["changed"] == {}


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "timebinsim.cli",
                "analytic", "--out-dir", str(out),
                "--sweep", "mu", "--start", "1e-3", "--stop", "1e-3", "--steps", "1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.csv").exists()


# The environment without PYTHONUNBUFFERED: a command's stdout into a pipe
# or file is block-buffered, as users run it, so output left unflushed at
# exit would be lost.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_module(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """python -m timebinsim.cli with args, its stderr (and by default its
    stdout) captured as text."""
    return subprocess.run(
        [sys.executable, "-m", "timebinsim.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=BUFFERED_ENV,
    )


class TestExit:
    """The command line ends without interpreter teardown; its output,
    exit code and child processes are as with the normal exit."""

    def test_version_through_a_pipe(self):
        proc = run_module("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{__version__}\n"

    def test_command_skips_interpreter_teardown(self):
        # An atexit hook runs in the interpreter's teardown, which run() skips.
        launcher = (
            "import atexit, sys; from timebinsim.cli import run; "
            "atexit.register(print, 'teardown'); sys.argv[1:] = ['--version']; run()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher], capture_output=True, text=True, env=BUFFERED_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{__version__}\n"

    def test_version_with_stdout_closed(self):
        # sys.stdout is None in a process started with fd 1 closed.
        launcher = (
            "import os, sys; os.close(1); "
            "os.execv(sys.executable, [sys.executable, '-m', 'timebinsim.cli', '--version'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", launcher], stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_version_into_a_broken_pipe_reports_as_before(self):
        # The failed flush takes the normal exit, whose own flush fails
        # again: CPython's one-line report and exit status 120.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module("--version", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert "BrokenPipeError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exits_2(self, tmp_path):
        proc = run_module("analytic", "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: the following arguments are required: --sweep" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_pool_run_writes_every_file_and_leaves_no_process(self, tmp_path):
        cfg = lossless_config(1.0, 3_000_000)
        assert num_blocks(cfg) > 2
        argv = ["mc-car", "--config", write_config(tmp_path, cfg), "--workers", "2"]
        with subprocess.Popen(
            [sys.executable, "-m", "timebinsim.cli", *argv, "--out-dir", str(tmp_path / "fast")],
            stderr=subprocess.PIPE,
            text=True,
            env=BUFFERED_ENV,
            start_new_session=True,
        ) as child:
            _, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        # The command led its own process group, so a pool worker it left
        # behind keeps the group alive, blocked on its task queue for good.
        # A start-method helper that ends on the command's exit gets a moment.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process outlived the command"
            time.sleep(0.05)
        assert main([*argv, "--out-dir", str(tmp_path / "normal")]) == 0
        fast, normal = tmp_path / "fast", tmp_path / "normal"
        files = sorted(f.name for f in normal.iterdir())
        assert files == ["car.json", "histogram.csv", "manifest.json"]
        assert sorted(f.name for f in fast.iterdir()) == files
        for name in files:
            assert (fast / name).read_bytes() == (normal / name).read_bytes(), name

    def test_profiler_gets_the_normal_exit(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cProfile", "-m", "timebinsim.cli",
                "analytic", "--sweep", "mu", "--start", "1e-4", "--stop", "1e-2",
                "--steps", "3", "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env=BUFFERED_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "function calls" in proc.stdout
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "sweep.csv"]
        assert len(read_rows(out / "sweep.csv")) == 3
