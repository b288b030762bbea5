"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/campaign.py --workloads car-paper car-dense --seeds 1-10 \
        --seconds 20 [--trace 0|1] [--out results.json]

Runs are sequential (a parallel run would share the cores it measures). For
each workload and metric it prints the median, the quartiles and the
spread, (Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives
them, next to the bound BENCHMARK.json fixes. --out writes the same summary,
with every run's value and the machine line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        machine = None
        attempted = failed = notes = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            for line in proc.stderr.splitlines():
                if line.startswith(("FAILED", "NOTE")):
                    print(f"seed {seed}: {line}")
                notes += line.startswith("NOTE")
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            machine = next((json.loads(l.split("machine ", 1)[1]) for l in lines if " machine " in l), machine)
            attempted += result["attempted"]
            failed += result["failed"]
            ok &= result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        stats = {metric: summarise(v) for metric, v in values.items()}
        summary["workloads"][name] = {
            "machine": machine, "attempted": attempted, "failed": failed, "notes": notes, "metrics": stats,
        }
        print(f"{name}: {attempted} commands, {failed} failed, {notes} known-defect notes")
        for metric, s in stats.items():
            bound = bounds.get(metric)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {spread}" + (f" (bound {bound})" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
