"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--out FILE]

Run from the repository root. For every workload and metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to a third of the metric's bound from
BENCHMARK.json. ``--out`` also writes these figures as JSON, with the
environment of the first run, e.g. to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[len("# env "):]) for l in lines if l.startswith("# env "))
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, env = run_once(workload, seed, seconds, args.trace)
            report.setdefault("env", env)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        rows = report["workloads"][workload] = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            bound = bounds.get(name)
            verdict = "" if bound is None else f" (bound/3 {bound / 3:.4f}: " + (
                "ok)" if spread < bound / 3 else "WIDE)")
            print(f"  {workload:>17} {name:>24}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                  f" spread {spread:.4f}{verdict}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
