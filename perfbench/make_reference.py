"""Regenerate perfbench/reference/*.jsonl from the current dmimo sources.

    python3 perfbench/make_reference.py [--seeds 0-49] [--workload NAME ...]

Run from the repository root, and only on a commit whose results are
trusted: the benchmark compares every later run with these values. Each
workload runs once per seed at ``workers=1``, so the pool workload is
checked against single-process results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
import workloads
from spread import seed_list


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-49"))
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    env = run.client_env(root)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        run_dir = root / ".perfbench_work" / "reference" / name
        lines = [{"spec": workload.spec()}]
        for seed in args.seeds:
            shutil.rmtree(run_dir, ignore_errors=True)
            plan = workloads.prepare(name, seed, run_dir, workers=1)
            _, result = run.run_client(
                run_dir, env, {"setup": plan.setup, "commands": plan.commands, "trace": False}
            )
            if result is None or any(c["exit"] != 0 for c in result["commands"]):
                raise SystemExit(f"{name} seed {seed}: a command failed, see {run_dir}")
            errors = workloads.check_simulate(plan, run_dir, None)
            if workload.dataset:
                errors += workloads.check_calibration(
                    run_dir, (run_dir / "stdout.log").read_text()
                )
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            summary = json.loads((run_dir / "sim" / "summary.json").read_text())
            lines.append(workloads.reference_entry(seed, summary))
            print(f"{name} seed {seed}: ok", flush=True)
        path = workloads.REFERENCE_DIR / f"{name}.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
