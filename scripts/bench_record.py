"""Record a performance change: alternating benchmark runs and per-trial times.

    python scripts/bench_record.py --parent DIR --seed N --out BENCH_<n>.json

Run from the repository root (the change); DIR is a checkout of the
parent commit, and N a seed not used while developing the change. For
each workload it runs ``perfbench/run.py`` for BENCHMARK.json's
``run_seconds`` in the two trees in alternating order (parent first in
even pairs), so host speed drift hits both alike: ``PAIRS`` pairs per
workload. It records per end-to-end metric the medians and quartiles of
each side and the pairs in which the change was better. The subprocess
call and the quartiles mirror ``perfbench/spread.py``, which runs the
benchmark in one tree only; keep the two in step.

The configs table runs every bundled simulate config through ``dmimo.cli
simulate --trials CONFIG_TRIALS`` at one worker and at ``nproc``, in the
two trees in alternating order: ``CONFIG_REPS`` runs per side, each
timed as a whole process, so trials/s includes interpreter start and
writing the payload files. A row records per side the median and
quartiles of trials/s, their verdict, and whether the last runs of the
two sides wrote byte-identical ``results.csv`` and ``summary.json``.

The suite row runs ``scripts/run_all_experiments.py`` at its 2000-trial
defaults with one worker, ``SUITE_PAIRS`` alternating parent/change
pairs, each timed as a whole process, and records whether the two
sides' last runs wrote byte-identical payload files.

The dataset_io row imports both trees' ``dmimo`` in one process and
times, alternating parent and change, ``DATASET_REPS`` runs per side of:
the ``generate`` and ``calibrate`` commands (``cli.cmd_generate`` and
``cli.cmd_calibrate``) on perfbench's 24x24 generate config;
``read_dataset`` of the generated dataset with its ``csi.cache`` (a tree
that writes none has no such row) and with it deleted, which parses
``csi.csv``; and ``write_dataset`` of the parsed grid. The work that
writing ``csi.cache`` adds to ``write_dataset`` (SHA-256 of the
``csi.csv`` bytes and ``np.save`` of both arrays), a few percent of the
call and below its spread, is timed on its own as ``cache_work_s``. It
records per side the median and quartiles of seconds, their verdict, and
whether the two sides' last runs wrote byte-identical ``csi.csv``,
``manifest.json`` and ``offsets.csv`` files.

The per-trial table imports both trees' ``dmimo`` in one process and
times the runner's unit of work on a one-spec copy of every bundled
config over that config's error grid (perfect CSI when it has none),
alternating parent and change: ``REPS`` repetitions of the config's
first ``TRIALS`` trials, run as a simulate run of them runs: one
``scenarios.run_chunk`` call per chunk of ``scenarios._chunks``, each
given its placement from the noise pre-pass (``scenarios._noise_prepass``,
which also gives the noise variance). Each side runs on its own parsed
config, sampler, noise variance and placements, and is summarized by
median and quartiles of ms per trial. A one-spec copy builds nothing
but its spec, so the table cannot show a saving shared across a
config's specs (such as the location state a chunk's environment
derives once for all of them); the configs table and the workloads do.
A ``verdict``, here and in the configs and suite rows, is "faster" or
"slower" where the two sides' quartile ranges are disjoint, else
"overlap". The output is a record, not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))

from perfbench.workloads import GENERATE_24  # noqa: E402

#: Alternating parent/change pairs of benchmark runs per workload: ten,
#: so a claimed gain can meet the nine-in-ten rule from the record.
PAIRS = {"dist_sweep_k10": 10, "cluster_k10_pool": 10, "dataset_pipeline": 10}

#: Runs per side and trials per run of the configs table.
CONFIG_REPS, CONFIG_TRIALS = 5, 200

#: Repetitions and trials per repetition of the per-trial table.
REPS, TRIALS = 10, 32

#: Alternating parent/change pairs of the suite row.
SUITE_PAIRS = 3

#: Runs per side of the dataset_io row, and the generate config it runs
#: (its offsets seed is the record's seed).
DATASET_REPS = 10
GENERATE = GENERATE_24


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[len("# env "):]) for l in lines if l.startswith("# env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: dict, change: dict, higher: bool = False) -> str:
    if higher:  # larger is faster: with the sides swapped the test below holds
        parent, change = change, parent
    if change["q3"] < parent["q1"]:
        return "faster"
    return "slower" if change["q1"] > parent["q3"] else "overlap"


def pairs(parent: Path, workload: str, n: int, seed: int, seconds: int) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    env = {}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, env = perfbench(parent if side == "parent" else ROOT, workload, seed, seconds)
            runs[side].append(result)
            print(f"{workload} pair {i} {side}: " + json.dumps(
                {m: round(v["value"], 4) for m, v in result["metrics"].items()}), flush=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"pairs": n, "correct": all(r["correct"] for rs in runs.values() for r in rs)}
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
        better = sum((c > p) if higher else (c < p) for p, c in zip(side["parent"], side["change"]))
        record[name] = {
            "unit": metric["unit"],
            "parent": summarize(side["parent"]),
            "change": summarize(side["change"]),
            "change_better_pairs": better,
        }
    return record, env


def simulate_configs() -> list[Path]:
    return [p for p in sorted((ROOT / "configs").glob("*.yaml")) if p.stem != "generate_dataset"]


def cli_trials_per_s(tree: Path, config: str, workers: int, out: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "dmimo.cli", "simulate", "--config", config,
         "--trials", str(CONFIG_TRIALS), "--workers", str(workers), "--out", str(out)],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, timeout=600, check=True,
    )
    return CONFIG_TRIALS / (time.perf_counter() - t0)


def configs(parent: Path, nproc: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in simulate_configs():
            config = str(path.relative_to(ROOT))
            for workers in sorted({1, nproc}):
                tps = {"parent": [], "change": []}
                for rep in range(CONFIG_REPS):
                    for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                        tree = parent if side == "parent" else ROOT
                        tps[side].append(cli_trials_per_s(tree, config, workers, out[side]))
                sides = {s: {q: round(x, 2) for q, x in summarize(v).items()} for s, v in tps.items()}
                identical = all(
                    (out["parent"] / name).read_bytes() == (out["change"] / name).read_bytes()
                    for name in ("results.csv", "summary.json")
                )
                row = {
                    "config": path.stem, "workers": workers, "trials": CONFIG_TRIALS,
                    "trials_per_s": dict(sides, verdict=verdict(
                        sides["parent"], sides["change"], higher=True)),
                    "payload_identical": identical,
                }
                rows.append(row)
                print(json.dumps(row), flush=True)
    return rows


def suite(parent: Path) -> dict:
    """Wall time of the 2000-trial suite at one worker, per side."""
    wall = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(SUITE_PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                tree = parent if side == "parent" else ROOT
                t0 = time.perf_counter()
                subprocess.run(
                    [sys.executable, "scripts/run_all_experiments.py", "--workers", "1",
                     "--out", str(Path(tmp) / side)],
                    cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                    capture_output=True, timeout=1800, check=True,
                )
                wall[side].append(time.perf_counter() - t0)
                print(f"suite pair {i} {side}: {wall[side][-1]:.2f} s", flush=True)
        identical = all(
            (Path(tmp) / "parent" / path.stem / name).read_bytes()
            == (Path(tmp) / "change" / path.stem / name).read_bytes()
            for path in simulate_configs() for name in ("results.csv", "summary.json")
        )
    sides = {s: {q: round(x, 2) for q, x in summarize(v).items()} for s, v in wall.items()}
    return {"pairs": SUITE_PAIRS, "workers": 1, "wall_s": dict(
        sides, verdict=verdict(sides["parent"], sides["change"])), "payload_identical": identical}


def cache_work(csv_path: Path, grid, dest: Path) -> None:
    """What writing csi.cache adds to write_dataset: the digest of the
    csi.csv bytes and the two arrays saved."""
    import numpy as np

    digest = hashlib.sha256(csv_path.read_bytes()).digest()
    with open(dest, "wb") as fh:
        fh.write(digest)
        np.save(fh, grid.csi, allow_pickle=False)
        np.save(fh, grid.present, allow_pickle=False)


def dataset_io(parent: Path, seed: int) -> dict:
    """Seconds per dataset command and read/write call, per side."""
    load_tree(parent / "src", "dmimo_parent")
    times = {key: {"parent": [], "change": []}
             for key in ("generate_s", "calibrate_s", "read_cache_s", "read_parse_s", "write_s",
                         "cache_work_s")}

    def timed(key, side, fn, *args):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result = fn(*args)
        times[key][side].append(time.perf_counter() - t0)
        return result

    files = ("gen/csi.csv", "gen/manifest.json", "cal/csi.csv", "cal/offsets.csv")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "gen.yaml"
        config.write_text(json.dumps(dict(GENERATE, hardware_offsets={"seed": seed})) + "\n")
        for rep in range(DATASET_REPS):
            for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                mod = "dmimo_parent" if side == "parent" else "dmimo"
                cli, csidata = (importlib.import_module(f"{mod}.{m}") for m in ("cli", "csidata"))
                out = Path(tmp) / side
                gen, cache = out / "gen", out / "gen" / "csi.cache"
                timed("generate_s", side, cli.cmd_generate, str(config), str(gen))
                timed("calibrate_s", side, cli.cmd_calibrate, str(gen), str(out / "cal"))
                if cache.exists():
                    timed("read_cache_s", side, csidata.read_dataset, gen)
                    cache.unlink()
                grid, manifest = timed("read_parse_s", side, csidata.read_dataset, gen)
                timed("write_s", side, csidata.write_dataset, grid, manifest, out / "write")
                if side == "change":
                    timed("cache_work_s", side, cache_work, gen / "csi.csv", grid, out / "cache")
        identical = all((Path(tmp) / "parent" / f).read_bytes() == (Path(tmp) / "change" / f).read_bytes()
                        for f in files)
    row = {"reps": DATASET_REPS, "grid": [GENERATE["grid"]["nx"], GENERATE["grid"]["ny"]]}
    for key, sides in times.items():
        sides = {s: {q: round(x, 4) for q, x in summarize(v).items()} for s, v in sides.items() if v}
        if len(sides) == 2:
            sides["verdict"] = verdict(sides["parent"], sides["change"])
        row[key] = sides
    row["payload_identical"] = identical
    print(json.dumps(row), flush=True)
    return row


def load_tree(src: Path, name: str):
    """The ``dmimo`` package under ``src`` imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "dmimo" / "__init__.py", submodule_search_locations=[str(src / "dmimo")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def trial_setup(mod, path: Path) -> tuple:
    """A side's config (``TRIALS`` trials), sampler, noise variance, error
    grid and chunks with their placements, as ``run_scenario`` makes them."""
    configio, scenarios = (importlib.import_module(f"{mod}.{m}") for m in ("configio", "scenarios"))
    cfg = configio.override(configio.parse_simulate_config(path), trials=TRIALS)
    sampler = scenarios._make_sampler(cfg)
    gain, placements = scenarios._noise_prepass(cfg, sampler)
    noise_var = scenarios.noise_variance_from_floor(cfg.noise_floor_db, gain)
    sigma_points = (None,)
    if cfg.nmse_grid is not None:  # as run_scenario scales it
        scale = gain / cfg.geometry.num_antennas if cfg.nmse_relative else 1.0
        sigma_points = tuple(float(v) * scale for v in cfg.nmse_grid)
    chunks = list(zip(scenarios._chunks(cfg), placements))
    return scenarios, cfg, sampler, noise_var, sigma_points, chunks


def pertrial(parent: Path) -> list[dict]:
    load_tree(parent / "src", "dmimo_parent")
    rows = []
    for path in simulate_configs():
        sides = {"parent": trial_setup("dmimo_parent", path), "change": trial_setup("dmimo", path)}
        for p, name in enumerate(spec.name for spec in sides["change"][1].precoders):
            ms = {"parent": [], "change": []}
            for rep in range(REPS):
                for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                    scenarios, cfg, sampler, noise_var, sigma_points, chunks = sides[side]
                    one = dataclasses.replace(cfg, precoders=cfg.precoders[p : p + 1])
                    t0 = time.perf_counter()
                    for trials, placement in chunks:
                        scenarios.run_chunk(one, trials, noise_var, sigma_points, sampler,
                                            placement=placement)
                    ms[side].append((time.perf_counter() - t0) / TRIALS * 1e3)
            summary = {s: {q: round(x, 4) for q, x in summarize(v).items()} for s, v in ms.items()}
            row = {"config": path.stem, "spec": name, "sigma_points": len(sides["change"][4]),
                   "ms_per_trial": dict(summary, verdict=verdict(summary["parent"], summary["change"]))}
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as perfbench's clients; set before numpy loads BLAS
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    nproc = len(os.sched_getaffinity(0))
    record = {
        "parent_sha": git(parent, "rev-parse", "HEAD").strip(),
        "change_base_sha": git(ROOT, "rev-parse", "HEAD").strip(),
        "change_src_diff_sha1": hashlib.sha1(git(ROOT, "diff", "HEAD", "--", "src").encode())
        .hexdigest(),
        "nproc": nproc,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    for workload, n in PAIRS.items():
        record["workloads"][workload], env = pairs(parent, workload, n, args.seed, seconds)
        record.update({k: v for k, v in env.items() if k != "git_sha"})
    record["configs"] = configs(parent, nproc)
    record["suite"] = suite(parent)
    record["dataset_io"] = dataset_io(parent, args.seed)
    record["pertrial_ms"] = pertrial(parent)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
