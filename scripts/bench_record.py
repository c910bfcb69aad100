"""Record a performance change: alternating benchmark runs and per-trial times.

    python scripts/bench_record.py --parent DIR --seed N --out BENCH_<n>.json

DIR is a checkout of the parent commit, and N a seed not used while
developing the change. The change is this tree's tracked files as the
working tree has them (stage a new file first). They are copied to a new
directory beside DIR whose path is as long as DIR's, and every table runs
both sides from those two copies, never from this checkout: a tree's peak
RSS depends on the directory it runs from. The record names both paths
(``trees``), and the copy is removed at the end. For each workload it
runs ``perfbench/run.py`` for BENCHMARK.json's ``run_seconds`` in the two
trees in alternating order (parent first in even pairs), so host speed
drift hits both alike: ``PAIRS`` pairs per workload. It records per
end-to-end metric the medians and quartiles of each side and the pairs
in which the change was better. The subprocess
call and the quartiles mirror ``perfbench/spread.py``, which runs the
benchmark in one tree only; keep the two in step.

The configs table runs every bundled simulate config through ``dmimo.cli
simulate --trials CONFIG_TRIALS`` at one worker and at ``nproc``, in the
two trees in alternating order: ``CONFIG_REPS`` runs per side, each
timed as a whole process, so trials/s includes interpreter start and
writing the payload files. A row records per side the median and
quartiles of trials/s, their verdict, the median and quartiles of the
process's peak RSS (its ``ru_maxrss``, which covers its workers;
``LAUNCH`` keeps this script's own peak out of it),
and whether the last runs of the two sides wrote byte-identical
``results.csv`` and ``summary.json``.

The pool row runs ``cluster_k10_pool``'s simulate config (the
record's seed) at ``workers=nproc`` in the two trees in alternating
order, ``POOL_REPS`` runs per side, each as a ``dmimo.cli`` process
launched as the configs table launches it. The process reports its own
peak RSS (``RUSAGE_SELF``) apart from its largest reaped worker's
(``RUSAGE_CHILDREN``); the row records per side the median and quartiles
of each, so it shows which process sets the workload's ``peak_rss_mb``,
and whether the last runs of the two sides wrote byte-identical
``results.csv``.

The suite row runs ``scripts/run_all_experiments.py`` at its 2000-trial
defaults with one worker, ``SUITE_PAIRS`` alternating parent/change
pairs, each timed as a whole process, and records whether the two
sides' last runs wrote byte-identical payload files.

The dataset_io row imports both trees' ``dmimo`` in one process (as
``dmimo_parent`` and ``dmimo_change``) and times, alternating parent and
change, ``DATASET_REPS`` runs per side of:
the ``generate`` and ``calibrate`` commands (``cli.cmd_generate`` and
``cli.cmd_calibrate``) on perfbench's 24x24 generate config;
``read_dataset`` of the generated dataset with its ``csi.cache`` (a tree
that writes none has no such row) and with it deleted, which parses
``csi.csv``; and ``write_dataset`` of the parsed grid. The work that
writing ``csi.cache`` adds to ``write_dataset`` (SHA-256 of the
``csi.csv`` bytes and ``np.save`` of both arrays), a few percent of the
call and below its spread, is timed on its own as ``cache_work_s``. Each
run then repeats ``generate`` and ``calibrate`` as fresh ``dmimo.cli``
processes for their peak RSS (``generate_rss_mb``, ``calibrate_rss_mb``).
It records per side the median and quartiles of each measure, their
verdict, and whether the two sides' last runs wrote byte-identical
``csi.csv``, ``csi.cache``, ``manifest.json`` and ``offsets.csv`` files.

The placement table imports both trees' ``dmimo`` in one process and
times, alternating parent and change, ``REPS`` repetitions per side on
each benchmark workload's simulate config (the dataset workload's on a
generated and calibrated dataset): microseconds per trial of placing
``TRIALS`` trials (``scenarios._place_chunk``, the noise pre-pass's
placement), and milliseconds of the distance pass over their UEs
(``geometry.distance_phasors``, a chunk's LoS channels and near-field
phasors). It records per side the median and quartiles of each, their
verdict, and whether the two sides placed the same bytes.

The per-trial table imports both trees' ``dmimo`` in one process and
times the runner's unit of work on a one-spec copy of every bundled
config over that config's error grid (perfect CSI when it has none),
alternating parent and change: ``REPS`` repetitions of the config's
first ``TRIALS`` trials, run as a simulate run of them runs: one
``scenarios.run_chunk`` call per chunk of ``scenarios._chunks``, each
given its placement from the noise pre-pass (``scenarios._chunk_gains``
per chunk, whose gains ``scenarios._mean_gain`` adds into the mean gain
that sets the noise variance). Each side runs on its own parsed
config, sampler, noise variance and placements, and is summarized by
median and quartiles of ms per trial. A one-spec copy builds nothing
but its spec, so the table cannot show a saving shared across a
config's specs (such as the location state a chunk's environment
derives once for all of them); the configs table and the workloads do.
A ``verdict``, here and in the configs and suite rows, is "faster" or
"slower" where the two sides' quartile ranges are disjoint, else
"overlap". Before any run, ``python -m compileall -q src`` compiles each
tree's sources, so no process of either tree recompiles a module whose
cached bytecode is stale or missing (perfbench's clients write none
under ``PYTHONDONTWRITEBYTECODE``). The output is a record, not a gate.
It names the measured code by the parent's commit and ``change_src_diff_sha1``, the SHA-1 of
the change's ``src`` diff against that commit, working tree included.
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
import shutil
import statistics
import string
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import GENERATE_24, WORKLOADS  # noqa: E402

#: Alternating parent/change pairs of benchmark runs per workload: ten,
#: so a claimed gain can meet the nine-in-ten rule from the record.
PAIRS = {"dist_sweep_k10": 10, "cluster_k10_pool": 10, "dataset_pipeline": 10}

#: Runs per side and trials per run of the configs table.
CONFIG_REPS, CONFIG_TRIALS = 5, 200

#: Repetitions and trials per repetition of the per-trial table.
REPS, TRIALS = 10, 32

#: Runs per side of the pool row.
POOL_REPS = 10

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


def pairs(trees: dict, workload: str, n: int, seed: int, seconds: int) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    env = {}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, env = perfbench(trees[side], workload, seed, seconds)
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


#: Runs ``python`` with its arguments (stdout discarded) as the child of a
#: bare interpreter and prints the child's wall seconds, ``ru_maxrss``
#: (KiB) and exit code. A process's ``ru_maxrss`` is at least the peak of
#: the process it was spawned from, and this script's grows when it
#: compares the suite's payload files.
LAUNCH = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""

#: ``dmimo.cli`` with its arguments, which then writes to stderr its own
#: ``ru_maxrss`` and its largest reaped child's (KiB).
SELF_AND_WORKERS = """\
import resource, sys
from dmimo.cli import main
code = main(sys.argv[1:])
print(*(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF,
                                                      resource.RUSAGE_CHILDREN)), file=sys.stderr)
sys.exit(code)
"""


def launch(tree: Path, *argv: str) -> tuple[float, float, str]:
    """Seconds of one ``python argv`` process of ``tree``'s dmimo, timed
    whole, its peak RSS in MB (its ``ru_maxrss``, workers included) and
    its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, *argv], cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")), capture_output=True, text=True,
        check=True,
    )
    seconds, rss_kb, code = proc.stdout.split()
    if int(code):
        raise subprocess.CalledProcessError(int(code), argv, stderr=proc.stderr)
    return float(seconds), int(rss_kb) / 1024, proc.stderr


def cli_run(tree: Path, *args: str) -> tuple[float, float]:
    """Seconds of one ``dmimo.cli`` process with ``args``, timed whole,
    and its peak RSS in MB (its ``ru_maxrss``, workers included)."""
    return launch(tree, "-m", "dmimo.cli", *args)[:2]


def configs(trees: dict, nproc: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in simulate_configs():
            config = str(path.relative_to(ROOT))
            for workers in sorted({1, nproc}):
                tps, rss = {"parent": [], "change": []}, {"parent": [], "change": []}
                for rep in range(CONFIG_REPS):
                    for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                        seconds, peak = cli_run(
                            trees[side], "simulate", "--config", config,
                            "--trials", str(CONFIG_TRIALS), "--workers", str(workers),
                            "--out", str(out[side]))
                        tps[side].append(CONFIG_TRIALS / seconds)
                        rss[side].append(peak)
                sides = {s: {q: round(x, 2) for q, x in summarize(v).items()} for s, v in tps.items()}
                identical = all(
                    (out["parent"] / name).read_bytes() == (out["change"] / name).read_bytes()
                    for name in ("results.csv", "summary.json")
                )
                row = {
                    "config": path.stem, "workers": workers, "trials": CONFIG_TRIALS,
                    "trials_per_s": dict(sides, verdict=verdict(
                        sides["parent"], sides["change"], higher=True)),
                    "peak_rss_mb": {s: {q: round(x, 1) for q, x in summarize(v).items()}
                                    for s, v in rss.items()},
                    "payload_identical": identical,
                }
                rows.append(row)
                print(json.dumps(row), flush=True)
    return rows


def pool(trees: dict, nproc: int, seed: int) -> dict:
    """Peak RSS of ``cluster_k10_pool``'s simulate process at ``nproc``
    workers, the process's own apart from its largest worker's, per side."""
    rss = {key: {"parent": [], "change": []} for key in ("parent_rss_mb", "worker_rss_mb")}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sim.yaml"
        config.write_text(json.dumps(dict(WORKLOADS["cluster_k10_pool"].simulate, seed=seed)))
        for rep in range(POOL_REPS):
            for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                stderr = launch(trees[side], "-c", SELF_AND_WORKERS, "simulate",
                                "--config", str(config), "--workers", str(nproc),
                                "--out", str(Path(tmp) / side))[2]
                own_kb, worker_kb = stderr.split()[-2:]
                rss["parent_rss_mb"][side].append(int(own_kb) / 1024)
                rss["worker_rss_mb"][side].append(int(worker_kb) / 1024)
        identical = ((Path(tmp) / "parent" / "results.csv").read_bytes()
                     == (Path(tmp) / "change" / "results.csv").read_bytes())
    row = {"workload": "cluster_k10_pool", "workers": nproc, "reps": POOL_REPS}
    for key, sides in rss.items():
        sides = {s: {q: round(x, 2) for q, x in summarize(v).items()} for s, v in sides.items()}
        row[key] = dict(sides, verdict=verdict(sides["parent"], sides["change"]))
    row["payload_identical"] = identical
    print(json.dumps(row), flush=True)
    return row


def suite(trees: dict) -> dict:
    """Wall time of the 2000-trial suite at one worker, per side."""
    wall = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(SUITE_PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                t0 = time.perf_counter()
                subprocess.run(
                    [sys.executable, "scripts/run_all_experiments.py", "--workers", "1",
                     "--out", str(Path(tmp) / side)],
                    cwd=trees[side], env=dict(os.environ, PYTHONPATH=str(trees[side] / "src")),
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


def dataset_io(trees: dict, seed: int) -> dict:
    """Seconds per dataset command and read/write call, and each dataset
    command's peak RSS in a fresh process, per side."""
    load_trees(trees)
    samples = {key: {"parent": [], "change": []}
               for key in ("generate_s", "calibrate_s", "read_cache_s", "read_parse_s", "write_s",
                           "cache_work_s", "generate_rss_mb", "calibrate_rss_mb")}

    def timed(key, side, fn, *args):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result = fn(*args)
        samples[key][side].append(time.perf_counter() - t0)
        return result

    files = ("gen/csi.csv", "gen/csi.cache", "gen/manifest.json", "cal/csi.csv", "cal/csi.cache",
             "cal/offsets.csv")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "gen.yaml"
        config.write_text(json.dumps(dict(GENERATE, hardware_offsets={"seed": seed})) + "\n")
        for rep in range(DATASET_REPS):
            for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                cli, csidata = (importlib.import_module(f"dmimo_{side}.{m}")
                                for m in ("cli", "csidata"))
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
                for command, args in (("generate", ("--config", str(config), "--out", str(gen))),
                                      ("calibrate", ("--dataset", str(gen), "--out", str(out / "cal")))):
                    rss = cli_run(trees[side], command, *args)[1]
                    samples[f"{command}_rss_mb"][side].append(rss)
        identical = all((Path(tmp) / "parent" / f).read_bytes() == (Path(tmp) / "change" / f).read_bytes()
                        for f in files)
    row = {"reps": DATASET_REPS, "grid": [GENERATE["grid"]["nx"], GENERATE["grid"]["ny"]]}
    for key, sides in samples.items():
        sides = {s: {q: round(x, 4) for q, x in summarize(v).items()} for s, v in sides.items() if v}
        if len(sides) == 2:
            sides["verdict"] = verdict(sides["parent"], sides["change"])
        row[key] = sides
    row["payload_identical"] = identical
    print(json.dumps(row), flush=True)
    return row


def placement(trees: dict, seed: int) -> list[dict]:
    """Microseconds per trial of placing a chunk of ``TRIALS`` trials and
    milliseconds of the distance pass over their UEs, per workload and side."""
    load_trees(trees)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp, cli = Path(tmp), importlib.import_module("dmimo_change.cli")
        (tmp / "gen.yaml").write_text(json.dumps(dict(GENERATE, hardware_offsets={"seed": seed})))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_generate(str(tmp / "gen.yaml"), str(tmp / "gen"))
            cli.cmd_calibrate(str(tmp / "gen"), str(tmp / "cal"))
        for name, workload in WORKLOADS.items():
            doc = dict(workload.simulate, seed=seed)
            if workload.dataset:
                doc["channel"] = dict(doc["channel"], path=str(tmp / "cal"))
            path = tmp / f"{name}.yaml"
            path.write_text(json.dumps(doc))
            sides = {}
            for side in ("parent", "change"):
                configio, scenarios, geometry = (importlib.import_module(f"dmimo_{side}.{m}")
                                                 for m in ("configio", "scenarios", "geometry"))
                cfg = configio.parse_simulate_config(path)
                sides[side] = scenarios, geometry, cfg, scenarios._make_sampler(cfg)
            samples = {"place_us_per_trial": {"parent": [], "change": []},
                       "distance_ms_per_chunk": {"parent": [], "change": []}}
            placed = {}
            for rep in range(REPS):
                for side in ("parent", "change") if rep % 2 == 0 else ("change", "parent"):
                    scenarios, geometry, cfg, sampler = sides[side]
                    t0 = time.perf_counter()
                    placed[side] = scenarios._place_chunk(cfg, range(TRIALS), sampler)
                    t1 = time.perf_counter()
                    ues = scenarios.draw_channels(cfg, range(TRIALS), sampler,
                                                  placed[side])[0].reshape(-1, 3)
                    t2 = time.perf_counter()
                    geometry.distance_phasors(cfg.geometry.antenna_positions, ues,
                                              cfg.geometry.wavelength)
                    samples["distance_ms_per_chunk"][side].append((time.perf_counter() - t2) * 1e3)
                    samples["place_us_per_trial"][side].append((t1 - t0) / TRIALS * 1e6)
            row = {"workload": name, "trials": TRIALS}
            for key, values in samples.items():
                summary = {s: {q: round(x, 4) for q, x in summarize(v).items()}
                           for s, v in values.items()}
                row[key] = dict(summary, verdict=verdict(summary["parent"], summary["change"]))
            row["placement_identical"] = placed["parent"].tobytes() == placed["change"].tobytes()
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def load_trees(trees: dict) -> None:
    """Each side's ``dmimo`` imported as ``dmimo_<side>``, once per process."""
    for side, tree in trees.items():
        if f"dmimo_{side}" not in sys.modules:
            load_tree(tree / "src", f"dmimo_{side}")


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
    chunks = scenarios._chunks(cfg)
    placements, gains = zip(*(scenarios._chunk_gains(cfg, trials, sampler) for trials in chunks))
    gain = scenarios._mean_gain(cfg, gains)
    noise_var = scenarios.noise_variance_from_floor(cfg.noise_floor_db, gain)
    sigma_points = (None,)
    if cfg.nmse_grid is not None:  # as run_scenario scales it
        scale = gain / cfg.geometry.num_antennas if cfg.nmse_relative else 1.0
        sigma_points = tuple(float(v) * scale for v in cfg.nmse_grid)
    return scenarios, cfg, sampler, noise_var, sigma_points, list(zip(chunks, placements))


def pertrial(trees: dict) -> list[dict]:
    load_trees(trees)
    rows = []
    for path in simulate_configs():
        sides = {side: trial_setup(f"dmimo_{side}", path) for side in ("parent", "change")}
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


def src_diff_sha1(parent_sha: str) -> str:
    """SHA-1 of this tree's ``src`` diff against the parent commit,
    uncommitted changes included: the same code gives the same digest
    whether or not the change is committed."""
    return hashlib.sha1(git(ROOT, "diff", parent_sha, "--", "src").encode()).hexdigest()


def change_copy(parent: Path) -> Path:
    """This tree's tracked files, as the working tree has them, copied to a
    new directory beside ``parent`` whose path is as long as ``parent``'s."""
    for char in string.ascii_lowercase + string.digits:
        dest = parent.with_name(parent.name[:-1] + char)
        if not dest.exists():
            break
    else:
        raise FileExistsError(f"no free sibling of {parent} with a path as long")
    for name in git(ROOT, "ls-files", "-z").split("\0"):
        if name and (ROOT / name).is_file():  # a deleted file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


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
    parent_sha = git(parent, "rev-parse", "HEAD").strip()
    record = {
        "parent_sha": parent_sha,
        "change_base_sha": git(ROOT, "rev-parse", "HEAD").strip(),
        "change_src_diff_sha1": src_diff_sha1(parent_sha),
        "nproc": nproc,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    trees = {"parent": parent, "change": change_copy(parent)}
    try:
        record["trees"] = {side: str(tree) for side, tree in trees.items()}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
        for workload, n in PAIRS.items():
            record["workloads"][workload], env = pairs(trees, workload, n, args.seed, seconds)
            record.update({k: v for k, v in env.items() if k != "git_sha"})
        record["configs"] = configs(trees, nproc)
        record["pool"] = pool(trees, nproc, args.seed)
        record["suite"] = suite(trees)
        record["dataset_io"] = dataset_io(trees, args.seed)
        record["placement"] = placement(trees, args.seed)
        record["pertrial_ms"] = pertrial(trees)
    finally:
        shutil.rmtree(trees["change"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
