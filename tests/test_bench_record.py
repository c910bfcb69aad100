"""The tables of ``scripts/bench_record.py`` on small configs, with this
tree as both parent and change, the copy the change runs from, and its
provenance fields."""

import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "estimation_error_sweep_k10.yaml"
TREES = {"parent": ROOT, "change": ROOT}


@pytest.fixture
def bench_record(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPS", 2)
    monkeypatch.setattr(module, "TRIALS", 33)
    monkeypatch.setattr(module, "simulate_configs", lambda: [CONFIG])
    yield module
    loaded = [n for n in sys.modules if n.split(".")[0] in ("dmimo_parent", "dmimo_change")]
    for name in loaded:
        del sys.modules[name]


def test_pertrial_runs_the_chunks_of_a_run(bench_record, monkeypatch):
    calls = []
    bench_record.load_trees(TREES)
    scenarios = importlib.import_module("dmimo_change.scenarios")
    run_chunk = scenarios.run_chunk

    def spy(config, trials, *args, placement=None):
        calls.append((trials, placement is not None))
        return run_chunk(config, trials, *args, placement=placement)

    monkeypatch.setattr(scenarios, "run_chunk", spy)
    rows = bench_record.pertrial(TREES)
    cfg = bench_record.trial_setup("dmimo_change", CONFIG)[1]
    assert [row["spec"] for row in rows] == [spec.name for spec in cfg.precoders]
    chunks = scenarios._chunks(cfg)
    assert len(chunks) > 1  # more trials than a chunk holds
    assert calls == [(c, True) for c in chunks] * len(rows) * bench_record.REPS
    for row in rows:
        assert row["config"] == CONFIG.stem and row["sigma_points"] == len(cfg.nmse_grid)
        times = row["ms_per_trial"]
        assert times["parent"]["median"] > 0 and times["change"]["median"] > 0
        assert times["verdict"] in ("faster", "slower", "overlap")


def test_configs_rows_record_each_process_peak_rss(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "CONFIG_REPS", 1)
    monkeypatch.setattr(bench_record, "CONFIG_TRIALS", 3)
    (row,) = bench_record.configs(TREES, nproc=1)
    assert row["config"] == CONFIG.stem and row["workers"] == 1 and row["payload_identical"]
    for side in ("parent", "change"):
        assert row["trials_per_s"][side]["median"] > 0
        # one simulate process with numpy loaded: tens of MB
        assert 10 < row["peak_rss_mb"][side]["median"] < 500


def test_pool_row_parts_the_peak_by_process(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "POOL_REPS", 1)
    row = bench_record.pool(TREES, nproc=2, seed=3)
    assert row["workload"] == "cluster_k10_pool" and row["workers"] == 2 and row["payload_identical"]
    for key in ("parent_rss_mb", "worker_rss_mb"):
        # the simulate process and a worker forked from it, with numpy
        # loaded: tens of MB each
        assert set(row[key]) == {"parent", "change", "verdict"}
        assert all(10 < row[key][side]["median"] < 500 for side in ("parent", "change"))


def test_cli_run_measures_the_command_alone(bench_record, tmp_path):
    # ru_maxrss of a process spawned from this one is at least this one's
    # peak, which the ballast puts above 80 MB
    ballast = np.ones(10_000_000)
    config = str(ROOT / "configs" / "generate_dataset.yaml")
    seconds, peak = bench_record.cli_run(ROOT, "generate", "--config", config, "--out", str(tmp_path))
    assert seconds > 0 and 10 < peak < 70 < ballast.nbytes / 2**20
    missing = str(tmp_path / "none")
    with pytest.raises(subprocess.CalledProcessError):
        bench_record.cli_run(ROOT, "calibrate", "--dataset", missing, "--out", str(tmp_path))


def test_dataset_io_times_both_read_paths(bench_record, monkeypatch):
    grid = dict(bench_record.GENERATE["grid"], nx=6, ny=5)
    monkeypatch.setattr(bench_record, "GENERATE", dict(bench_record.GENERATE, grid=grid))
    monkeypatch.setattr(bench_record, "DATASET_REPS", 2)
    row = bench_record.dataset_io(TREES, seed=3)
    assert row["grid"] == [6, 5] and row["payload_identical"]
    for key in ("generate_s", "calibrate_s", "read_parse_s", "write_s"):
        assert set(row[key]) == {"parent", "change", "verdict"}
        assert row[key]["parent"]["median"] > 0 and row[key]["change"]["median"] > 0
    for key in ("generate_rss_mb", "calibrate_rss_mb"):
        # one fresh process with numpy loaded: tens of MB
        assert set(row[key]) == {"parent", "change", "verdict"}
        assert all(10 < row[key][side]["median"] < 500 for side in ("parent", "change"))
    # this tree is both sides, so both write and read the cache
    assert set(row["read_cache_s"]) == {"parent", "change", "verdict"}
    assert set(row["cache_work_s"]) == {"change"}


def test_placement_rows_time_each_workload(bench_record, monkeypatch):
    grid = dict(bench_record.GENERATE["grid"], nx=6, ny=5)
    monkeypatch.setattr(bench_record, "GENERATE", dict(bench_record.GENERATE, grid=grid))
    rows = bench_record.placement(TREES, seed=3)
    assert [row["workload"] for row in rows] == list(bench_record.WORKLOADS)
    for row in rows:
        assert row["trials"] == 33 and row["placement_identical"]
        for key in ("place_us_per_trial", "distance_ms_per_chunk"):
            assert row[key]["parent"]["median"] > 0 and row[key]["change"]["median"] > 0
            assert row[key]["verdict"] in ("faster", "slower", "overlap")


def test_src_diff_hashed_against_the_parent(bench_record, monkeypatch):
    # a stubbed git, since a shallow checkout may lack the parent commit
    diff = "diff --git a/src/dmimo/precoders.py b/src/dmimo/precoders.py\n"
    calls = []
    monkeypatch.setattr(bench_record, "git", lambda tree, *args: calls.append((tree, args)) or diff)
    assert bench_record.src_diff_sha1("0123abc") == hashlib.sha1(diff.encode()).hexdigest()
    assert calls == [(ROOT, ("diff", "0123abc", "--", "src"))]


def test_no_run_uses_the_working_checkout(bench_record, monkeypatch, tmp_path):
    # every table gets the parent and a copy of this tree beside it whose
    # path is as long; the copy is gone once the record is written
    parent = tmp_path / "p27"
    (parent / "src").mkdir(parents=True)
    (tmp_path / "p2a").mkdir()  # taken: the copy takes the next free name
    git = bench_record.git
    monkeypatch.setattr(bench_record, "git", lambda tree, *args: (
        git(tree, *args) if args[0] == "ls-files" else "0123abc\n"))
    monkeypatch.setattr(bench_record, "PAIRS", {"dist_sweep_k10": 1})
    seen = []

    def table(name, result):
        def run(trees, *args):
            tree = trees["change"]
            assert (tree / "src" / "dmimo" / "precoders.py").read_bytes() == (
                ROOT / "src" / "dmimo" / "precoders.py").read_bytes()
            seen.append((name, dict(trees)))
            return result
        monkeypatch.setattr(bench_record, name, run)

    table("pairs", ({}, {"numpy": "x", "git_sha": "y"}))
    for name in ("configs", "pool", "suite", "dataset_io", "placement", "pertrial"):
        table(name, [])
    out = tmp_path / "record.json"
    assert bench_record.main(["--parent", str(parent), "--seed", "1", "--out", str(out)]) == 0
    change = tmp_path / "p2b"
    assert [name for name, _ in seen] == [
        "pairs", "configs", "pool", "suite", "dataset_io", "placement", "pertrial"]
    assert all(trees == {"parent": parent, "change": change} for _, trees in seen)
    assert len(str(change)) == len(str(parent)) and not change.exists()
    record = json.loads(out.read_text())
    assert record["trees"] == {"parent": str(parent), "change": str(change)}
    assert record["numpy"] == "x" and "git_sha" not in record
