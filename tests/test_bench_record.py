"""The per-trial table of ``scripts/bench_record.py`` on a small config,
with this tree as both parent and change."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dmimo import scenarios

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "estimation_error_sweep_k10.yaml"


@pytest.fixture
def bench_record(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPS", 2)
    monkeypatch.setattr(module, "TRIALS", 4)
    monkeypatch.setattr(module, "simulate_configs", lambda: [CONFIG])
    yield module
    for name in [n for n in sys.modules if n.split(".")[0] == "dmimo_parent"]:
        del sys.modules[name]


def test_pertrial_runs_the_chunks_of_a_run(bench_record, monkeypatch):
    calls = []
    run_chunk = scenarios.run_chunk

    def spy(config, trials, *args, placement=None):
        calls.append((trials, placement is not None))
        return run_chunk(config, trials, *args, placement=placement)

    monkeypatch.setattr(scenarios, "run_chunk", spy)
    rows = bench_record.pertrial(ROOT)
    cfg = bench_record.trial_setup("dmimo", CONFIG)[1]
    assert [row["spec"] for row in rows] == [spec.name for spec in cfg.precoders]
    chunks = scenarios._chunks(cfg)
    assert len(chunks) > 1  # the sweep's chunk budget splits the trials
    assert calls == [(c, True) for c in chunks] * len(rows) * bench_record.REPS
    for row in rows:
        assert row["config"] == CONFIG.stem and row["sigma_points"] == len(cfg.nmse_grid)
        times = row["ms_per_trial"]
        assert times["parent"]["median"] > 0 and times["change"]["median"] > 0
        assert times["verdict"] in ("faster", "slower", "overlap")


def test_dataset_io_times_both_read_paths(bench_record, monkeypatch):
    grid = dict(bench_record.GENERATE["grid"], nx=6, ny=5)
    monkeypatch.setattr(bench_record, "GENERATE", dict(bench_record.GENERATE, grid=grid))
    monkeypatch.setattr(bench_record, "DATASET_REPS", 2)
    row = bench_record.dataset_io(ROOT, seed=3)
    assert row["grid"] == [6, 5] and row["payload_identical"]
    for key in ("generate_s", "calibrate_s", "read_parse_s", "write_s"):
        assert set(row[key]) == {"parent", "change", "verdict"}
        assert row[key]["parent"]["median"] > 0 and row[key]["change"]["median"] > 0
    # this tree is both sides, so both write and read the cache
    assert set(row["read_cache_s"]) == {"parent", "change", "verdict"}
    assert set(row["cache_work_s"]) == {"change"}
