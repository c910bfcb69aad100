import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dmimo import PhaseOffsetTable, read_dataset, run_scenario, write_dataset
from dmimo import cli, scenarios
from dmimo.calibration import wrap_phase
from dmimo.cli import main
from dmimo.configio import config_document, parse_simulate_config
from dmimo.errors import DatasetFormatError

GENERATE_CFG = """\
schema_version: 1
geometry:
  kind: perimeter
  wavelength_m: 0.115
  n_aps: 2
  antennas_per_ap: 4
grid:
  nx: 6
  ny: 6
  x_min: 1.0
  x_max: 5.0
  y_min: 1.0
  y_max: 5.0
  z: 0.0
tx_count: 2
hardware_offsets:
  seed: 7
"""

SIMULATE_CFG = """\
schema_version: 1
geometry:
  kind: perimeter
users: 3
trials: 3
seed: 5
precoders: [mrt, zf, nf_nf]
"""

# Two 2-antenna APs and a RoI with a height range.
EXPLICIT_CFG = """\
schema_version: 1
geometry:
  kind: explicit
  wavelength_m: 0.115
  antenna_positions: [[0.0, 0.0, 1.0], [0.0575, 0.0, 1.0], [6.0, 0.0, 1.0], [6.0575, 0.0, 1.0]]
  ap_partition: [[0, 1], [2, 3]]
roi: {x_min: 1.0, x_max: 5.0, y_min: 1.0, y_max: 5.0, z_min: 0.0, z_max: 0.5}
users: 2
trials: 2
precoders: [mrt, zf]
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write(path, text):
    path.write_text(textwrap.dedent(text))
    return str(path)


class TestGenerate:
    def test_creates_dataset(self, tmp_path):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        out = tmp_path / "ds"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "csi.csv").exists()
        assert (out / "offsets_true.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("manifest.json", "csi.csv", "offsets_true.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_config_exits_1(self, tmp_path):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG + "unknown_key: 3\n")
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert (
            main(["generate", "--config", str(tmp_path / "nope.yaml"), "--out", "x"]) == 1
        )


class TestCalibrate:
    def test_closed_loop(self, tmp_path, capsys):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        ds = tmp_path / "ds"
        main(["generate", "--config", cfg, "--out", str(ds)])
        out = tmp_path / "cal"
        assert main(["calibrate", "--dataset", str(ds), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "mean residual phase error" in captured
        residual = float(captured.rsplit(":", 1)[1].split("rad")[0])
        assert residual < 1e-9
        # recovered offsets negate the injected ones
        true = PhaseOffsetTable.from_csv(ds / "offsets_true.csv")
        est = PhaseOffsetTable.from_csv(out / "offsets.csv")
        err = wrap_phase(est.offsets + true.offsets)
        assert np.abs(err).max() < 1e-9

    def test_already_calibrated_estimates_zero(self, tmp_path):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        ds = tmp_path / "ds"
        main(["generate", "--config", cfg, "--out", str(ds)])
        first = tmp_path / "cal1"
        second = tmp_path / "cal2"
        main(["calibrate", "--dataset", str(ds), "--out", str(first)])
        assert main(["calibrate", "--dataset", str(first), "--out", str(second)]) == 0
        est = PhaseOffsetTable.from_csv(second / "offsets.csv")
        np.testing.assert_allclose(est.offsets, 0.0, atol=1e-9)

    def test_missing_manifest_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["calibrate", "--dataset", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_calibrated_dataset_readable(self, tmp_path):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        ds = tmp_path / "ds"
        main(["generate", "--config", cfg, "--out", str(ds)])
        out = tmp_path / "cal"
        main(["calibrate", "--dataset", str(ds), "--out", str(out)])
        grid, manifest = read_dataset(out)
        assert grid.tx_count == 2

    def test_in_place_equals_fresh_directory(self, tmp_path):
        # the read grid maps ds/csi.cache while the command rewrites it
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        ds, fresh = tmp_path / "ds", tmp_path / "cal"
        main(["generate", "--config", cfg, "--out", str(ds)])
        assert main(["calibrate", "--dataset", str(ds), "--out", str(fresh)]) == 0
        assert main(["calibrate", "--dataset", str(ds), "--out", str(ds)]) == 0
        names = ["csi.cache", "csi.csv", "manifest.json", "offsets.csv"]
        assert sorted(os.listdir(ds)) == sorted(names + ["offsets_true.csv"])  # no temporary file
        for name in names:
            assert (ds / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize(
        "exc, raised", [(OSError, DatasetFormatError), (RuntimeError, RuntimeError)]
    )
    def test_failed_write_leaves_previous_files(self, tmp_path, monkeypatch, exc, raised):
        cfg = write(tmp_path / "gen.yaml", GENERATE_CFG)
        ds = tmp_path / "ds"
        main(["generate", "--config", cfg, "--out", str(ds)])
        before = {p.name: p.read_bytes() for p in ds.iterdir()}
        grid, manifest = read_dataset(ds)
        grid = dataclasses.replace(grid, csi=1j * grid.csi)
        save, calls = np.save, []

        def fail_second(*args, **kwargs):  # csi.cache's present payload
            calls.append(args)
            if len(calls) == 2:
                raise exc("disk full")
            save(*args, **kwargs)

        monkeypatch.setattr(np, "save", fail_second)
        with pytest.raises(raised, match="disk full"):
            write_dataset(grid, manifest, ds)
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in ds.iterdir()} == before


class TestSimulate:
    def test_outputs_exist_and_parse(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,user,precoder,sinr_db,nmse"
        assert len(rows) - 1 == 3 * 3 * 3  # trials x precoders x users
        doc = json.loads((out / "summary.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["noise_var"] > 0
        assert doc["config"]["users"] == 3
        assert {p["precoder"] for p in doc["precoders"]} == {"mrt", "zf", "nf_nf"}
        for p in doc["precoders"]:
            assert p["failure_rate"] == 0.0
            assert p["cdf"]["sinr_db"] == sorted(p["cdf"]["sinr_db"])

    def test_deterministic_outputs(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        out = tmp_path / "o"
        assert main(
            ["simulate", "--config", cfg, "--out", str(out), "--trials", "2", "--seed", "9"]
        ) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["trials"] == 2
        assert doc["config"]["seed"] == 9

    def test_noise_line_names_trial_count(self, tmp_path, capsys):
        # noise_var depends on the trial count, so stdout says which
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        for extra, trials in (([], 3), (["--trials", "2"], 2)):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")] + extra) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert first.startswith("noise_var = ")
            assert first.endswith(f"dB vs mean received power over {trials} trials)")

    def test_results_csv_rows_follow_arrays(self, tmp_path, monkeypatch):
        # rows run trial, sigma point, precoder, user; failed builds are
        # omitted; nmse is the trial's realized value at that sigma point
        cfg = write(
            tmp_path / "sim.yaml",
            SIMULATE_CFG.replace("users: 3", "users: 10").replace(
                "[mrt, zf, nf_nf]", "[mrt, dis_zf, dis_rzf]"
            )
            + "nmse_grid:\n  values: [0.0, 0.1]\n  relative: true\n",
        )
        summary = run_scenario(parse_simulate_config(cfg))
        assert summary.sinr_db.shape == (3, 2, 3, 10)
        failed = np.not_equal(summary.failures, None)
        assert failed[:, :, 1].all() and not failed[:, :, [0, 2]].any()
        expected = ["trial,user,precoder,sinr_db,nmse"]
        for t in range(3):
            for s in range(2):
                for p, name in enumerate(["mrt", "dis_zf", "dis_rzf"]):
                    if failed[t, s, p]:
                        continue
                    nmse = repr(float(summary.nmse[t, s]))
                    for k in range(10):
                        value = repr(float(summary.sinr_db[t, s, p, k]))
                        expected.append(f"{t},{k},{name},{value},{nmse}")
        for block in (1, 2, cli.RESULTS_BLOCK):  # blocks of trials do not show
            monkeypatch.setattr(cli, "RESULTS_BLOCK", block)
            cli.write_results_csv(summary, tmp_path / "results.csv")
            assert (tmp_path / "results.csv").read_text() == "\n".join(expected) + "\n"

    def test_zero_trials_exits_1(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        assert main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--trials", "0"]
        ) == 1

    def test_unknown_key_exits_1(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG + "typo_key: true\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_zero_alpha_exits_1(self, tmp_path, capsys):
        entry = "{name: myrzf, base: mrt, suppression: csi, regularized: true, alpha: 0}"
        cfg = write(
            tmp_path / "sim.yaml",
            SIMULATE_CFG.replace("[mrt, zf, nf_nf]", f"[mrt, {entry}]"),
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "alpha must be > 0" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def singular(config):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run_scenario", singular)
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "dmimo: numerical failure: Singular matrix\n"

    def test_unknown_precoder_exits_1(self, tmp_path):
        cfg = write(
            tmp_path / "sim.yaml", SIMULATE_CFG.replace("[mrt, zf, nf_nf]", "[mmse]")
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_sweep_outputs_identical_across_reruns_and_workers(self, tmp_path):
        # location-only precoders are built once per trial and reused at
        # every error level; the payload files must not notice
        cfg = write(
            tmp_path / "sim.yaml",
            SIMULATE_CFG.replace("[mrt, zf, nf_nf]", "[mrt, nf_nf, dis_rzf, dis_nf_nf]")
            + "nmse_grid:\n  values: [0.0, 0.05, 0.1]\n  relative: true\n",
        )
        runs = {}
        for label, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / label
            assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            runs[label] = (out / "results.csv").read_bytes(), (out / "summary.json").read_bytes()
        assert runs["a"] == runs["b"]
        assert runs["a"][0] == runs["c"][0]
        docs = [json.loads(runs[label][1]) for label in "ac"]
        assert [doc["config"].pop("workers") for doc in docs] == [1, 2]
        assert docs[0] == docs[1]

    def test_workers_flag_identical_results(self, tmp_path):
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["simulate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--workers", "2"]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    @pytest.mark.parametrize("failure", ["placement", "one-worker"])
    def test_worker_failure_exits_as_serial(self, tmp_path, capsys, monkeypatch, failure):
        # a failure in a forked worker reaches the CLI as at one worker:
        # the same exit code and message, and no child is left
        if failure == "placement":  # a 2x2 grid cannot hold 5 distinct users
            gen = write(tmp_path / "gen.yaml", GENERATE_CFG.replace("nx: 6\n  ny: 6", "nx: 2\n  ny: 2"))
            assert main(["generate", "--config", gen, "--out", str(tmp_path / "ds")]) == 0
            text = _in_geometry(SIMULATE_CFG, "n_aps: 2\n  antennas_per_ap: 4")
            text = text.replace("users: 3", "users: 5")
            text += f"channel:\n  source: dataset\n  path: {tmp_path / 'ds'}\n"
        else:  # trial 2 runs in the first of two workers
            run_chunk = scenarios.run_chunk

            def failing(config, trials, *args, **kwargs):
                if 2 in trials:
                    raise np.linalg.LinAlgError("Singular matrix in trial 2")
                return run_chunk(config, trials, *args, **kwargs)

            monkeypatch.setattr(scenarios, "run_chunk", failing)
            text = SIMULATE_CFG
        cfg = write(tmp_path / "sim.yaml", text)
        capsys.readouterr()
        outcomes = []
        for workers in ("1", "2"):
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / workers), "--workers", workers]
            outcomes.append((main(argv), capsys.readouterr().err))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3 and "numerical failure" in outcomes[0][1]

    def test_text_printed_before_a_forked_run_appears_once(self, tmp_path):
        # on a block-buffered stdout (as to a pipe, unless
        # PYTHONUNBUFFERED is set), a worker forked with the line still in
        # the buffer would write it again
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        script = ("import sys; from dmimo.cli import main; sys.stdout = open(1, 'w', closefd=False); "
                  "print('before the run'); main(sys.argv[1:]); sys.stdout.flush()")
        out = _python("-c", script, "simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                      "--workers", "2")
        assert out.count("before the run") == 1 and out.count("wrote ") == 1

    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    def test_summary_reruns_as_config(self, tmp_path, dataset):
        # summary.json's config section is a simulate config: re-running
        # it, CLI overrides included, reproduces both payload files
        text = SIMULATE_CFG.replace("[mrt, zf, nf_nf]", "[mrt, nf_nf, dis_rzf]")
        text += "nmse_grid:\n  values: [0.0, 0.05]\n  relative: true\n"
        if dataset:
            gen = write(tmp_path / "gen.yaml", GENERATE_CFG)
            assert main(["generate", "--config", gen, "--out", str(tmp_path / "ds")]) == 0
            text = _in_geometry(text, "n_aps: 2\n  antennas_per_ap: 4")
            text += f"channel:\n  source: dataset\n  path: {tmp_path / 'ds'}\n"
        cfg = write(tmp_path / "sim.yaml", text)
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "--config", cfg, "--out", str(a), "--trials", "2", "--seed", "11"]
        assert main(argv) == 0
        assert main(["simulate", "--config", str(a / "summary.json"), "--out", str(b)]) == 0
        for name in ("results.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _python(*argv) -> str:
    """stdout of ``python argv...`` run on this checkout's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


class TestSimulateImports:
    @pytest.mark.parametrize("dataset", [False, True], ids=["synthetic", "dataset"])
    def test_simulate_leaves_numpy_ma_unloaded(self, tmp_path, dataset):
        # numpy 2 imports numpy.ma lazily, on the first np.median,
        # np.quantile or plain np.unique (~20 ms); a simulate run, CDF
        # decimation and dataset snapping included, needs none of them
        loaded = "import sys; print('numpy.ma' in sys.modules)"
        if _python("-c", "import numpy; " + loaded).strip() == "True":
            pytest.skip("importing numpy already imports numpy.ma")
        text = SIMULATE_CFG
        if dataset:
            gen = write(tmp_path / "gen.yaml", GENERATE_CFG)
            assert main(["generate", "--config", gen, "--out", str(tmp_path / "ds")]) == 0
            text = _in_geometry(text, "n_aps: 2\n  antennas_per_ap: 4")
            text += f"channel:\n  source: dataset\n  path: {tmp_path / 'ds'}\n"
        cfg = write(tmp_path / "sim.yaml", text)
        run = "import sys; from dmimo.cli import main; assert main(sys.argv[1:]) == 0; "
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--trials", "200"]
        assert _python("-c", run + loaded, *argv).splitlines()[-1] == "False"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["precoders"][0]["cdf"]["sinr_db"]) == 512  # 600 samples decimated


class TestImports:
    def test_cli_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL (~3 MB resident); only reading and writing
        # csi.cache need it, so csidata imports it there
        loaded = "import sys; print('hashlib' in sys.modules)"
        if _python("-c", "import numpy; " + loaded).strip() == "True":
            pytest.skip("importing numpy already imports hashlib")
        assert _python("-c", "import dmimo.cli; " + loaded).strip() == "False"

    POOL_MODULES = (
        "import sys; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )

    def test_import_leaves_process_pool_unloaded(self):
        # multiprocessing brings socket, subprocess, pickle and threading
        # (~1.5 MB resident); no dmimo command needs it
        assert _python("-c", "import dmimo; " + self.POOL_MODULES).strip() == "[]"

    def test_forked_simulate_leaves_process_pool_unloaded(self, tmp_path):
        # a run at workers > 1 forks its workers itself, and its parent
        # only coordinates: it places no user, so loads no numpy.random
        cfg = write(tmp_path / "sim.yaml", SIMULATE_CFG)
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2"]
        script = (f"from dmimo.cli import main; assert main({argv!r}) == 0; "
                  f"{self.POOL_MODULES}; print('numpy.random' in sys.modules)")
        assert _python("-c", script).splitlines()[-2:] == ["[]", "False"]

    def test_unpooled_commands_leave_process_pool_unloaded(self, tmp_path):
        # generate, calibrate and a workers=1 simulate on the calibrated
        # dataset, in one process
        gen = write(tmp_path / "gen.yaml", GENERATE_CFG)
        text = _in_geometry(SIMULATE_CFG, "n_aps: 2\n  antennas_per_ap: 4")
        text += f"channel:\n  source: dataset\n  path: {tmp_path / 'cal'}\n"
        sim = write(tmp_path / "sim.yaml", text)
        run = "; ".join(f"assert main({argv!r}) == 0" for argv in [
            ["generate", "--config", gen, "--out", str(tmp_path / "ds")],
            ["calibrate", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "cal")],
            ["simulate", "--config", sim, "--out", str(tmp_path / "out"), "--workers", "1"],
        ])
        script = f"from dmimo.cli import main; {run}; {self.POOL_MODULES}"
        assert _python("-c", script).splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "summary.json").exists()


def _in_geometry(text, line):
    return text.replace("kind: perimeter", f"kind: perimeter\n  {line}")


def _with_key(key, value):
    return SIMULATE_CFG + f"{key}: {value}\n"


def _bad_precoder(field):
    entry = f"{{name: myrzf, base: mrt, suppression: csi, {field}}}"
    return SIMULATE_CFG.replace("[mrt, zf, nf_nf]", f"[mrt, {entry}]")


MALFORMED = [
    pytest.param("simulate", SIMULATE_CFG.replace("users: 3", "users: abc"),
                 "users must be an integer, got 'abc'", id="users-string"),
    pytest.param("simulate", SIMULATE_CFG.replace("seed: 5", "seed: x"),
                 "seed must be an integer, got 'x'", id="seed-string"),
    pytest.param("simulate", SIMULATE_CFG.replace("users: 3", "users: [1, 2]"),
                 "users must be an integer, got [1, 2]", id="users-list"),
    pytest.param("simulate", SIMULATE_CFG.replace("users: 3", "users: 2.7"),
                 "users must be an integer, got 2.7", id="users-float"),
    pytest.param("simulate", SIMULATE_CFG.replace("users: 3", "users: true"),
                 "users must be an integer, got True", id="users-bool"),
    pytest.param("simulate", _with_key("noise_floor_db", "null"),
                 "noise_floor_db must be a number, got None", id="noise-floor-null"),
    pytest.param("simulate", SIMULATE_CFG.replace("[mrt, zf, nf_nf]", "5"),
                 "precoders must be a list, got 5", id="precoders-int"),
    pytest.param("simulate", _with_key("nmse_grid", "{values: 5}"),
                 "values must be a list, got 5", id="nmse-grid-values-int"),
    pytest.param("simulate", _with_key("clustering", "{pairs: 3}"),
                 "pairs must be a list, got 3", id="clustering-pairs-int"),
    pytest.param("simulate", _bad_precoder('regularized: "no"'),
                 "regularized must be true or false, got 'no'", id="regularized-string"),
    pytest.param("simulate", _bad_precoder("regularized: true, alpha: abc"),
                 "alpha must be a number, got 'abc'", id="alpha-string"),
    pytest.param("generate", GENERATE_CFG.replace("tx_count: 2", "tx_count: abc"),
                 "tx_count must be an integer, got 'abc'", id="tx-count-string"),
    # invalid geometry is a config error (exit 1), not a numerical failure
    pytest.param("simulate", _in_geometry(SIMULATE_CFG, "n_aps: 0"),
                 "geometry: need at least one AP", id="n-aps-zero"),
    pytest.param("simulate", _in_geometry(SIMULATE_CFG, "wavelength_m: -1"),
                 "geometry: wavelength must be > 0", id="negative-wavelength"),
    pytest.param("simulate", EXPLICIT_CFG.replace("[[0, 1], [2, 3]]", "[[0, 1], [2]]"),
                 "geometry: ap_partition must cover", id="partition-misses-antenna"),
    pytest.param("simulate", EXPLICIT_CFG.replace("x_min: 1.0", "x_min: 5.5"),
                 "roi: box must satisfy lo <= hi", id="roi-x-min-above-x-max"),
    pytest.param("generate", GENERATE_CFG.replace("nx: 6", "nx: 0"),
                 "grid needs nx >= 1", id="grid-nx-zero"),
    pytest.param("calibrate", GENERATE_CFG.replace("n_aps: 2", "n_aps: 0"),
                 "geometry: need at least one AP", id="calibrate-override-n-aps-zero"),
    # range checks name the YAML key, not the ScenarioConfig field
    pytest.param("simulate", SIMULATE_CFG.replace("users: 3", "users: 0"),
                 "config error: users must be >= 1, got 0", id="users-zero"),
    pytest.param("simulate", SIMULATE_CFG.replace("seed: 5", "seed: -1"),
                 "config error: seed must be >= 0, got -1", id="seed-negative"),
    pytest.param("simulate", _with_key("channel", "{source: measured}"),
                 "config error: channel.source must be one of", id="channel-source-unknown"),
    pytest.param("simulate", _with_key("channel", "{source: dataset}"),
                 "config error: channel.source 'dataset' requires channel.path",
                 id="channel-path-missing"),
    pytest.param("simulate", _with_key("nmse_grid", "{values: [0.0, .nan]}"),
                 "config error: nmse_grid.values must be finite and >= 0",
                 id="nmse-grid-nan"),
    # invalid numeric ranges, NaN included, are config errors
    pytest.param("simulate", _with_key("min_spacing_m", ".nan"),
                 "config error: min_spacing_m must be finite and >= 0, got nan",
                 id="min-spacing-nan"),
    pytest.param("simulate", _with_key("min_spacing_m", "-0.1"),
                 "config error: min_spacing_m must be finite and >= 0, got -0.1",
                 id="min-spacing-negative"),
    *[
        pytest.param("simulate", _with_key("reference_gain", value),
                     f"config error: reference_gain must be finite and > 0, got {shown}",
                     id=f"reference-gain-{name}")
        for name, value, shown in (("negative", "-1", "-1.0"), ("zero", "0", "0.0"),
                                   ("inf", ".inf", "inf"), ("nan", ".nan", "nan"))
    ],
    pytest.param("simulate", _bad_precoder("regularized: true, alpha: .inf"),
                 "config error: alpha must be > 0 and finite, got inf", id="alpha-inf"),
    pytest.param("generate", GENERATE_CFG + "reference_gain: -1\n",
                 "reference_gain must be finite and > 0, got -1.0",
                 id="generate-reference-gain-negative"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("command,text,message", MALFORMED)
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, text, message):
        cfg = write(tmp_path / "bad.yaml", text)
        out = str(tmp_path / "out")
        argv = [command, "--config", cfg, "--out", out]
        if command == "calibrate":
            ds = str(tmp_path / "ds")
            assert main(["generate", "--config", write(tmp_path / "gen.yaml", GENERATE_CFG),
                         "--out", ds]) == 0
            argv += ["--dataset", ds]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("dmimo: config error: ") and message in err, err


def _assert_same_config(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "geometry":
            assert np.array_equal(x.antenna_positions, y.antenna_positions)
            assert (x.ap_partition, x.wavelength) == (y.ap_partition, y.wavelength)
        elif field.name == "roi":
            assert np.array_equal(x.lo, y.lo) and np.array_equal(x.hi, y.hi)
        else:
            assert x == y, field.name


ROUND_TRIP = {
    **{
        p.stem: p.read_text()
        for p in sorted(CONFIGS.glob("*.yaml"))
        if p.stem != "generate_dataset"
    },
    "explicit-z-range": EXPLICIT_CFG,
    "explicit-alpha": SIMULATE_CFG.replace(
        "[mrt, zf, nf_nf]",
        "[mrt, {name: myrzf, base: mrt, suppression: csi, regularized: true, alpha: 1e-7}]",
    ),
    "clustering": SIMULATE_CFG + "clustering:\n  pairs: [[0, 1], [2, 3], [4, 5], [6, 7]]\n",
    "dataset": SIMULATE_CFG + "channel:\n  source: dataset\n  path: data/calibrated\n",
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", list(ROUND_TRIP))
    def test_config_document_parses_back(self, tmp_path, name):
        config = parse_simulate_config(write(tmp_path / "cfg.yaml", ROUND_TRIP[name]))
        doc = config_document(config)
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        again = parse_simulate_config(tmp_path / "doc.json")
        _assert_same_config(again, config)
        assert config_document(again) == doc

    def test_alpha_exponent_read_as_float(self, tmp_path):
        config = parse_simulate_config(write(tmp_path / "c.yaml", ROUND_TRIP["explicit-alpha"]))
        assert config.precoders[1].alpha == 1e-7


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["simulate", "--nope", "x"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["simulate"]) == 1


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name,n_precoders",
        [
            ("full_coordination_k5", 6),
            ("distributed_k5", 6),
            ("distributed_k10", 5),
            ("estimation_error_sweep_k5", 6),
            ("estimation_error_sweep_k10", 4),
            ("clustering_k10", 4),
        ],
    )
    def test_scenario_configs_parse_and_validate(self, name, n_precoders):
        from pathlib import Path

        from dmimo.configio import parse_simulate_config
        from dmimo.scenarios import validate_config

        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml"
        config = parse_simulate_config(path)
        validate_config(config)
        assert len(config.precoders) == n_precoders
        assert config.trials == 2000

    def test_generate_config_parses(self):
        from pathlib import Path

        from dmimo.configio import parse_generate_config

        path = Path(__file__).resolve().parent.parent / "configs" / "generate_dataset.yaml"
        geometry, grid_spec, params, tx_count, offsets_seed = parse_generate_config(path)
        assert geometry.num_antennas == 64
        assert grid_spec.nx == grid_spec.ny == 20
        assert tx_count == 4
        assert offsets_seed == 7
