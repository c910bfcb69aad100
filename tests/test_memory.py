"""Peak memory of the LoS synthesis, the dataset path, the precoder
build, a runner chunk and the results writer, traced with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so the peak traced
during a call bounds the arrays it allocates. Mapped pages are not
allocations, and ``tracemalloc`` cannot see them: a grid read from
``csi.cache`` is a copy-on-write map of that file, so it is not counted,
nor are the pages that calibrating it in place copies.

Every dataset bound is a multiple of the CSI grid's size. The grid is
the benchmark's (4 tx, 64 rx, 24x24 positions, 2.4 MB of CSI), large
enough that the reader's 1024-line buffers (~0.15x here) do not
dominate. A full-size temporary copy of the grid adds at least 0.5x (its
phases alone) and breaks the bound.

The build bounds are for one precoder build on the first chunk of the
K = 10 error sweep, 32 trials, and on its first slab: 3 trials, 5
channel estimates and 8 per-AP units. Each of the slab's (trial,
estimate, unit) stacks, K x K or antennas x K, takes 150-190 KiB. The
build keeps its unit inverses in such stacks, and a location pool's once
per trial. A gathered copy of the inverse stacks per (trial, estimate)
slice breaks the slab bounds; so does a location pool's inverses copied
to every estimate. The chunk's build holds its (32, 5, 64, 10) output,
1.56 MiB, and one slab's stacks at a time; built in one piece it held
them for all 32 trials, 17.2 and 11.3 MiB.
"""

import contextlib
import io
import pickle
import shutil
import tracemalloc

import numpy as np
import pytest

from dmimo import (
    ChannelErrorModel,
    GridSpec,
    LosChannelParams,
    ScenarioConfig,
    apply_calibration,
    build_precoders,
    default_roi,
    estimate_phase_offsets,
    generate_synthetic_dataset,
    inject_channel_error,
    los_channel,
    noise_variance_from_floor,
    parse_precoder_name,
    perimeter_geometry,
    read_dataset,
    write_dataset,
)
from dmimo import cli, csidata, precoders, scenarios
from dmimo.calibration import mean_phase_residual
from dmimo.cli import cmd_calibrate


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes it held above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def generate_args():
    geometry = perimeter_geometry()
    spec = GridSpec(nx=24, ny=24, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)
    return geometry, spec, LosChannelParams(wavelength=geometry.wavelength)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    grid, manifest, _ = generate_synthetic_dataset(*generate_args(), offsets_seed=11)
    out = tmp_path_factory.mktemp("memory") / "dataset"
    write_dataset(grid, manifest, out)
    return out


@pytest.fixture(scope="module")
def dataset(dataset_dir):
    return read_dataset(dataset_dir)


def test_generate_with_offsets_builds_one_grid(dataset):
    # the returned grid (1.06x with its mask) and the LoS synthesis
    (grid, _, table), peak = traced_peak(
        generate_synthetic_dataset, *generate_args(), offsets_seed=11
    )
    assert table is not None
    np.testing.assert_array_equal(grid.csi, dataset[0].csi)
    assert peak <= 2.25 * grid.csi.nbytes


def test_los_channel_holds_no_difference_stack():
    # the 24x24 grid's (M, G) distances, phasors and their temporaries,
    # 3.2x the channel; the (M, G, 3) differences and their squares of
    # np.linalg.norm add 3x (4.0x in all)
    geometry, spec, params = generate_args()
    h, peak = traced_peak(los_channel, geometry, spec.positions().reshape(-1, 3), params)
    assert peak <= 3.5 * h.nbytes


def without_cache(dataset_dir, dest):
    dest.mkdir()
    for name in (csidata.MANIFEST_NAME, csidata.CSI_NAME):
        shutil.copy(dataset_dir / name, dest)
    return dest


@pytest.mark.parametrize(
    "cache, bound",
    [pytest.param("kept", 0.25, id="kept"), pytest.param("deleted", 1.6, id="deleted")],
)
def test_read_dataset_builds_one_grid(dataset_dir, dataset, tmp_path, cache, bound):
    # parsed: the returned grid, its mask, the finiteness check and one
    # CSV chunk; from the cache: the finiteness check's (0.06x) and the
    # absent mask's temporaries and the digest block, the grid being mapped
    path = dataset_dir if cache == "kept" else without_cache(dataset_dir, tmp_path / "d")
    _, peak = traced_peak(read_dataset, path)
    assert peak <= bound * dataset[0].csi.nbytes


def test_calibrate_command_holds_one_grid(dataset_dir, dataset, tmp_path, monkeypatch):
    # the residual's LoS phases and phasors (~0.64x); the read grid is
    # mapped from csi.cache and rotated on its private pages, untraced (a
    # heap copy of it added 1.06x with its mask); LoS distances from one
    # (R, GM*GN, 3) difference stack add ~0.35x, per-tx residual
    # temporaries 0.4x
    grids = []
    read, write = csidata.read_dataset, csidata.write_dataset

    def spy_read(path):
        out = read(path)
        grids.append(out[0])
        return out

    def spy_write(grid, manifest, path):
        grids.append(grid)
        write(grid, manifest, path)

    monkeypatch.setattr(csidata, "read_dataset", spy_read)
    monkeypatch.setattr(csidata, "write_dataset", spy_write)
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = traced_peak(cmd_calibrate, str(dataset_dir), str(tmp_path / "cal"))
    assert code == 0
    assert peak <= 0.9 * dataset[0].csi.nbytes
    # calibrated in place: the measured and calibrated CSI never coexist
    read_grid, written_grid = grids
    assert written_grid.csi is read_grid.csi


def test_apply_calibration_builds_one_grid(dataset):
    grid, manifest = dataset
    table = estimate_phase_offsets(grid, manifest.rx_positions, manifest.wavelength)
    _, peak = traced_peak(apply_calibration, grid, table)
    assert peak <= 1.5 * grid.csi.nbytes


def test_mean_phase_residual_works_per_pair(dataset):
    # the residual vector (0.5x), the LoS phases with their per-rx
    # distances and one (tx, rx) pair's temporaries; distances from one
    # (R, GM*GN, 3) difference stack took it to 1.0x
    grid, manifest = dataset
    _, peak = traced_peak(
        mean_phase_residual, grid, manifest.rx_positions, manifest.wavelength
    )
    assert peak <= 0.8 * grid.csi.nbytes


def test_dataset_sampler_keeps_one_tx_per_cell(dataset_dir, dataset):
    grid = dataset[0]
    geometry, _, _ = generate_args()
    cfg = ScenarioConfig(
        geometry=geometry,
        roi=default_roi(),
        k_users=3,
        trials=1,
        precoders=(parse_precoder_name("mrt"),),
        channel_source="dataset",
        dataset_path=str(dataset_dir),
    )
    sampler = scenarios._make_sampler(cfg)
    # all it holds, and all a forked worker inherits: (cells, M) CSI, 1/T
    # of the grid here, and the cell positions
    assert len(pickle.dumps(sampler)) <= 0.3 * grid.csi.nbytes


@pytest.fixture(scope="module")
def sweep_chunk():
    """The first chunk of a K = 10 error sweep over five NMSE points, as
    ``run_chunk`` builds it: its environment, estimates and noise
    variance."""
    cfg = ScenarioConfig(
        geometry=perimeter_geometry(),
        roi=default_roi(),
        k_users=10,
        trials=32,
        precoders=(parse_precoder_name("dis_rzf"),),
        nmse_grid=(0.0, 0.01, 0.02, 0.05, 0.1),
        nmse_relative=True,
    )
    trials = scenarios._chunks(cfg)[0]
    assert trials == range(32)
    positions, h = scenarios.draw_channels(cfg, trials)
    gain = float(np.mean(np.sum(np.abs(h) ** 2, axis=1)))
    sigmas = tuple(v * gain / cfg.geometry.num_antennas for v in cfg.nmse_grid)
    channels = np.stack(
        [inject_channel_error(h[b], ChannelErrorModel(sigmas, b))[0] for b in trials]
    )
    env = scenarios._chunk_environment(cfg, h, positions)
    return env, channels, noise_variance_from_floor(-20.0, gain)


@pytest.mark.parametrize("name,mib", [("dis_rzf", 2.4), ("dis_rmrt_nf", 1.8)])
def test_build_keeps_dense_unit_stacks(sweep_chunk, name, mib):
    # one slab, ~1.7 and ~1.3 MiB; per-slice gathered copies of the
    # inverse stacks took them to ~2.8 and ~2.4 MiB
    env, channels, noise_var = sweep_chunk
    env, channels = env.trial(slice(0, 3)), channels[:3]
    spec = parse_precoder_name(name)
    assert 3 * channels.shape[1] * 10 * (64 + 8 * 10) <= precoders.BUILD_ENTRIES  # one call
    build_precoders(spec, env, channels, noise_var)  # derives the shared location state
    (_, failures), peak = traced_peak(build_precoders, spec, env, channels, noise_var)
    assert np.equal(failures, None).all()
    assert peak <= mib * 2**20


@pytest.mark.parametrize("name,mib", [("dis_rzf", 4.0), ("dis_rmrt_nf", 3.5)])
def test_chunk_build_holds_one_slab(sweep_chunk, name, mib):
    # ~3.4 and ~3.0 MiB: the output and one slab's stacks
    env, channels, noise_var = sweep_chunk
    spec = parse_precoder_name(name)
    build_precoders(spec, env, channels, noise_var)
    (w, failures), peak = traced_peak(build_precoders, spec, env, channels, noise_var)
    assert w.shape == (32, 5, 64, 10) and np.equal(failures, None).all()
    assert peak <= mib * 2**20


def test_chunk_releases_each_spec_w():
    # the k10 sweep's four specs on one 32-trial chunk: ~5.7 MiB, the
    # (32, 5, 64, 10) estimates and W (1.56 MiB each) and the heaviest
    # build's slab; keeping the previous spec's W during the next build
    # took it to ~6.8 MiB
    cfg = ScenarioConfig(
        geometry=perimeter_geometry(),
        roi=default_roi(),
        k_users=10,
        trials=32,
        precoders=tuple(map(parse_precoder_name, ("mrt", "nf_nf", "dis_rzf", "dis_rmrt_nf"))),
        nmse_grid=(0.0, 0.01, 0.02, 0.05, 0.1),
        nmse_relative=True,
    )
    sampler = scenarios._make_sampler(cfg)
    share = scenarios._Share(cfg, sampler, scenarios._chunks(cfg))
    gain = scenarios._mean_gain(cfg, share.gains())
    (placement,) = share.placements
    sigmas = tuple(v * gain / cfg.geometry.num_antennas for v in cfg.nmse_grid)
    run = (cfg, range(32), noise_variance_from_floor(-20.0, gain), sigmas, sampler)
    (_, failures, _), peak = traced_peak(scenarios.run_chunk, *run, placement=placement)
    assert np.equal(failures, None).all()
    assert peak <= 6.2 * 2**20


def test_results_writer_formats_one_block_at_a_time(tmp_path):
    # one block of trials (64 of these 1280) as Python lists and floats
    # at a time, ~0.4x; the whole arrays at once took ~6.2x
    cfg = ScenarioConfig(
        geometry=perimeter_geometry(),
        roi=default_roi(),
        k_users=10,
        trials=1280,
        precoders=tuple(map(parse_precoder_name, ("mrt", "dis_rzf"))),
        nmse_grid=(0.0, 0.01, 0.02, 0.05, 0.1),
    )
    rng = np.random.default_rng(0)
    shape = (cfg.trials, len(cfg.nmse_grid), len(cfg.precoders))
    failures = np.where(rng.random(shape) < 0.1, "RankDeficiencyError: x", None)
    summary = scenarios.ScenarioSummary(
        config=cfg, noise_var=1.0, mean_user_gain=1.0, mean_entry_gain=1.0,
        sigma_grid=cfg.nmse_grid, stats=(), sinr_db=rng.normal(size=shape + (10,)),
        failures=failures, nmse=rng.random(shape[:2]),
    )
    _, peak = traced_peak(cli.write_results_csv, summary, tmp_path / "results.csv")
    assert peak <= 0.5 * summary.sinr_db.nbytes
