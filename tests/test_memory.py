"""Peak memory of the dataset path, traced with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so the peak traced
during a call bounds the arrays it allocates. Every bound is a multiple
of the CSI grid's size. The grid is the benchmark's (4 tx, 64 rx, 24x24
positions, 2.4 MB of CSI), large enough that the reader's 1024-line
buffers (~0.15x here) do not dominate. A full-size temporary copy of the
grid adds at least 0.5x (its phases alone) and breaks the bound.
"""

import contextlib
import io
import pickle
import shutil
import tracemalloc

import numpy as np
import pytest

from dmimo import (
    GridSpec,
    LosChannelParams,
    ScenarioConfig,
    apply_calibration,
    default_roi,
    estimate_phase_offsets,
    generate_synthetic_dataset,
    parse_precoder_name,
    perimeter_geometry,
    read_dataset,
    write_dataset,
)
from dmimo import csidata, scenarios
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


def without_cache(dataset_dir, dest):
    dest.mkdir()
    for name in (csidata.MANIFEST_NAME, csidata.CSI_NAME):
        shutil.copy(dataset_dir / name, dest)
    return dest


@pytest.mark.parametrize("cache", ["kept", "deleted"])
def test_read_dataset_builds_one_grid(dataset_dir, dataset, tmp_path, cache):
    # the returned grid, its mask, the finiteness check and one CSV chunk
    # or the cache's digest block
    path = dataset_dir if cache == "kept" else without_cache(dataset_dir, tmp_path / "d")
    _, peak = traced_peak(read_dataset, path)
    assert peak <= 1.6 * dataset[0].csi.nbytes


def test_calibrate_command_holds_one_grid(dataset_dir, dataset, tmp_path, monkeypatch):
    # the read grid (1.06x with its mask) and the residual's LoS phases
    # and phasors (~0.64x); LoS distances from one (R, GM*GN, 3)
    # difference stack add ~0.35x, per-tx residual temporaries 0.4x
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
    assert peak <= 1.9 * dataset[0].csi.nbytes
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
    # all it holds, and all a pool worker receives: (cells, M) CSI, 1/T
    # of the grid here, and the cell positions
    assert len(pickle.dumps(sampler)) <= 0.3 * grid.csi.nbytes
