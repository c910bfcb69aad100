#!/usr/bin/env python3
"""End-to-end phase-calibration walkthrough on a synthetic dataset.

Generates exact LoS CSI over a measurement grid, injects one random
hardware phase offset per (tx, rx) antenna pair, estimates the
compensation table from the data, applies it, and reports how well the
loop closes: estimated-vs-injected offset error and the residual phase
error against the theoretical LoS model. It then simulates five fully
coordinated users on the measured and on the calibrated dataset and
prints the median SINR of a CSI-built precoder (zf), which calibration
does not change, and of a location-based one (nf_nf), which needs it.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

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
    run_scenario,
    write_dataset,
)
from dmimo.calibration import mean_phase_residual, wrap_phase


def main() -> None:
    geometry = perimeter_geometry()
    params = LosChannelParams(wavelength=geometry.wavelength)
    grid_spec = GridSpec(nx=15, ny=15, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)

    grid, manifest, truth = generate_synthetic_dataset(
        geometry, grid_spec, params, tx_count=4, offsets_seed=2024
    )
    print(
        f"dataset: {grid.tx_count} tx x {grid.rx_count} rx over "
        f"{grid.grid_shape[0]}x{grid.grid_shape[1]} positions"
    )
    raw_residual = mean_phase_residual(grid, manifest.rx_positions, manifest.wavelength)
    print(f"raw mean |phase error| vs LoS:        {raw_residual:.3f} rad")

    table = estimate_phase_offsets(grid, manifest.rx_positions, manifest.wavelength)
    recovery_err = np.abs(wrap_phase(table.offsets + truth.offsets))
    print(f"offset recovery max |error|:          {recovery_err.max():.3e} rad")

    calibrated = apply_calibration(grid, table)
    residual = mean_phase_residual(calibrated, manifest.rx_positions, manifest.wavelength)
    print(f"calibrated mean |phase error| vs LoS: {residual:.3e} rad")

    specs = ("zf", "nf_nf")
    config = ScenarioConfig(
        geometry=geometry, roi=default_roi(), k_users=5, trials=200, rng_seed=1,
        precoders=tuple(map(parse_precoder_name, specs)), channel_source="dataset",
    )
    medians = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (("uncalibrated", grid), ("calibrated", calibrated)):
            write_dataset(data, manifest, Path(tmp) / name)
            summary = run_scenario(replace(config, dataset_path=str(Path(tmp) / name)))
            medians[name] = {s.precoder: s.median_db for s in summary.stats}
    print(f"median SINR, {config.k_users} users x {config.trials} trials on the dataset:")
    for spec in specs:
        print(f"  {spec:6s} uncalibrated {medians['uncalibrated'][spec]:6.2f} dB, "
              f"calibrated {medians['calibrated'][spec]:6.2f} dB")

    # with per-point phase noise the estimator still concentrates
    rng = np.random.default_rng(7)
    noisy = grid.csi * np.exp(1j * rng.normal(0.0, 0.3, grid.csi.shape))
    from dmimo import CsiGrid

    noisy_grid = CsiGrid(csi=noisy, present=grid.present, positions=grid.positions)
    noisy_table = estimate_phase_offsets(
        noisy_grid, manifest.rx_positions, manifest.wavelength
    )
    noisy_err = np.abs(wrap_phase(noisy_table.offsets + truth.offsets))
    print(
        f"under 0.3 rad phase noise ({grid.grid_shape[0] * grid.grid_shape[1]} points): "
        f"median recovery error {np.median(noisy_err):.4f} rad, "
        f"max {noisy_err.max():.4f} rad"
    )


if __name__ == "__main__":
    main()
