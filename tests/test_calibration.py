import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dmimo import (
    CsiGrid,
    GridSpec,
    LosChannelParams,
    PhaseOffsetTable,
    apply_calibration,
    estimate_phase_offset,
    estimate_phase_offsets,
    generate_synthetic_dataset,
    inject_hardware_offsets,
    parse_precoder_name,
    perimeter_geometry,
    read_dataset,
    run_scenario,
    write_dataset,
)
from dmimo import scenarios
from dmimo.calibration import (
    mean_phase_residual,
    theoretical_los_phases,
    wrap_phase,
)
from dmimo.cli import main
from dmimo.configio import parse_simulate_config
from dmimo.errors import CoverageError, NoDataError, UnidentifiableError
from dmimo.geometry import los_phase


def los_slice(rng, n=100):
    """A synthetic single-pair LoS slice with irregular phases."""
    phases = rng.uniform(-40 * np.pi, 40 * np.pi, n)
    return np.exp(1j * phases)


class TestEstimatePhaseOffset:
    def test_identical_slices(self, rng):
        los = los_slice(rng)
        assert estimate_phase_offset(los, los) == pytest.approx(0.0, abs=1e-12)

    def test_known_offset_recovered(self, rng):
        los = los_slice(rng)
        emp = np.exp(1j * 0.7) * los
        assert estimate_phase_offset(emp, los) == pytest.approx(-0.7, abs=1e-12)

    def test_noisy_offset_concentrates(self):
        # 100 points, 0.3 rad phase noise: estimate within 0.05 of -0.7
        rng = np.random.default_rng(2024)
        los = los_slice(rng)
        noise = rng.normal(0.0, 0.3, los.shape)
        emp = np.exp(1j * (0.7 + noise)) * los
        est = estimate_phase_offset(emp, los)
        assert est == pytest.approx(-0.7, abs=0.05)

    def test_magnitude_invariance(self, rng):
        los = los_slice(rng)
        emp = np.exp(1j * 1.3) * los
        scales = rng.uniform(0.01, 100.0, los.shape)
        a = estimate_phase_offset(emp, los)
        b = estimate_phase_offset(scales * emp, (2.0 * scales) * los)
        assert a == pytest.approx(b, abs=1e-12)

    def test_missing_points_skipped(self, rng):
        los = los_slice(rng)
        emp = np.exp(1j * 0.4) * los
        emp_corrupt = emp.copy()
        emp_corrupt[50:] = np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
        present = np.zeros(los.shape, dtype=bool)
        present[:50] = True
        est = estimate_phase_offset(emp_corrupt, los, present)
        assert est == pytest.approx(-0.4, abs=1e-12)

    def test_empty_slice(self, rng):
        los = los_slice(rng, 4)
        with pytest.raises(NoDataError):
            estimate_phase_offset(los, los, present=np.zeros(4, dtype=bool))

    def test_contradictory_phases_unidentifiable(self):
        los = np.array([1.0 + 0j, 1.0 + 0j])
        emp = np.array([1.0 + 0j, -1.0 + 0j])  # phasor sum is exactly zero
        with pytest.raises(UnidentifiableError):
            estimate_phase_offset(emp, los)

    def test_range(self, rng):
        los = los_slice(rng)
        for true in (3.0, -3.0, np.pi):
            est = estimate_phase_offset(np.exp(1j * true) * los, los)
            assert -np.pi < est <= np.pi
            assert wrap_phase(est + true) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_minimizes_mse_objective(self, rng):
        # brute-force scan of the mean-squared phasor error over 1e6
        # candidates on a 16-point slice: nothing beats the closed form
        los = los_slice(rng, 16)
        emp = np.exp(1j * (rng.uniform(-np.pi, np.pi))) * los * rng.uniform(
            0.1, 3.0, 16
        )
        est = estimate_phase_offset(emp, los)

        def objective(phi):
            terms = np.exp(1j * np.angle(los))[None, :] - np.exp(
                1j * np.asarray(phi)[:, None]
            ) * np.exp(1j * np.angle(emp))[None, :]
            return np.sum(np.abs(terms) ** 2, axis=1)

        best = objective(np.array([est]))[0]
        candidates = np.linspace(-np.pi, np.pi, 1_000_000, endpoint=False)
        for chunk in np.array_split(candidates, 20):
            assert objective(chunk).min() >= best - 1e-9


@pytest.fixture
def offset_dataset():
    geometry = perimeter_geometry(n_aps=2, antennas_per_ap=8)
    params = LosChannelParams(wavelength=geometry.wavelength)
    spec = GridSpec(nx=10, ny=10, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0, z=0.0)
    grid, manifest, table = generate_synthetic_dataset(
        geometry, spec, params, tx_count=4, offsets_seed=77
    )
    return geometry, grid, manifest, table


class TestCalibrationPipeline:
    def test_injection_preserves_magnitudes(self, offset_dataset):
        geometry, grid, manifest, table = offset_dataset
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=10, ny=10, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0, z=0.0)
        clean, _, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=4)
        np.testing.assert_allclose(np.abs(grid.csi), np.abs(clean.csi), atol=1e-15)

    def test_injection_deterministic(self, offset_dataset):
        geometry, grid, manifest, table = offset_dataset
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=10, ny=10, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0, z=0.0)
        clean, _, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=4)
        again, table2 = inject_hardware_offsets(clean, 77)
        np.testing.assert_array_equal(table.offsets, table2.offsets)
        np.testing.assert_array_equal(grid.csi, again.csi)

    def test_offsets_in_range(self, offset_dataset):
        _, _, _, table = offset_dataset
        assert np.all(table.offsets > -np.pi) and np.all(table.offsets <= np.pi)

    def test_estimate_recovers_negated_injection(self, offset_dataset):
        geometry, grid, manifest, table = offset_dataset
        est = estimate_phase_offsets(grid, manifest.rx_positions, manifest.wavelength)
        err = wrap_phase(est.offsets + table.offsets)
        assert np.abs(err).max() < 1e-9

    def test_closed_loop_recovery(self, offset_dataset):
        geometry, grid, manifest, table = offset_dataset
        est = estimate_phase_offsets(grid, manifest.rx_positions, manifest.wavelength)
        calibrated = apply_calibration(grid, est)
        residual = mean_phase_residual(
            calibrated, manifest.rx_positions, manifest.wavelength
        )
        assert residual < 1e-9
        los = theoretical_los_phases(
            manifest.rx_positions, grid.positions, manifest.wavelength
        )
        diff = wrap_phase(np.angle(calibrated.csi) - los[None, :, :, :])
        assert np.abs(diff).max() < 1e-9

    def test_residual_equals_whole_grid_expression(self, offset_dataset, rng):
        # computed one tx block at a time; the reference is the
        # whole-grid expression it replaced, and must match bit for bit
        _, grid, manifest, _ = offset_dataset
        grid = dataclasses.replace(grid, present=rng.uniform(size=grid.csi.shape) < 0.7)
        los = theoretical_los_phases(
            manifest.rx_positions, grid.positions, manifest.wavelength
        )
        diff = np.angle(grid.csi) - los[None, :, :, :]
        reference = float(np.abs(wrap_phase(diff)[grid.present]).mean())
        residual = mean_phase_residual(grid, manifest.rx_positions, manifest.wavelength)
        assert residual == reference > 0.1

    @pytest.mark.parametrize("antennas_per_ap,nx", [(8, 24), (3, 7)])
    def test_los_phases_equal_batched_distances(self, antennas_per_ap, nx):
        # distances one rx antenna at a time; the reference is the batched
        # (R, GM*GN, 3) expression they replaced, and must match bit for bit
        geometry = perimeter_geometry(antennas_per_ap=antennas_per_ap)
        grid = GridSpec(nx=nx, ny=nx, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75,
                        z=0.3).positions()
        rx = geometry.antenna_positions
        d = np.linalg.norm(grid.reshape(-1, 3)[None, :, :] - rx[:, None, :], axis=2)
        reference = los_phase(d, geometry.wavelength).reshape(len(rx), nx, nx)
        phases = theoretical_los_phases(rx, grid, geometry.wavelength)
        assert phases.shape == reference.shape
        np.testing.assert_array_equal(phases.view(np.uint64), reference.view(np.uint64))

    def test_apply_involution(self, offset_dataset):
        _, grid, _, table = offset_dataset
        roundtrip = apply_calibration(apply_calibration(grid, table), table.negated())
        np.testing.assert_allclose(roundtrip.csi, grid.csi, atol=1e-12)

    def test_zero_table_identity(self, offset_dataset):
        _, grid, _, _ = offset_dataset
        zero = PhaseOffsetTable(np.zeros((grid.tx_count, grid.rx_count)))
        np.testing.assert_array_equal(apply_calibration(grid, zero).csi, grid.csi)

    def test_coverage_error(self, offset_dataset):
        _, grid, _, _ = offset_dataset
        short = PhaseOffsetTable(np.zeros((grid.tx_count - 1, grid.rx_count)))
        with pytest.raises(CoverageError):
            apply_calibration(grid, short)

    def test_missing_pair_reported(self, offset_dataset):
        _, grid, manifest, _ = offset_dataset
        present = grid.present.copy()
        present[1, 3] = False  # entire pair missing
        broken = CsiGrid(csi=grid.csi, present=present, positions=grid.positions)
        with pytest.raises(UnidentifiableError) as err:
            estimate_phase_offsets(broken, manifest.rx_positions, manifest.wavelength)
        assert (1, 3) in err.value.pairs

    def test_table_csv_roundtrip(self, offset_dataset, tmp_path):
        _, _, _, table = offset_dataset
        path = tmp_path / "offsets.csv"
        table.to_csv(path)
        loaded = PhaseOffsetTable.from_csv(path)
        np.testing.assert_array_equal(loaded.offsets, table.offsets)

    def test_noisy_closed_loop(self):
        # 0.3 rad per-point phase noise, 100 grid points: at least 95 % of
        # pairs recover their offset within 0.05 rad (fixed witness seed)
        geometry = perimeter_geometry(n_aps=8, antennas_per_ap=8)
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=10, ny=10, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, manifest, table = generate_synthetic_dataset(
            geometry, spec, params, tx_count=1, offsets_seed=11
        )
        noise_rng = np.random.default_rng(15)
        noisy = CsiGrid(
            csi=grid.csi * np.exp(1j * noise_rng.normal(0.0, 0.3, grid.csi.shape)),
            present=grid.present,
            positions=grid.positions,
        )
        est = estimate_phase_offsets(noisy, manifest.rx_positions, manifest.wavelength)
        err = np.abs(wrap_phase(est.offsets + table.offsets))
        assert (err <= 0.05).mean() >= 0.95


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ORACLE_SPECS = ("mrt", "zf", "rzf", "nf", "nf_nf", "mrt_nf", "zf_nf")
#: Specs built from CSI alone: under full coordination zf_nf holds every
#: user's CSI and suppresses through it.
CSI_ONLY = [ORACLE_SPECS.index(n) for n in ("mrt", "zf", "rzf", "zf_nf")]


@pytest.fixture(scope="module")
def measured_csi(tmp_path_factory):
    """The bundled generate config's dataset, measured (with hardware
    offsets) and calibrated, and full_coordination_k5 with the oracle
    specs run on each in dataset mode."""
    root = tmp_path_factory.mktemp("oracle")
    generate = str(CONFIGS / "generate_dataset.yaml")
    assert main(["generate", "--config", generate, "--out", str(root / "measured")]) == 0
    assert main(["calibrate", "--dataset", str(root / "measured"),
                 "--out", str(root / "calibrated")]) == 0
    config = dataclasses.replace(
        parse_simulate_config(CONFIGS / "full_coordination_k5.yaml"),
        trials=100, precoders=tuple(map(parse_precoder_name, ORACLE_SPECS)),
        channel_source="dataset",
    )
    runs = {name: run_scenario(dataclasses.replace(config, dataset_path=str(root / name)))
            for name in ("measured", "calibrated")}
    return root, runs


def _medians(summary):
    return {s.precoder: s.median_db for s in summary.stats}


class TestCalibrationOracle:
    """The paper's claim on measured CSI: location-based suppression needs
    the hardware phase calibration, and CSI-built precoders do not."""

    def test_calibrated_dataset_is_the_los_model(self, measured_csi):
        # the synthetic LoS channels at the snapped positions, with the
        # same noise variance, give every SINR of the calibrated dataset
        _, runs = measured_csi
        calibrated = runs["calibrated"]
        config = calibrated.config
        sampler = scenarios._make_sampler(config)
        trials = range(config.trials)
        positions = scenarios.draw_channels(config, trials, sampler)[0]
        los = dataclasses.replace(config, channel_source="synthetic", dataset_path=None)
        sinr_db, failures, _ = scenarios.run_chunk(los, trials, calibrated.noise_var,
                                                   placement=positions)
        assert np.equal(failures, None).all() and np.equal(calibrated.failures, None).all()
        assert np.abs(sinr_db - calibrated.sinr_db).max() <= 1e-9

    def test_uncalibrated_moves_only_location_specs(self, measured_csi):
        # every cell reads tx 0, so the measured channel is D·H with one
        # diagonal D of rx phases for all users: CSI-built precoders
        # become D·W and h^H w does not change; near-field vectors carry
        # no D
        _, runs = measured_csi
        measured, calibrated = runs["measured"], runs["calibrated"]
        assert measured.noise_var == pytest.approx(calibrated.noise_var, rel=1e-12)
        moved = np.abs(measured.sinr_db[:, :, CSI_ONLY] - calibrated.sinr_db[:, :, CSI_ONLY])
        assert moved.max() <= 1e-9
        drop = _medians(calibrated)["nf_nf"] - _medians(measured)["nf_nf"]
        assert drop >= 10.0, f"nf_nf median dropped {drop:.1f} dB without calibration"

    def test_cells_on_different_tx_break_the_invariance(self, measured_csi):
        # tx 0 lacks rx 0 on grid rows m < 10, so those cells read tx 1:
        # users then see different diagonals D and CSI-built precoders
        # change too, calibrated or not
        root, runs = measured_csi
        config = runs["calibrated"].config
        partial = {}
        for name in ("measured", "calibrated"):
            grid, manifest = read_dataset(root / name)
            present = grid.present.copy()
            present[0, 0, :10] = False
            path = root / f"{name}-partial"
            write_dataset(dataclasses.replace(grid, present=present), manifest, path)
            partial[name] = run_scenario(dataclasses.replace(config, dataset_path=str(path)))
        moved = np.abs(partial["measured"].sinr_db[:, :, CSI_ONLY]
                       - partial["calibrated"].sinr_db[:, :, CSI_ONLY])
        assert moved.max() > 1.0, "CSI-only specs should move when cells use different tx"
