import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dmimo import (
    ArrayGeometry,
    Box,
    LosChannelParams,
    ScenarioConfig,
    UePlacement,
    default_roi,
    los_channel,
    los_phase,
    parse_precoder_name,
    perimeter_geometry,
    place_ues,
)
from dmimo.errors import GeometryError, PlacementError
from dmimo.geometry import AMPLITUDE_MODELS, DEFAULT_RETRY_BUDGET
from dmimo.scenarios import _STREAM_PLACEMENT, draw_trial_channels


class TestLosPhase:
    def test_full_wavelength(self):
        assert los_phase(0.115, 0.115) == pytest.approx(-2 * np.pi, abs=1e-15)

    def test_half_wavelength(self):
        assert los_phase(0.115 / 2, 0.115) == pytest.approx(-np.pi, abs=1e-15)

    def test_reference_value(self):
        # independent evaluation of -2*pi*2.5/0.115
        assert los_phase(2.5, 0.115) == pytest.approx(-136.59098493868666, abs=1e-9)
        assert los_phase(2.5, 0.115) == pytest.approx(-2 * np.pi * 2.5 / 0.115, abs=1e-12)

    def test_not_wrapped(self):
        assert los_phase(10.0, 0.1) < -100.0

    def test_array_input(self):
        d = np.array([0.115, 0.23])
        np.testing.assert_allclose(los_phase(d, 0.115), [-2 * np.pi, -4 * np.pi])

    @pytest.mark.parametrize("d,lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, d, lam):
        with pytest.raises(ValueError):
            los_phase(d, lam)


class TestLosChannel:
    def test_equidistant_symmetry(self):
        lam = 0.5
        # four antennas on a circle around the UE
        positions = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        geo = ArrayGeometry(positions, ((0, 1, 2, 3),), lam)
        params = LosChannelParams(wavelength=lam, amplitude_model="unit")
        h = los_channel(geo, [0, 0, 0], params)
        np.testing.assert_allclose(h, np.exp(-2j * np.pi * 1.0 / lam) * np.ones(4), atol=1e-12)

    def test_half_wavelength_antiphase(self):
        lam = 0.115
        geo = ArrayGeometry([[1.0, 0, 0], [1.0 + lam / 2, 0, 0]], ((0, 1),), lam)
        params = LosChannelParams(wavelength=lam, amplitude_model="unit")
        h = los_channel(geo, [0, 0, 0], params)
        phase_diff = np.angle(h[1] / h[0])
        assert abs(abs(phase_diff) - np.pi) < 1e-12

    def test_free_space_magnitudes(self, geometry):
        params = LosChannelParams(
            wavelength=geometry.wavelength, amplitude_model="free-space", reference_gain=2.0
        )
        ue = np.array([2.2, 3.1, 0.0])
        h = los_channel(geometry, ue, params)
        # per-element recomputation oracle
        for i in range(geometry.num_antennas):
            d = np.linalg.norm(geometry.antenna_positions[i] - ue)
            expected = 2.0 * geometry.wavelength / (4 * np.pi * d)
            assert abs(abs(h[i]) - expected) < 1e-15

    def test_zero_distance_raises(self):
        lam = 0.115
        geo = ArrayGeometry([[1.0, 0, 0], [2.0, 0, 0]], ((0, 1),), lam)
        params = LosChannelParams(wavelength=lam)
        with pytest.raises(GeometryError):
            los_channel(geo, [1.0, 0, 0], params)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(0.5, 5.5),
        y=st.floats(0.5, 5.5),
        z=st.floats(-1.0, 1.0),
    )
    def test_unit_magnitude_property(self, x, y, z):
        geo = perimeter_geometry()
        params = LosChannelParams(wavelength=geo.wavelength, amplitude_model="unit")
        h = los_channel(geo, [x, y, z], params)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)

    def test_phase_matches_los_phase_mod_2pi(self, geometry):
        params = LosChannelParams(wavelength=geometry.wavelength)
        ue = np.array([1.7, 4.2, 0.3])
        h = los_channel(geometry, ue, params)
        d = np.linalg.norm(geometry.antenna_positions - ue, axis=1)
        mismatch = np.angle(h * np.exp(-1j * los_phase(d, geometry.wavelength)))
        np.testing.assert_allclose(mismatch, 0.0, atol=1e-12)


class TestLosChannelMatrix:
    @pytest.mark.parametrize("model", AMPLITUDE_MODELS)
    def test_matrix_equals_stacked_columns(self, geometry, model):
        params = LosChannelParams(wavelength=geometry.wavelength, amplitude_model=model)
        positions = place_ues(default_roi(), 10, 0.1, rng_seed=5).positions
        h = los_channel(geometry, positions, params)
        stacked = np.stack([los_channel(geometry, p, params) for p in positions], axis=1)
        assert h.shape == (geometry.num_antennas, 10)
        assert h.tobytes() == stacked.tobytes()

    def test_single_position_gives_vector(self, geometry):
        params = LosChannelParams(wavelength=geometry.wavelength)
        assert los_channel(geometry, [3.0, 3.0, 0.0], params).shape == (geometry.num_antennas,)

    def test_ue_on_antenna_among_many_raises(self, geometry):
        params = LosChannelParams(wavelength=geometry.wavelength)
        positions = place_ues(default_roi(), 4, 0.1, rng_seed=5).positions
        positions[2] = geometry.antenna_positions[17]
        with pytest.raises(GeometryError, match="coincides"):
            los_channel(geometry, positions, params)

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (1, 2, 3)])
    def test_bad_shape_raises(self, geometry, shape):
        params = LosChannelParams(wavelength=geometry.wavelength)
        with pytest.raises(GeometryError, match="shape"):
            los_channel(geometry, np.ones(shape), params)


class TestPlaceUes:
    def test_single_point(self):
        roi = Box([0, 0, 0], [1, 1, 0])
        p = place_ues(roi, 1, 0.5, rng_seed=1)
        assert p.positions.shape == (1, 3)
        assert np.all(p.positions[:, :2] >= 0) and np.all(p.positions[:, :2] <= 1)
        assert p.positions[0, 2] == 0.0

    def test_minimum_spacing_enforced(self):
        p = place_ues(default_roi(), 5, 0.10, rng_seed=42)
        d = np.linalg.norm(p.positions[:, None] - p.positions[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.10

    def test_deterministic(self):
        roi = default_roi()
        a = place_ues(roi, 5, 0.10, rng_seed=7)
        b = place_ues(roi, 5, 0.10, rng_seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_infeasible_raises(self):
        roi = Box([0, 0, 0], [0.1, 0.1, 0])
        with pytest.raises(PlacementError):
            place_ues(roi, 4, 1.0, rng_seed=0, retry_budget=200)

    def test_uniform_marginal(self):
        # chi-squared goodness of fit on a 4x4 binning of 1e5 points
        roi = Box([0, 0, 0], [1, 1, 0])
        p = place_ues(roi, 100_000, 0.0, rng_seed=99)
        bx = np.minimum((p.positions[:, 0] * 4).astype(int), 3)
        by = np.minimum((p.positions[:, 1] * 4).astype(int), 3)
        counts = np.bincount(bx * 4 + by, minlength=16)
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_bad_k(self):
        with pytest.raises(ValueError):
            place_ues(default_roi(), 0, 0.1, rng_seed=0)


def reference_place_ues(roi, k, min_spacing, rng, retry_budget=DEFAULT_RETRY_BUDGET):
    """Spaced placement one candidate at a time, judged in draw order.

    Block placement must reproduce these positions and leave ``rng`` in
    the same state.
    """
    accepted = []
    rejections = 0
    while len(accepted) < k:
        cand = rng.uniform(roi.lo, roi.hi)
        if min_spacing > 0 and any(np.linalg.norm(cand - p) < min_spacing for p in accepted):
            rejections += 1
            if rejections >= retry_budget:
                raise PlacementError(
                    f"could not place {k} points with spacing {min_spacing} m "
                    f"after {rejections} rejections"
                )
            continue
        accepted.append(cand)
    return np.array(accepted)


def same_stream(roi, k, spacing, seed, retry_budget=DEFAULT_RETRY_BUDGET) -> bool:
    """Assert place_ues matches the reference; False when both give up.

    On success the positions are bitwise equal and so is the generator's
    next draw; on budget exhaustion the error text is equal.
    """
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = reference_place_ues(roi, k, spacing, ref_rng, retry_budget)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as info:
            place_ues(roi, k, spacing, rng, retry_budget)
        assert str(info.value) == str(exc)
        return False
    got = place_ues(roi, k, spacing, rng, retry_budget).positions
    assert got.tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()
    return True


class TestPlaceUesStream:
    @pytest.mark.parametrize("spacing", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 10, 20])
    def test_default_roi_matches_reference(self, k, spacing):
        for seed in range(40):
            assert same_stream(default_roi(), k, spacing, [seed, k])

    def test_budget_spans_blocks(self):
        # a budget of three rejections, often used up over several blocks
        outcomes = [same_stream(default_roi(), 10, 0.5, seed, 3) for seed in range(30)]
        assert 0 < sum(outcomes) < 30

    def test_rejections_match_reference(self):
        # twenty points 0.2 m apart in a unit square: many rejections, and
        # the budget runs out in about three of four seeds
        box = Box([0, 0, 0], [1, 1, 0])
        outcomes = [same_stream(box, k, 0.2, seed, 300) for k in (10, 20) for seed in range(30)]
        assert all(outcomes[:30])
        assert 0 < sum(outcomes[30:]) < 30

    def test_budget_exhaustion_text(self):
        box = Box([0, 0, 0], [1, 1, 0])
        with pytest.raises(PlacementError) as info:
            place_ues(box, 20, 0.2, np.random.default_rng(0), retry_budget=300)
        assert str(info.value) == (
            "could not place 20 points with spacing 0.2 m after 300 rejections"
        )

    @pytest.mark.parametrize("rejected", [0, 1, 5])
    def test_replacement_after_sampler_rejection(self, rejected):
        # dataset mode re-places with the same generator after a snap
        # collision, so every placement must leave the stream as the
        # one-at-a-time loop does
        cfg = ScenarioConfig(
            geometry=perimeter_geometry(),
            roi=default_roi(),
            k_users=10,
            trials=1,
            precoders=(parse_precoder_name("mrt"),),
            min_spacing_m=0.5,
            rng_seed=11,
        )

        class Sampler:
            calls = 0

            def snap(self, positions):
                self.calls += 1
                return None if self.calls <= rejected else positions

            def positions(self, placement):
                return placement

            def channels(self, positions):
                return np.zeros((len(positions), cfg.geometry.num_antennas, cfg.k_users))

        positions, _ = draw_trial_channels(cfg, 4, Sampler())
        rng = np.random.default_rng([cfg.rng_seed, 4, _STREAM_PLACEMENT])
        for _ in range(rejected + 1):
            expected = reference_place_ues(cfg.roi, cfg.k_users, cfg.min_spacing_m, rng)
        assert positions.tobytes() == expected.tobytes()


class TestTypes:
    def test_partition_must_cover(self):
        with pytest.raises(GeometryError):
            ArrayGeometry([[0, 0, 0], [1, 0, 0]], ((0,),), 0.1)
        with pytest.raises(GeometryError):
            ArrayGeometry([[0, 0, 0], [1, 0, 0]], ((0, 1), (1,)), 0.1)

    def test_wavelength_positive(self):
        with pytest.raises(GeometryError):
            ArrayGeometry([[0, 0, 0]], ((0,),), 0.0)

    def test_positions_finite(self):
        with pytest.raises(GeometryError):
            ArrayGeometry([[np.inf, 0, 0]], ((0,),), 0.1)

    def test_ue_placement_spacing_invariant(self):
        with pytest.raises(GeometryError):
            UePlacement(positions=[[0, 0, 0], [0.01, 0, 0]], min_spacing=0.1)

    def test_box_ordering(self):
        with pytest.raises(GeometryError):
            Box([1, 0, 0], [0, 1, 1])

    def test_amplitude_model_validation(self):
        with pytest.raises(GeometryError):
            LosChannelParams(wavelength=0.1, amplitude_model="rayleigh")


class TestUnitIndices:
    def test_concatenates_aps_in_order_once(self):
        geo = ArrayGeometry(np.arange(15.0).reshape(5, 3), ((3, 0), (1,), (4, 2)), 0.1)
        idx = geo.unit_indices((2, 0))
        np.testing.assert_array_equal(idx, [4, 2, 3, 0])
        assert geo.unit_indices([2, 0]) is idx  # worked out once per AP tuple
        assert not idx.flags.writeable


class TestPerimeterGeometry:
    def test_default_shape(self):
        geo = perimeter_geometry()
        assert geo.num_antennas == 64
        assert geo.num_aps == 8
        assert all(len(ap) == 8 for ap in geo.ap_partition)

    def test_half_wavelength_spacing_within_ap(self):
        geo = perimeter_geometry()
        for a in range(geo.num_aps):
            pos = geo.antenna_positions[geo.ap_indices(a)]
            gaps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
            np.testing.assert_allclose(gaps, geo.wavelength / 2, atol=1e-12)

    def test_antennas_on_perimeter(self):
        geo = perimeter_geometry(side=6.0)
        on_wall = (
            np.isclose(geo.antenna_positions[:, 0], 0.0)
            | np.isclose(geo.antenna_positions[:, 0], 6.0)
            | np.isclose(geo.antenna_positions[:, 1], 0.0)
            | np.isclose(geo.antenna_positions[:, 1], 6.0)
        )
        assert on_wall.all()
