from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crandn
from dmimo import (
    ChannelErrorModel,
    ArrayGeometry,
    ChannelAccess,
    InfoEnvironment,
    LosChannelParams,
    PrecoderSpec,
    build_precoder,
    build_precoders,
    cluster_users,
    far_field_weights,
    inject_channel_error,
    los_channel,
    mrt,
    near_field_weights,
    noise_variance_from_floor,
    orthogonalize,
    orthogonalize_regularized,
    parse_precoder_name,
    perimeter_geometry,
    phase_align,
    rzf,
    steering_angle,
    zf,
)
from dmimo.configio import parse_simulate_config
from dmimo.errors import (
    ConfigError,
    DegenerateChannelError,
    FullySuppressedError,
    GeometryError,
    InformationError,
    PrecodingError,
    RankDeficiencyError,
)
from dmimo.precoders import _diagonal, _leave_one_out
from dmimo.scenarios import draw_trial_channels


def ula(n: int, lam: float = 0.115) -> ArrayGeometry:
    positions = [[i * lam / 2, 0.0, 0.0] for i in range(n)]
    return ArrayGeometry(positions, (tuple(range(n)),), lam)


def assert_same_direction(a, b, tol=1e-10):
    a = phase_align(a / np.linalg.norm(a))
    b = phase_align(b / np.linalg.norm(b))
    assert np.linalg.norm(a - b) < tol


class TestFarField:
    def test_broadside_uniform(self):
        w = far_field_weights(ula(8), 0.0)
        np.testing.assert_allclose(w, w[0], atol=1e-15)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_endfire_antiphase(self):
        # two antennas half a wavelength apart, steered along the array
        w = far_field_weights(ula(2), np.pi / 2)
        assert abs(abs(np.angle(w[1] / w[0])) - np.pi) < 1e-12

    def test_phase_ramp(self):
        # 8-element half-wavelength array at 30 degrees: ramp of -pi/2 per element
        w = far_field_weights(ula(8), np.pi / 6)
        steps = np.angle(w[1:] / w[:-1])
        np.testing.assert_allclose(steps, -np.pi / 2, atol=1e-12)

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            far_field_weights(ula(4), np.pi / 2 + 0.01)

    def test_far_field_approaches_near_field(self):
        geo = ula(8)
        ue = np.array([1.0, 400.0, 0.0])  # far compared to the 0.4 m aperture
        theta, ref = steering_angle(geo, ue)
        w_ff = far_field_weights(geo, theta, ref)
        w_nf = near_field_weights(geo, ue)
        assert abs(np.vdot(w_ff, w_nf)) > 1 - 1e-5

    def test_steering_angle_non_collinear(self):
        geo = perimeter_geometry()
        with pytest.raises(GeometryError):
            steering_angle(geo, [3.0, 3.0, 0.0])


class TestNearField:
    def test_equidistant_uniform(self):
        lam = 0.5
        geo = ArrayGeometry(
            [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], ((0, 1, 2, 3),), lam
        )
        w = near_field_weights(geo, [0, 0, 0])
        np.testing.assert_allclose(w, w[0], atol=1e-12)

    def test_single_antenna_subset(self):
        geo = ula(4)
        w = near_field_weights(geo, [0.3, 2.0, 0.0], antenna_subset=[2])
        assert w.shape == (1,)
        assert abs(abs(w[0]) - 1.0) < 1e-12

    def test_matched_filter_gain(self, geometry):
        # conjugate phases cancel: |<h, w>| = sqrt(M) for a unit-magnitude channel
        params = LosChannelParams(wavelength=geometry.wavelength, amplitude_model="unit")
        ue = [2.4, 3.3, 0.0]
        h = los_channel(geometry, ue, params)
        w = near_field_weights(geometry, ue)
        assert abs(np.vdot(h, w)) == pytest.approx(
            np.sqrt(geometry.num_antennas), abs=1e-9
        )

    def test_zero_distance(self):
        geo = ula(4)
        with pytest.raises(GeometryError):
            near_field_weights(geo, geo.antenna_positions[1])


class TestMrt:
    def test_basis_vector(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        np.testing.assert_allclose(mrt(e1), e1)

    def test_positive_scale_invariance(self, rng):
        h = crandn(rng, 6)
        np.testing.assert_allclose(mrt(h), mrt(3.7 * h), atol=1e-14)

    def test_cauchy_schwarz_equality(self, rng):
        for _ in range(20):
            h = crandn(rng, 16)
            assert abs(np.vdot(h, mrt(h))) == pytest.approx(
                np.linalg.norm(h), abs=1e-12
            )

    def test_zero_channel(self):
        with pytest.raises(DegenerateChannelError):
            mrt(np.zeros(4, dtype=complex))


class TestZf:
    def test_single_user_equals_mrt(self, rng):
        h = crandn(rng, 8, 1)
        np.testing.assert_allclose(zf(h)[:, 0], mrt(h[:, 0]), atol=1e-12)

    def test_orthogonal_columns_equal_mrt(self, rng):
        h = np.zeros((8, 3), dtype=complex)
        h[0, 0] = 2.0 + 1j
        h[3, 1] = -1.5j
        h[6, 2] = 0.7
        w = zf(h)
        for k in range(3):
            assert_same_direction(w[:, k], mrt(h[:, k]), tol=1e-12)

    def test_interference_cancellation(self, rng):
        h = crandn(rng, 8, 3)
        w = zf(h, normalize=False)
        cross = h.conj().T @ w
        off = cross - np.eye(3)
        assert np.abs(off).max() < 1e-10

    def test_unit_columns(self, rng):
        w = zf(crandn(rng, 8, 3))
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-10)

    def test_rank_deficient(self, rng):
        h = crandn(rng, 8, 2)
        h = np.concatenate([h, h[:, :1]], axis=1)  # duplicated column
        with pytest.raises(RankDeficiencyError):
            zf(h)

    def test_more_users_than_antennas(self, rng):
        with pytest.raises(RankDeficiencyError):
            zf(crandn(rng, 4, 6))


class TestRzf:
    def test_small_alpha_matches_zf(self, rng):
        h = crandn(rng, 8, 3)
        np.testing.assert_allclose(rzf(h, 1e-12), zf(h), atol=1e-6)

    def test_alpha_zero_full_rank_is_zf(self, rng):
        h = crandn(rng, 8, 3)
        np.testing.assert_allclose(rzf(h, 0.0), zf(h), atol=1e-12)

    def test_large_alpha_approaches_mrt(self, rng):
        h = crandn(rng, 8, 3)
        w = rzf(h, 1e9)
        for k in range(3):
            assert_same_direction(w[:, k], mrt(h[:, k]), tol=1e-6)

    def test_overloaded_system(self, rng):
        # more users than antennas: rank deficiency forces regularization
        h = crandn(rng, 8, 10)
        sigma_n2 = 0.05
        w = rzf(h, sigma_n2)
        assert np.all(np.isfinite(w))
        with pytest.raises(RankDeficiencyError):
            rzf(h, 0.0)

    def test_negative_alpha(self, rng):
        with pytest.raises(ValueError):
            rzf(crandn(rng, 4, 2), -0.1)

    def test_interference_signal_tradeoff(self, rng):
        # larger alpha never decreases signal power nor the total
        # interference created, on the grid {0, sigma, 10 sigma}
        for _ in range(50):
            h = crandn(rng, 8, 4)
            sigma_n2 = 0.05
            prev_sig = prev_intf = None
            for alpha in (0.0, sigma_n2, 10 * sigma_n2):
                w = rzf(h, alpha)
                cross = np.abs(h.conj().T @ w) ** 2
                sig = np.diag(cross)
                intf = cross.sum(axis=1) - sig
                if prev_sig is not None:
                    assert np.all(sig >= prev_sig - 1e-9)
                    assert np.all(intf >= prev_intf - 1e-9)
                prev_sig, prev_intf = sig, intf


class TestOrthogonalize:
    def test_empty_subspace(self, rng):
        w = crandn(rng, 6)
        out = orthogonalize(w, np.zeros((6, 0), dtype=complex))
        np.testing.assert_array_equal(out, w)

    def test_self_projection_fully_suppressed(self, rng):
        w = mrt(crandn(rng, 6))
        with pytest.raises(FullySuppressedError):
            orthogonalize(w, w[:, None])

    def test_matches_zf_column(self, rng):
        # MRT seeded, suppressed against the other users' channels:
        # equal to the normalized ZF column up to a unit-modulus scalar
        h = crandn(rng, 16, 5)
        w_zf = zf(h)
        for k in range(5):
            v = np.delete(h, k, axis=1)
            w = orthogonalize(mrt(h[:, k]), v)
            assert_same_direction(w, w_zf[:, k], tol=1e-10)

    def test_rank_deficient_subspace(self, rng):
        v = crandn(rng, 8, 2)
        v = np.concatenate([v, v[:, :1]], axis=1)
        with pytest.raises(RankDeficiencyError):
            orthogonalize(crandn(rng, 8), v)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(3, 12), l=st.integers(1, 2))
    def test_residual_orthogonal_property(self, data, m, l):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        v = crandn(rng, m, min(l, m - 1))
        w = crandn(rng, m)
        out = orthogonalize(w, v)
        assert np.abs(v.conj().T @ out).max() < 1e-10

    def test_column_scale_invariance(self, rng):
        w = crandn(rng, 10)
        v = crandn(rng, 10, 3)
        scales = np.array([2.0, -0.3 + 1.1j, 1e3j])
        a = orthogonalize(w, v)
        b = orthogonalize(w, v * scales)
        assert np.linalg.norm(a - b) < 1e-10


class TestOrthogonalizeRegularized:
    def test_large_alpha_returns_w(self, rng):
        w = crandn(rng, 8)
        v = crandn(rng, 8, 3)
        out = orthogonalize_regularized(w, v, 1e12)
        np.testing.assert_allclose(out, w, atol=1e-9)

    def test_small_alpha_matches_orthogonalize(self, rng):
        w = crandn(rng, 8)
        v = crandn(rng, 8, 3)
        out = orthogonalize_regularized(w, v, 1e-10)
        np.testing.assert_allclose(out, orthogonalize(w, v), atol=1e-6)

    def test_duplicated_column_analytic_oracle(self, rng):
        # V = [v, v]: closed-form 2x2 inverse of (V^H V + alpha I)
        v = crandn(rng, 8)
        w = crandn(rng, 8)
        alpha = 0.01
        out = orthogonalize_regularized(w, np.stack([v, v], axis=1), alpha)
        assert np.all(np.isfinite(out))
        g = float(np.vdot(v, v).real)
        p = float(np.vdot(v, w).real) + 1j * float(np.vdot(v, w).imag)
        det = (g + alpha) ** 2 - g * g
        inv = np.array([[g + alpha, -g], [-g, g + alpha]]) / det
        coeff = inv @ np.array([p, p])
        expected = w - np.stack([v, v], axis=1) @ coeff
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_alpha_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            orthogonalize_regularized(crandn(rng, 4), crandn(rng, 4, 2), 0.0)

    def test_raw_csi_columns_reproduce_rzf(self, rng):
        # with unnormalized channel columns the regularized projection of
        # h_k yields exactly the direction of the RZF column
        h = crandn(rng, 16, 5)
        alpha = 0.3
        w_rzf = rzf(h, alpha)
        for k in range(5):
            v = np.delete(h, k, axis=1)
            w = orthogonalize_regularized(h[:, k], v, alpha)
            assert_same_direction(w, w_rzf[:, k], tol=1e-10)


class TestPhaseAlign:
    def test_first_nonzero_real_positive(self, rng):
        v = crandn(rng, 5)
        v[0] = 0.0
        out = phase_align(v)
        assert abs(out[1].imag) < 1e-15 and out[1].real > 0

    def test_zero_vector(self):
        v = np.zeros(3, dtype=complex)
        np.testing.assert_array_equal(phase_align(v), v)


class TestPrecoderSpec:
    # rows of the information-requirement table:
    # (name, csi_intended, csi_unintended, loc_intended, loc_unintended)
    TABLE = [
        ("nf", False, False, True, False),
        ("mrt", True, False, False, False),
        ("zf", True, True, False, False),
        ("rzf", True, True, False, False),
        ("dis_zf", True, True, False, False),
        ("dis_rzf", True, True, False, False),
        ("nf_nf", False, False, True, True),
        ("mrt_nf", True, False, False, True),
        ("rmrt_nf", True, False, False, True),
        ("dis_mrt_nf", True, False, False, True),
        ("dis_rmrt_nf", True, False, False, True),
        ("zf_nf", True, True, False, True),
        ("rzf_nf", True, True, False, True),
    ]

    @pytest.mark.parametrize("name,csi_i,csi_u,loc_i,loc_u", TABLE)
    def test_information_requirements(self, name, csi_i, csi_u, loc_i, loc_u):
        req = parse_precoder_name(name).requirements()
        assert req.csi_intended == csi_i
        assert req.csi_unintended == csi_u
        assert req.location_intended == loc_i
        assert req.location_unintended == loc_u

    def test_dis_prefix_sets_scope(self):
        assert parse_precoder_name("dis_zf").scope == "per-ap"
        assert parse_precoder_name("zf").scope == "centralized"

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            parse_precoder_name("mmse")

    def test_alpha_requires_regularized(self):
        with pytest.raises(ConfigError):
            PrecoderSpec(name="x", base="mrt", suppression="csi", alpha=0.1)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan"), float("inf")])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ConfigError):
            PrecoderSpec(
                name="x", base="mrt", suppression="csi", regularized=True, alpha=alpha
            )

    def test_invalid_enum_values(self):
        with pytest.raises(ConfigError):
            PrecoderSpec(name="x", base="mmse")
        with pytest.raises(ConfigError):
            PrecoderSpec(name="x", base="mrt", suppression="zf")
        with pytest.raises(ConfigError):
            PrecoderSpec(name="x", base="mrt", scope="global")


def make_env(geometry, h, positions, csi=True, locations=True, granted=None, serving=None):
    access = None
    if csi:
        if granted is None:
            access = ChannelAccess.full(geometry, h)
        else:
            access = ChannelAccess(geometry, h, granted)
    return InfoEnvironment(
        geometry=geometry,
        num_users=h.shape[1],
        csi=access,
        ue_positions=positions if locations else None,
        serving=serving,
    )


@pytest.fixture
def scenario_env(geometry, rng):
    params = LosChannelParams(wavelength=geometry.wavelength)
    positions = np.column_stack(
        [rng.uniform(1.5, 4.5, 5), rng.uniform(1.5, 4.5, 5), np.zeros(5)]
    )
    h = np.stack([los_channel(geometry, p, params) for p in positions], axis=1)
    return geometry, h, positions


class TestBuildPrecoder:
    def test_mrt_single_user(self, geometry, rng):
        params = LosChannelParams(wavelength=geometry.wavelength)
        pos = np.array([[3.0, 2.0, 0.0]])
        h = los_channel(geometry, pos[0], params)[:, None]
        env = make_env(geometry, h, pos)
        w = build_precoder(parse_precoder_name("mrt"), env)[:, 0]
        np.testing.assert_allclose(w, mrt(h[:, 0]), atol=1e-12)

    def test_zf_spec_equals_zf_columns(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions)
        w_zf = zf(h)
        spec = parse_precoder_name("zf")
        w = build_precoder(spec, env)
        for k in range(5):
            assert_same_direction(w[:, k], w_zf[:, k], tol=1e-9)

    def test_rzf_spec_equals_rzf_columns(self, scenario_env):
        # pure-CSI regularized suppression keeps raw channel columns, so
        # the build route reproduces the classical RZF matrix exactly
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions)
        alpha = 1e-2 * float(np.mean(np.abs(h) ** 2)) * geometry.num_antennas
        w_rzf = rzf(h, alpha)
        spec = parse_precoder_name("rzf")
        w = build_precoder(spec, env, noise_var=alpha)
        for k in range(5):
            assert_same_direction(w[:, k], w_rzf[:, k], tol=1e-9)

    def test_nf_nf_needs_no_csi(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions, csi=False)
        w = build_precoder(parse_precoder_name("nf_nf"), env)[:, 2]
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)

    def test_nf_nf_orthogonal_to_other_steering_vectors(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions, csi=False)
        w = build_precoder(parse_precoder_name("nf_nf"), env)[:, 0]
        for l in range(1, 5):
            v = near_field_weights(geometry, positions[l])
            assert abs(np.vdot(v, w)) < 1e-9

    def test_requirements_enforced(self, scenario_env):
        geometry, h, positions = scenario_env
        no_csi = make_env(geometry, h, positions, csi=False)
        with pytest.raises(InformationError):
            build_precoder(parse_precoder_name("zf"), no_csi)
        no_loc = make_env(geometry, h, positions, locations=False)
        with pytest.raises(InformationError):
            build_precoder(parse_precoder_name("nf_nf"), no_loc)
        with pytest.raises(InformationError):
            build_precoder(parse_precoder_name("mrt_nf"), no_loc)

    def test_block_access_gated(self, geometry, rng):
        h = crandn(rng, 64, 3)
        granted = np.zeros((8, 3), dtype=bool)
        granted[:, 0] = True
        access = ChannelAccess(geometry, h, granted)
        wanted = np.zeros((8, 3), dtype=bool)
        wanted[0:2, 0] = True
        expected = np.zeros_like(h)
        expected[:16, 0] = h[:16, 0]
        np.testing.assert_array_equal(access.gather(wanted), expected)
        wanted[0, 1] = True
        with pytest.raises(InformationError, match="AP 0, user 1"):
            access.gather(wanted)

    def test_unit_norm_all_specs(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions)
        noise = 1e-2 * float(np.mean(np.sum(np.abs(h) ** 2, axis=0)))
        for name in ["nf", "mrt", "zf", "rzf", "nf_nf", "mrt_nf", "rmrt_nf",
                     "zf_nf", "rzf_nf", "dis_zf", "dis_rzf", "dis_mrt_nf",
                     "dis_rmrt_nf", "dis_nf_nf"]:
            w = build_precoder(parse_precoder_name(name), env, noise_var=noise)[:, 1]
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10), name

    def test_per_ap_rank_deficiency_at_k10(self, geometry, rng):
        params = LosChannelParams(wavelength=geometry.wavelength)
        positions = np.column_stack(
            [rng.uniform(1.5, 4.5, 10), rng.uniform(1.5, 4.5, 10), np.zeros(10)]
        )
        h = np.stack([los_channel(geometry, p, params) for p in positions], axis=1)
        env = make_env(geometry, h, positions)
        # 9 suppression columns per 8-antenna AP: always rank deficient
        with pytest.raises(RankDeficiencyError) as err:
            build_precoder(parse_precoder_name("dis_mrt_nf"), env)
        assert "user 0" in str(err.value) and "AP" in str(err.value)
        w = build_precoder(
            parse_precoder_name("dis_rmrt_nf"), env, noise_var=1e-6
        )[:, 0]
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)

    def test_distributed_restricts_subspace_per_ap(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions)
        w = build_precoder(parse_precoder_name("dis_zf"), env)[:, 0]
        # per-AP blocks are orthogonal to the other users' per-AP channels
        for a in range(geometry.num_aps):
            idx = geometry.ap_indices(a)
            for l in range(1, 5):
                assert abs(np.vdot(h[idx, l], w[idx])) < 1e-9

    def test_serving_subset_zeroes_other_antennas(self, scenario_env):
        geometry, h, positions = scenario_env
        serving = tuple((0, 1) for _ in range(5))
        granted = np.zeros((8, 5), dtype=bool)
        granted[0] = granted[1] = True
        env = make_env(geometry, h, positions, granted=granted, serving=serving)
        w = build_precoder(parse_precoder_name("zf"), env)[:, 0]
        outside = np.concatenate([geometry.ap_indices(a) for a in range(2, 8)])
        np.testing.assert_array_equal(w[outside], 0.0)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "serving",
        [
            ((), (), (), (), ()),  # zf: bare IndexError; mrt, nf: DegenerateChannelError
            ((0,), (), (1,), (2,), (3,)),  # DegenerateChannelError for user 1
            ((0, 0), (1,), (2,), (3,), (4,)),  # AP 0 counted twice
            ((99,), (1,), (2,), (3,), (4,)),  # IndexError: index 99 is out of bounds
            ((0, 8), (1,), (2,), (3,), (4,)),  # one past the last AP
            ((-1,), (1,), (2,), (3,), (4,)),  # silently served from AP 7
        ],
    )
    def test_invalid_serving_is_config_error(self, scenario_env, serving):
        geometry, h, positions = scenario_env
        with pytest.raises(ConfigError, match="serving APs of user"):
            make_env(geometry, h, positions, serving=serving)

    def test_hybrid_mixes_csi_and_nf(self, scenario_env):
        # serving pair holds CSI for users {0, 1} only; zf_nf must null
        # the co-served channel and the out-of-cluster steering vectors
        geometry, h, positions = scenario_env
        serving = ((0, 1), (0, 1), (2, 3), (2, 3), (2, 3))
        granted = np.zeros((8, 5), dtype=bool)
        granted[0:2, 0:2] = True
        granted[2:4, 2:5] = True
        env = make_env(geometry, h, positions, granted=granted, serving=serving)
        w = build_precoder(parse_precoder_name("zf_nf"), env)[:, 0]
        pair_idx = np.concatenate([geometry.ap_indices(0), geometry.ap_indices(1)])
        # co-served user suppressed through its actual channel
        assert abs(np.vdot(h[pair_idx, 1], w[pair_idx])) < 1e-9
        # out-of-cluster users suppressed through steering vectors
        for l in range(2, 5):
            v = near_field_weights(geometry, positions[l], antenna_subset=pair_idx)
            assert abs(np.vdot(v, w[pair_idx])) < 1e-9

    def test_trial_of_a_batch_is_that_trial(self, scenario_env):
        geometry, h, positions = scenario_env
        serving = np.array([[(0, 1)] * 5, [(2, 3)] * 5])
        granted = np.zeros((2, 8, 5), dtype=bool)
        granted[0, :2] = granted[1, 2:4] = True
        batch = InfoEnvironment(
            geometry, 5, ChannelAccess(geometry, np.stack([h, 2 * h]), granted),
            np.stack([positions, positions + 0.1]), serving,
        )
        assert batch.batch == 2
        one = batch.trial(1)
        assert one.batch is None and one.trial(0).csi.channel is one.csi.channel
        np.testing.assert_array_equal(one.csi.channel, 2 * h)
        np.testing.assert_array_equal(one.csi.granted, granted[1])
        np.testing.assert_array_equal(one.ue_positions, positions + 0.1)
        assert [one.serving_aps(k) for k in range(5)] == [(2, 3)] * 5

    def test_batch_axes_must_agree(self, scenario_env):
        geometry, h, positions = scenario_env
        with pytest.raises(ConfigError, match="trial axis"):
            InfoEnvironment(geometry, 5, ChannelAccess.full(geometry, np.stack([h, h])), positions)
        with pytest.raises(ConfigError, match="phasors must have shape"):
            phasors = np.ones((2, geometry.num_antennas, 5))
            InfoEnvironment(geometry, 5, None, positions, phasors=phasors)

    def test_ff_base_on_linear_array(self):
        lam = 0.115
        geo = ula(8, lam)
        positions = np.array([[0.2, 5.0, 0.0], [0.3, 7.0, 0.0]])
        env = InfoEnvironment(
            geometry=geo, num_users=2, csi=None, ue_positions=positions
        )
        w = build_precoder(parse_precoder_name("ff"), env)[:, 0]
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        # beam gain toward the intended user beats an off-target direction
        h_on = near_field_weights(geo, positions[0])
        h_off = near_field_weights(geo, [3.0, 4.0, 0.0])
        assert abs(np.vdot(h_on, w)) > abs(np.vdot(h_off, w))

    def test_regularized_needs_alpha(self, scenario_env):
        geometry, h, positions = scenario_env
        env = make_env(geometry, h, positions)
        with pytest.raises(ConfigError):
            build_precoder(parse_precoder_name("rzf"), env, noise_var=None)


# --- oracle: the literal per-vector construction ---------------------------

PRECODER_NAMES = ["nf", "ff", "mrt", "zf", "rzf", "nf_nf", "mrt_nf", "rmrt_nf",
                  "zf_nf", "rzf_nf"]
SCOPE_MODES = ["centralized", "dis", "clustered"]
PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))


def reference_column(spec, k, env, noise_var=None):
    """User k's precoder, one vector at a time, from the public primitives.

    Per assembly unit (all serving APs, or each serving AP) the base is
    the user's CSI, near-field or far-field vector; it is projected off
    the other users' CSI where the unit holds it on every AP, else their
    unit-norm near-field vectors when the spec suppresses by location.
    """
    geo = env.geometry
    aps = env.serving_aps(k)
    units = [aps] if spec.scope == "centralized" else [(a,) for a in aps]
    alpha = spec.alpha if spec.alpha is not None else noise_var

    def antennas(unit):
        return np.concatenate([geo.ap_indices(a) for a in unit])

    def csi(unit, l):
        return np.concatenate([env.csi.channel[geo.ap_indices(a), l] for a in unit])

    bases = []
    for unit in units:
        idx = antennas(unit)
        if spec.base == "mrt":
            bases.append(csi(unit, k))
        elif spec.base == "nf":
            # unit-modulus phasors, as in the far-field branch, so a unit's
            # share of the column grows with its antenna count
            bases.append(near_field_weights(geo, env.ue_positions[k], idx) * np.sqrt(idx.size))
        else:
            theta, ref = steering_angle(geo, env.ue_positions[k], idx)
            bases.append(far_field_weights(geo, theta, ref)[idx])
    total = np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in bases))
    if total == 0:
        raise DegenerateChannelError(f"user {k}: zero base vector")

    w = np.zeros(geo.num_antennas, dtype=complex)
    for unit, base in zip(units, bases):
        idx = antennas(unit)
        columns, sources = [], []
        for l in range(env.num_users):
            if l == k or spec.suppression == "none":
                continue
            if spec.suppression in ("csi", "csi+nf") and env.csi.granted[list(unit), l].all():
                columns.append(csi(unit, l))
                sources.append("csi")
            elif spec.suppression in ("nf", "csi+nf"):
                columns.append(near_field_weights(geo, env.ue_positions[l], idx))
                sources.append("nf")
        v = np.stack(columns, axis=1) if columns else np.zeros((idx.size, 0), complex)
        label = "centralized" if spec.scope == "centralized" else f"AP {unit[0]}"
        try:
            if spec.regularized:
                if len(set(sources)) > 1:
                    v = v / np.linalg.norm(v, axis=0)
                w[idx] = orthogonalize_regularized(base / total, v, alpha)
            else:
                w[idx] = orthogonalize(base / total, v)
        except PrecodingError as exc:
            raise type(exc)(f"user {k}, {label}: {exc}") from exc
    if np.linalg.norm(w) < 1e-12:
        raise FullySuppressedError(f"user {k}: all components suppressed")
    return w / np.linalg.norm(w)


def uneven_geometry(counts=(4, 8, 6, 8, 5, 8, 7, 3)):
    """The perimeter deployment with APs cut to unequal antenna counts,
    so assembly units differ in size and the narrow ones are padded."""
    full = perimeter_geometry()
    keep = np.concatenate([full.ap_indices(a)[:c] for a, c in enumerate(counts)])
    ends = np.cumsum((0,) + counts)
    partition = tuple(tuple(range(ends[a], ends[a + 1])) for a in range(len(counts)))
    return ArrayGeometry(full.antenna_positions[keep], partition, full.wavelength)


LAYOUTS = {"perimeter": perimeter_geometry, "uneven": uneven_geometry}


def oracle_env(k, seed, mode, layout="perimeter"):
    """A trial on the ``layout`` deployment with estimation error on the CSI.

    ``clustered`` serves each user from one AP pair (by mean channel
    gain) and grants CSI on that pair plus a random third of the other
    (AP, user) blocks, so held CSI and near-field columns mix.
    """
    geometry = LAYOUTS[layout]()
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [rng.uniform(1.5, 4.5, k), rng.uniform(1.5, 4.5, k), np.zeros(k)]
    )
    params = LosChannelParams(wavelength=geometry.wavelength)
    h = np.stack([los_channel(geometry, p, params) for p in positions], axis=1)
    h = h + 0.1 * np.abs(h) * crandn(rng, *h.shape)
    serving, granted = None, None
    if mode == "clustered":
        pair = cluster_users(np.abs(h.T) ** 2, PAIRS, geometry).ue_to_pair
        serving = tuple(PAIRS[p] for p in pair)
        granted = rng.random((geometry.num_aps, k)) < 1 / 3
        for l in range(k):
            granted[list(serving[l]), l] = True
    env = make_env(geometry, h, positions, granted=granted, serving=serving)
    noise_var = 1e-2 * float(np.mean(np.sum(np.abs(h) ** 2, axis=0)))
    return env, noise_var


def oracle_cases():
    for name in PRECODER_NAMES:
        for mode in SCOPE_MODES:
            if name == "ff" and mode == "centralized":
                continue  # the whole perimeter is not collinear
            for k in (5, 10):
                yield name, mode, k


def assert_matches_reference(spec, env, noise_var):
    """Every column within 1e-8 of the per-vector construction, or the
    lowest failing user's exception class, naming that user and unit."""
    expected, failed = {}, {}
    for user in range(env.num_users):
        try:
            expected[user] = reference_column(spec, user, env, noise_var)
        except PrecodingError as exc:
            failed[user] = exc
    if not failed:
        w = build_precoder(spec, env, noise_var=noise_var)
        for user, col in expected.items():
            assert np.abs(w[:, user] - col).max() < 1e-8, (spec.name, user)
        return
    with pytest.raises(PrecodingError) as err:
        build_precoder(spec, env, noise_var=noise_var)
    ref = failed[min(failed)]
    assert type(err.value) is type(ref), str(err.value)
    # "user k, AP a" / "user k, centralized" / "user k" for whole-vector failures
    where = str(ref).split(": ")[0]
    assert str(err.value).split(": ")[0].endswith(where), (str(err.value), where)


class TestBuildPrecoderOracle:
    LAYOUT = "perimeter"

    @pytest.mark.parametrize("name,mode,k", list(oracle_cases()))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_per_vector_construction(self, name, mode, k, seed):
        env, noise_var = oracle_env(k, seed, mode, self.LAYOUT)
        spec = parse_precoder_name(("dis_" if mode == "dis" else "") + name)
        assert_matches_reference(spec, env, noise_var)

    @pytest.mark.parametrize("name", ["zf", "nf_nf", "mrt_nf", "zf_nf", "rzf_nf"])
    @pytest.mark.parametrize("mode", SCOPE_MODES)
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_duplicated_user_matches_per_vector_construction(self, name, mode, k):
        # user 1 repeats user 0's position and channel: the suppression
        # subspace of every other user is rank deficient, and a base
        # built from the same source as user 1's column is fully
        # suppressed
        env, noise_var = oracle_env(k, 5, mode, self.LAYOUT)
        h, positions = env.csi.channel.copy(), env.ue_positions.copy()
        granted = env.csi.granted.copy()
        h[:, 1], positions[1], granted[:, 1] = h[:, 0], positions[0], granted[:, 0]
        serving = env.serving and env.serving[:1] * 2 + env.serving[2:]
        env = make_env(env.geometry, h, positions, granted=granted, serving=serving)
        spec = parse_precoder_name(("dis_" if mode == "dis" else "") + name)
        assert_matches_reference(spec, env, noise_var)


class TestBuildPrecoderOracleUnevenAps(TestBuildPrecoderOracle):
    """The same cases on APs with unequal antenna counts: the narrower
    assembly units are padded with zero rows."""

    LAYOUT = "uneven"


class TestBuildPrecoderOracleManyUsers:
    """Clustered builds with enough users that each unit has the pairs
    to be inverted whole."""

    @pytest.mark.parametrize("name", ["zf", "rzf", "nf_nf", "rmrt_nf", "zf_nf", "rzf_nf"])
    @pytest.mark.parametrize("prefix", ["", "dis_"])
    @pytest.mark.parametrize("k", [16, 20])
    def test_matches_per_vector_construction(self, name, prefix, k):
        env, noise_var = oracle_env(k, 3, "clustered")
        assert_matches_reference(parse_precoder_name(prefix + name), env, noise_var)


class TestMixedUnitScale:
    """A regularized csi+nf unit pool that holds both CSI and near-field
    columns has every nonzero column scaled to unit norm, then takes the
    unit inverse and downdate like every other unit."""

    @pytest.mark.parametrize("prefix", ["", "dis_"])
    @pytest.mark.parametrize("k", [5, 10, 16])
    def test_mixed_units_need_no_pair_solve(self, monkeypatch, prefix, k):
        env, noise_var = oracle_env(k, 3, "clustered")
        spec = parse_precoder_name(prefix + "rzf_nf")

        def no_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("a pair was solved on its own")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", no_solve)
            w = build_precoder(spec, env, noise_var=noise_var)
        for user in range(k):
            col = reference_column(spec, user, env, noise_var)
            assert np.abs(w[:, user] - col).max() < 1e-8, user

    def test_zero_csi_column_suppresses_nothing(self):
        env, noise_var = oracle_env(10, 3, "clustered")
        geo, user = env.geometry, 0
        ap = env.serving_aps(user)[0]
        rows = geo.ap_indices(ap)
        h = env.csi.channel.copy()
        h[rows, user] = 0
        env = with_channel(env, h)
        w = build_precoder(parse_precoder_name("dis_rzf_nf"), env, noise_var=noise_var)
        assert not w[rows, user].any()
        co_served = [u for u in range(10) if u != user and ap in env.serving_aps(u)]
        assert co_served and not env.csi.granted[ap].all()
        for u in co_served:
            columns = [
                h[rows, l] if env.csi.granted[ap, l]
                else near_field_weights(geo, env.ue_positions[l], rows)
                for l in range(10) if l != u
            ]
            v = np.stack([c / np.linalg.norm(c) for c in columns if c.any()], axis=1)
            expected = orthogonalize_regularized(h[rows, u], v, noise_var)
            assert_same_direction(w[rows, u], expected, 1e-8)


class TestDowndateRefinement:
    """Regularized near-field pools with K - 1 > Ma and noise-level alpha.

    The estimation-error sweep's per-AP builds (K = 10 on 8-antenna APs,
    alpha at -20 dB of the mean gain) are where a bare Schur downdate of
    the unit inverse drifts from the per-vector construction (~3e-8);
    one refinement step with the same inverse brings it to ~1e-11.
    """

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "estimation_error_sweep_k10.yaml"
    TRIALS = range(4)

    @pytest.fixture(scope="class")
    def trials(self):
        cfg = parse_simulate_config(self.CONFIG)
        drawn = [draw_trial_channels(cfg, t) for t in self.TRIALS]
        gain = np.mean([np.sum(np.abs(h) ** 2) / cfg.k_users for _, h in drawn])
        noise_var = noise_variance_from_floor(cfg.noise_floor_db, gain)
        assert cfg.k_users - 1 > max(map(len, cfg.geometry.ap_partition))
        return cfg.geometry, drawn, noise_var

    @pytest.mark.parametrize("name", ["dis_rmrt_nf", "dis_rzf"])
    @pytest.mark.parametrize("trial", TRIALS)
    def test_columns_match_per_vector_construction(self, trials, name, trial):
        geometry, drawn, noise_var = trials
        positions, h = drawn[trial]
        env = make_env(geometry, h, positions)
        spec = parse_precoder_name(name)
        w = build_precoder(spec, env, noise_var=noise_var)
        for user in range(env.num_users):
            col = reference_column(spec, user, env, noise_var)
            assert np.abs(w[:, user] - col).max() < 1e-9, (name, user)


class TestDowndateConditioning:
    # user 5 repeats user 4's channel up to 1e-7: the pool passes the rank
    # SVD (cond ~1e7) but its Gram matrix (cond ~1e14) is past what the
    # unit inverse resolves, so the pairs are solved one by one; users 4
    # and 5, whose own columns carry the ill-conditioning, are then exact
    @pytest.mark.parametrize("name,noise_var", [("zf", None), ("rzf", 1e-12)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_pool_solved_pair_by_pair(self, name, noise_var, seed):
        rng = np.random.default_rng(seed)
        h = crandn(rng, 8, 6)
        h[:, 5] = h[:, 4] + 1e-7 * crandn(rng, 8)
        env = make_env(ula(8), h, np.zeros((6, 3)), locations=False)
        spec = parse_precoder_name(name)
        w = build_precoder(spec, env, noise_var=noise_var)
        for user in (4, 5):
            col = reference_column(spec, user, env, noise_var)
            assert np.abs(w[:, user] - col).max() < 1e-8, user

    def test_leave_one_out_matches_reduced_solves(self):
        rng = np.random.default_rng(4)
        v, r = crandn(rng, 3, 9, 5), crandn(rng, 3, 5, 5)
        a = v.conj().transpose(0, 2, 1) @ v + 0.1 * np.eye(5)
        inv = np.linalg.inv(a)
        inv_cols = inv / np.diagonal(inv, axis1=1, axis2=2)[:, None, :]
        inv_cols[:, range(5), range(5)] = 1
        x = _leave_one_out(inv, inv_cols, r)
        for j in range(5):
            keep = np.arange(5) != j
            expected = np.linalg.solve(a[:, keep][:, :, keep], r[:, keep, j][:, :, None])
            np.testing.assert_allclose(x[:, keep, j], expected[:, :, 0], atol=1e-12)
            assert (x[:, j, j] == 0).all()


class TestRankThreshold:
    # zf on a 4-antenna array whose channel is diagonal: the last user's
    # entry s sets the smallest singular value of every pool it is in,
    # against the threshold eps * sigma_max * max(4, n)
    TOL = 4 * np.finfo(float).eps

    def build(self, *diagonal):
        k = len(diagonal)
        h = np.zeros((4, k), dtype=complex)
        h[range(k), range(k)] = diagonal
        env = make_env(ula(4), h, np.zeros((k, 3)), locations=False)
        return build_precoder(parse_precoder_name("zf"), env)

    # sigma_max = 1 for the pool and for every user's columns
    def test_pool_just_above_threshold_builds(self):
        w = self.build(1.0, 1.0, 1.5 * self.TOL)
        np.testing.assert_allclose(np.abs(w[:3]), np.eye(3), atol=1e-12)

    def test_pool_just_below_threshold_fails(self):
        with pytest.raises(RankDeficiencyError, match=r"user 0, centralized: .*\(4x2\)"):
            self.build(1.0, 1.0, self.TOL / 1.5)

    @pytest.mark.parametrize("factor,user", [(1.5, 1), (1 / 1.5, 0)])
    def test_user_threshold_when_pool_fails(self, factor, user):
        # user 0's columns e_2, s e_3 have sigma_max = 1 and sit at the
        # threshold; the pool and user 1's columns (sigma_max = 1e3) fail
        with pytest.raises(RankDeficiencyError, match=f"user {user}, centralized"):
            self.build(1e3, 1.0, factor * self.TOL)

    def test_deficient_pool_with_full_rank_subsets_builds(self):
        # the pool [e_1, s e_2] fails, but each user's one suppression
        # column is full rank on its own scale
        w = self.build(1.0, self.TOL / 1.5)
        np.testing.assert_allclose(np.abs(w[:2]), np.eye(2), atol=1e-12)


def error_stack(env, s, seed):
    """S estimates of ``env``'s channel from one unit-noise draw: slice 0
    exact (sigma = 0), the others with growing error."""
    h = env.csi.channel
    sigma = np.linspace(0.0, 0.05, s) * float(np.mean(np.abs(h) ** 2))
    return inject_channel_error(h, ChannelErrorModel(tuple(sigma), seed))[0]


def with_channel(env, h):
    """``env`` holding the channel ``h`` under the same grants."""
    return make_env(env.geometry, h, env.ue_positions, granted=env.csi.granted, serving=env.serving)


def assert_slices_match_builds(spec, env, channels, noise_var):
    """Every slice of the batched build equals the single build on that
    slice's channel: its columns within 1e-9, or the same exception class
    and message (and a NaN slice). Returns the per-slice failures."""
    w, failures = build_precoders(spec, env, channels, noise_var)
    reads = spec.requirements().csi_intended or spec.requirements().csi_unintended
    assert w.shape == ((len(channels) if reads else 1),) + channels.shape[1:]
    assert len(failures) == len(w)
    for s, failure in enumerate(failures):
        try:
            expected = build_precoder(spec, with_channel(env, channels[s]), noise_var)
        except PrecodingError as exc:
            assert type(failure) is type(exc) and str(failure) == str(exc), (s, failure)
            assert np.isnan(w[s]).all()
        else:
            assert failure is None, (s, failure)
            assert np.abs(w[s] - expected).max() < 1e-9, s
    return failures


class TestBuildPrecodersBatch:
    """The sigma batch axis: one build for a stack of channel estimates."""

    @pytest.mark.parametrize("name,mode,k", list(oracle_cases()))
    @pytest.mark.parametrize("s", [1, 3])
    def test_slices_match_single_builds(self, name, mode, k, s):
        env, noise_var = oracle_env(k, 1, mode)
        spec = parse_precoder_name(("dis_" if mode == "dis" else "") + name)
        failures = assert_slices_match_builds(spec, env, error_stack(env, s, k), noise_var)
        if (name, mode, k) == ("zf", "dis", 10):  # 9 columns on 8 antennas per AP
            assert all(isinstance(f, RankDeficiencyError) for f in failures)

    @pytest.mark.parametrize("name", ["zf", "dis_zf", "zf_nf", "dis_zf_nf"])
    def test_failing_slice_among_passing(self, name):
        # slice 1 holds users 0 and 1 with one channel: only it fails
        env, noise_var = oracle_env(5, 2, "centralized")
        channels = error_stack(env, 3, 2)
        channels[1][:, 1] = channels[1][:, 0]
        spec = parse_precoder_name(name)
        failures = assert_slices_match_builds(spec, env, channels, noise_var)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], PrecodingError)

    def test_singular_slice_fails_alone(self, monkeypatch):
        # a singular stacked inverse fails only the slice it belongs to:
        # slice 1's Gram entries are 1e6 times the others', the marker the
        # patched inverse treats as singular
        env, noise_var = oracle_env(5, 1, "centralized")
        channels = error_stack(env, 3, 1)
        channels[1] *= 1e3
        inv = np.linalg.inv

        def singular_on_marker(a):
            if np.abs(a).max() > 1e3 * np.abs(env.csi.channel).max() ** 2 * 64:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular_on_marker)
        spec = parse_precoder_name("zf")
        w, failures = build_precoders(spec, env, channels, noise_var)
        assert [f is None for f in failures] == [True, False, True]
        assert str(failures[1]) == (
            "precoder 'zf': singular suppression Gram matrix (Singular matrix)"
        )
        assert isinstance(failures[1], RankDeficiencyError)
        assert np.isnan(w[1]).all()
        for s in (0, 2):
            expected = build_precoder(spec, with_channel(env, channels[s]), noise_var)
            assert np.abs(w[s] - expected).max() < 1e-9

    def test_location_spec_has_one_slice(self):
        env, noise_var = oracle_env(5, 1, "centralized")
        channels = error_stack(env, 3, 1)
        w, failures = build_precoders(parse_precoder_name("nf_nf"), env, channels, noise_var)
        assert w.shape == (1,) + channels.shape[1:] and failures == (None,)

    def test_channels_shape_checked(self):
        env, noise_var = oracle_env(5, 1, "centralized")
        with pytest.raises(ValueError, match="channels must be"):
            build_precoders(parse_precoder_name("mrt"), env, env.csi.channel, noise_var)

    def test_diagonal_view_adds_to_every_matrix(self):
        a = crandn(np.random.default_rng(0), 3, 4, 4)
        expected = a + 0.5 * np.eye(4)
        _diagonal(a)[...] += 0.5
        np.testing.assert_array_equal(a, expected)

    @pytest.mark.parametrize("layout", ["fancy-indexed", "transposed", "strided"])
    def test_diagonal_of_non_contiguous_stack_raises(self, layout):
        # a reshape of these stacks copies: alpha added through it would be
        # lost, so the view refuses them instead
        rng = np.random.default_rng(0)
        a = {
            "fancy-indexed": lambda: crandn(rng, 2, 3, 4, 4)[:, [2, 0]][0],
            "transposed": lambda: crandn(rng, 4, 3, 4).transpose(1, 0, 2),
            "strided": lambda: crandn(rng, 6, 4, 4)[::2],
        }[layout]()
        assert not a.flags.c_contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            _diagonal(a)


# --- properties ------------------------------------------------------------

UNREGULARIZED = ["zf", "nf_nf", "mrt_nf", "zf_nf"]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(PRECODER_NAMES),
    mode=st.sampled_from(SCOPE_MODES),
    k=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_norm_columns_property(name, mode, k, seed):
    if name == "ff" and mode == "centralized":
        return
    env, noise_var = oracle_env(k, seed, mode)
    spec = parse_precoder_name(("dis_" if mode == "dis" else "") + name)
    try:
        w = build_precoder(spec, env, noise_var=noise_var)
    except PrecodingError:
        return
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(UNREGULARIZED),
    mode=st.sampled_from(SCOPE_MODES),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_leakage_property(name, mode, k, seed):
    # every column the spec suppresses is orthogonal to the user's
    # precoder on each assembly unit
    env, _ = oracle_env(k, seed, mode)
    spec = parse_precoder_name(("dis_" if mode == "dis" else "") + name)
    try:
        w = build_precoder(spec, env)
    except PrecodingError:
        return
    geo = env.geometry
    for user in range(k):
        aps = env.serving_aps(user)
        units = [aps] if spec.scope == "centralized" else [(a,) for a in aps]
        for unit in units:
            idx = np.concatenate([geo.ap_indices(a) for a in unit])
            for l in range(k):
                if l == user:
                    continue
                if spec.suppression != "nf" and env.csi.granted[list(unit), l].all():
                    v = env.csi.channel[idx, l]
                elif spec.suppression != "csi":
                    v = near_field_weights(geo, env.ue_positions[l], idx)
                else:
                    continue
                assert abs(np.vdot(v / np.linalg.norm(v), w[idx, user])) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(SCOPE_MODES),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_zf_column_scaling_invariance_property(mode, k, seed):
    env, _ = oracle_env(k, seed, mode)
    spec = parse_precoder_name(("dis_" if mode == "dis" else "") + "zf")
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.1, 10.0, k) * np.exp(2j * np.pi * rng.random(k))
    scaled = make_env(
        env.geometry, env.csi.channel * scales, env.ue_positions,
        granted=env.csi.granted, serving=env.serving,
    )
    try:
        w = build_precoder(spec, env)
    except PrecodingError:
        with pytest.raises(PrecodingError):
            build_precoder(spec, scaled)
        return
    w_scaled = build_precoder(spec, scaled)
    for user in range(k):
        assert_same_direction(w[:, user], w_scaled[:, user], tol=1e-8)


NEAR_COLLINEAR_NAMES = [
    "mrt", "zf", "rzf", "nf", "nf_nf", "mrt_nf", "rmrt_nf", "zf_nf", "rzf_nf",
    "dis_zf", "dis_rzf", "dis_nf_nf", "dis_mrt_nf", "dis_rmrt_nf", "dis_zf_nf",
]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(NEAR_COLLINEAR_NAMES),
    k=st.integers(2, 8),
    log_eps=st.floats(-16.0, -4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_near_collinear_channels_property(name, k, log_eps, seed):
    # every user's channel is h0 up to a complex gain plus a tiny
    # perturbation: a build fails with a precoding error or is sound
    geometry = perimeter_geometry()
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [rng.uniform(1.5, 4.5, k), rng.uniform(1.5, 4.5, k), np.zeros(k)]
    )
    h0 = crandn(rng, geometry.num_antennas, 1)
    gains = crandn(rng, 1, k)
    h = h0 * gains + 10.0**log_eps * crandn(rng, geometry.num_antennas, k)
    env = make_env(geometry, h, positions)
    noise_var = 1e-2 * float(np.mean(np.sum(np.abs(h) ** 2, axis=0)))
    try:
        w = build_precoder(parse_precoder_name(name), env, noise_var=noise_var)
    except PrecodingError:
        return
    assert np.isfinite(w).all()
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-10)
