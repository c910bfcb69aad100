import collections
import concurrent.futures
import dataclasses
import functools
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmimo import (
    ChannelErrorModel,
    GridSpec,
    LinkRealization,
    LosChannelParams,
    ScenarioConfig,
    build_precoder,
    cluster_users,
    default_roi,
    generate_synthetic_dataset,
    inject_channel_error,
    los_channel,
    noise_variance_from_floor,
    parse_precoder_name,
    perimeter_geometry,
    read_dataset,
    run_chunk,
    run_scenario,
    sinr_all,
    write_dataset,
)
from dmimo import geometry, precoders, scenarios
from dmimo.cli import main as cli_main
from dmimo.cli import summary_document
from dmimo.errors import ConfigError, RankDeficiencyError
from dmimo.scenarios import draw_trial_channels, validate_config


def make_config(**overrides):
    base = dict(
        geometry=perimeter_geometry(),
        roi=default_roi(),
        k_users=3,
        trials=4,
        precoders=tuple(parse_precoder_name(n) for n in ["mrt", "zf"]),
        rng_seed=123,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_trial(config, t, noise_var, sigma_points=(None,), sampler=None):
    """Trial t on its own: ``run_chunk`` of one trial, arrays (S, P, K),
    (S, P) and (S,)."""
    return tuple(a[0] for a in run_chunk(config, [t], noise_var, sigma_points, sampler))


class TestValidation:
    def test_valid_config_passes(self):
        validate_config(make_config())

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(trials=0),
            dict(k_users=0),
            dict(precoders=()),
            dict(workers=0),
            dict(rng_seed=-1),
            dict(noise_floor_db=float("nan")),
            dict(min_spacing_m=-0.1),
            dict(channel_source="measured"),
            dict(channel_source="dataset"),  # missing dataset_path
            dict(nmse_grid=()),
            dict(nmse_grid=(-0.1,)),
            dict(clustering=((0, 1), (2, 3))),  # does not cover all APs
            dict(clustering=((0, 1), (1, 2), (3, 4), (5, 6))),  # overlap
            dict(clustering=((0, 1, 2), (3, 4), (5, 6), (7, 7))),  # not pairs
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            validate_config(make_config(**overrides))

    def test_duplicate_precoder_names(self):
        cfg = make_config(
            precoders=(parse_precoder_name("zf"), parse_precoder_name("zf"))
        )
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_far_field_needs_collinear_assembly(self):
        # the perimeter array is not globally collinear
        cfg = make_config(precoders=(parse_precoder_name("ff"),))
        with pytest.raises(ConfigError):
            validate_config(cfg)
        # per-AP assembly is collinear, so the distributed variant is fine
        validate_config(make_config(precoders=(parse_precoder_name("dis_ff"),)))


class TestClusterUsers:
    def test_concentrated_gain(self, geometry):
        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        gains = np.zeros((1, geometry.num_antennas))
        gains[0, geometry.ap_indices(4)] = 1.0  # all gain on pair 2's antennas
        assignment = cluster_users(gains, pairs, geometry)
        assert assignment.ue_to_pair[0] == 2

    def test_tie_breaks_to_lowest_index(self, geometry):
        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        gains = np.ones((2, geometry.num_antennas))
        assignment = cluster_users(gains, pairs, geometry)
        np.testing.assert_array_equal(assignment.ue_to_pair, [0, 0])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_argmax_property(self, seed):
        geometry = perimeter_geometry()
        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        rng = np.random.default_rng(seed)
        gains = rng.uniform(0.0, 1.0, (6, geometry.num_antennas))
        assignment = cluster_users(gains, pairs, geometry)
        for k in range(6):
            best = assignment.mean_gains[k].max()
            chosen = assignment.ue_to_pair[k]
            assert assignment.mean_gains[k, chosen] == best
            # lowest index among maximizers
            maximizers = np.flatnonzero(assignment.mean_gains[k] == best)
            assert chosen == maximizers[0]

    def test_mean_gain_values(self, geometry):
        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        gains = np.arange(geometry.num_antennas, dtype=float)[None, :]
        assignment = cluster_users(gains, pairs, geometry)
        idx = np.concatenate([geometry.ap_indices(0), geometry.ap_indices(1)])
        assert assignment.mean_gains[0, 0] == pytest.approx(gains[0, idx].mean())

    def test_gain_map_gives_contiguous_regions(self, geometry):
        # clustering every point of a position grid by channel gain
        # produces one connected spatial region per pair
        from dmimo import LosChannelParams, los_channel

        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        params = LosChannelParams(wavelength=geometry.wavelength)
        n = 24
        xs = np.linspace(1.3, 4.7, n)
        points = np.array([[x, y, 0.0] for x in xs for y in xs])
        gains = np.stack(
            [np.abs(los_channel(geometry, p, params)) ** 2 for p in points]
        )
        labels = cluster_users(gains, pairs, geometry).ue_to_pair.reshape(n, n)
        for pair_idx in range(4):
            cells = {(i, j) for i in range(n) for j in range(n) if labels[i, j] == pair_idx}
            assert cells, f"pair {pair_idx} has an empty region"
            seen = {next(iter(sorted(cells)))}
            frontier = list(seen)
            while frontier:
                i, j = frontier.pop()
                for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                    if (ni, nj) in cells and (ni, nj) not in seen:
                        seen.add((ni, nj))
                        frontier.append((ni, nj))
            assert seen == cells, f"pair {pair_idx} region is disconnected"


class TestRunTrial:
    def test_single_user_mrt_is_snr(self):
        cfg = make_config(k_users=1, precoders=(parse_precoder_name("mrt"),))
        noise = 1e-6
        sinr_db, _, _ = run_trial(cfg, 0, noise_var=noise)
        positions, h = draw_trial_channels(cfg, 0)
        expected = 10 * np.log10(float(np.sum(np.abs(h) ** 2)) / noise)
        assert sinr_db[0, 0, 0] == pytest.approx(expected, rel=1e-10)

    def test_complete_record_per_precoder(self):
        cfg = make_config(nmse_grid=(0.0, 1e-7), k_users=2)
        sinr_db, failures, nmse = run_trial(
            cfg, 1, noise_var=1e-6, sigma_points=(0.0, 1e-7)
        )
        # one record per (sigma point, precoder), in configured order
        assert sinr_db.shape == (2, 2, 2)
        assert failures.tolist() == [[None, None], [None, None]]
        assert nmse[0] == 0.0 and nmse[1] > 0.0
        assert np.isfinite(sinr_db).all()
        perfect, _, _ = run_trial(cfg, 1, noise_var=1e-6)
        np.testing.assert_array_equal(sinr_db[0], perfect[0])
        mrt_only, _, _ = run_trial(
            dataclasses.replace(cfg, precoders=cfg.precoders[:1]),
            1, noise_var=1e-6, sigma_points=(0.0, 1e-7),
        )
        np.testing.assert_array_equal(sinr_db[:, :1], mrt_only)

    def test_rank_deficiency_recorded_not_raised(self):
        cfg = make_config(
            k_users=10,
            precoders=(parse_precoder_name("dis_zf"), parse_precoder_name("dis_rzf")),
        )
        sinr_db, failures, _ = run_trial(cfg, 0, noise_var=1e-6)
        assert failures[0, 0] is not None
        assert "RankDeficiencyError" in failures[0, 0]
        assert np.isnan(sinr_db[0, 0]).all()
        assert failures[0, 1] is None
        assert sinr_db[0, 1].shape == (10,)
        assert np.isfinite(sinr_db[0, 1]).all()

    def test_singular_solve_recorded_not_raised(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        # zf inverts its unit's Gram matrix; rzf, whose weight (the noise
        # variance, 1e-12) is too small for the inverse's trace bound on
        # these channels (Gram trace ~1.5e-3), solves pair by pair
        names = ("mrt", "zf", "rzf")
        cfg = make_config(precoders=tuple(parse_precoder_name(n) for n in names))
        for routine, p in (("inv", 1), ("solve", 2)):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, routine, singular)
                sinr_db, failures, _ = run_trial(cfg, 0, noise_var=1e-12)
            assert np.isnan(sinr_db[0, p]).all()
            assert failures[0, p] == (
                f"RankDeficiencyError: precoder '{names[p]}': singular suppression "
                "Gram matrix (Singular matrix)"
            )
            assert [f is None for f in failures[0]] == [q != p for q in range(3)]

    def test_synthetic_draw_synthesizes_channels_once(self, monkeypatch):
        calls = []

        def counting(geometry, positions, params):
            calls.append(np.shape(positions))
            return los_channel(geometry, positions, params)

        monkeypatch.setattr(scenarios, "los_channel", counting)
        cfg = make_config(k_users=6)
        for t in range(3):
            draw_trial_channels(cfg, t)
        assert calls == [(6, 3)] * 3

    def test_positions_respect_roi_and_spacing(self):
        cfg = make_config(k_users=5, min_spacing_m=0.10)
        p, _ = draw_trial_channels(cfg, 3)
        assert np.all(p >= cfg.roi.lo - 1e-12) and np.all(p <= cfg.roi.hi + 1e-12)
        d = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.10


class TestDeterminism:
    def test_same_seed_same_summary(self):
        cfg = make_config(trials=5, k_users=4)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.noise_var == b.noise_var
        for sa, sb in zip(a.stats, b.stats):
            assert sa.median_db == sb.median_db
            assert sa.guaranteed_90_db == sb.guaranteed_90_db
        for t in range(cfg.trials):
            np.testing.assert_array_equal(
                draw_trial_channels(cfg, t)[0], draw_trial_channels(cfg, t)[0]
            )
        np.testing.assert_array_equal(a.sinr_db, b.sinr_db)
        np.testing.assert_array_equal(a.failures, b.failures)

    def test_parallel_matches_serial(self):
        cfg = make_config(trials=6, k_users=3)
        serial = run_scenario(cfg)
        parallel = run_scenario(dataclasses.replace(cfg, workers=2))
        assert serial.sinr_db.shape == parallel.sinr_db.shape == (6, 1, 2, 3)
        np.testing.assert_array_equal(serial.sinr_db, parallel.sinr_db)
        np.testing.assert_array_equal(serial.failures, parallel.failures)

    def test_different_seeds_differ(self):
        a = run_scenario(make_config(rng_seed=1))
        b = run_scenario(make_config(rng_seed=2))
        assert a.stats[0].median_db != b.stats[0].median_db

    def test_single_trial_summary_equals_trial(self):
        cfg = make_config(trials=1, k_users=4)
        summary = run_scenario(cfg)
        for p, stat in enumerate(summary.stats):
            assert stat.precoder == cfg.precoders[p].name
            sinr_db = summary.sinr_db[0, 0, p]
            assert stat.n_samples == 4
            assert stat.median_db == pytest.approx(float(np.median(sinr_db)))
            assert stat.guaranteed_90_db == pytest.approx(
                float(np.quantile(sinr_db, 0.1))
            )


class TestNmseSweep:
    def test_nf_nf_invariant_across_grid(self):
        cfg = make_config(
            k_users=4,
            trials=3,
            precoders=(parse_precoder_name("nf_nf"), parse_precoder_name("zf")),
            nmse_grid=(0.0, 0.1, 0.3),
            nmse_relative=True,
        )
        summary = run_scenario(cfg)
        nf_rows = [s for s in summary.stats if s.precoder == "nf_nf"]
        assert len(nf_rows) == 3
        # no CSI consumed: bit-identical SINR at every grid point
        assert len({row.median_db for row in nf_rows}) == 1
        zf_rows = [s for s in summary.stats if s.precoder == "zf"]
        assert len({row.median_db for row in zf_rows}) == 3

    def test_one_inverse_per_spec_over_the_grid(self, monkeypatch):
        # a location-made pool (rmrt_nf, dis_rmrt_nf) is inverted once for
        # all five sigma points; a CSI pool (dis_rzf) once per trial too,
        # as one stack of 5 x 8 unit Gram matrices
        shapes = collections.defaultdict(list)
        inv = np.linalg.inv

        def counting(a):
            shapes[current].append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        points = (0.0, 1e-7, 2e-7, 5e-7, 1e-6)
        for current in ("rmrt_nf", "dis_rmrt_nf", "dis_rzf"):
            cfg = make_config(k_users=10, precoders=(parse_precoder_name(current),))
            _, failures, _ = run_trial(cfg, 2, noise_var=1e-6, sigma_points=points)
            assert np.equal(failures, None).all()
        assert shapes == {
            "rmrt_nf": [(1, 10, 10)],
            "dis_rmrt_nf": [(8, 10, 10)],
            "dis_rzf": [(40, 10, 10)],
        }

    def test_location_pool_once_per_spec_and_chunk(self, monkeypatch):
        # nf_nf and mrt_nf suppress by the same unregularized near-field
        # pool, rmrt_nf by one carrying alpha: each spec rank-checks and
        # inverts its pool once for the whole chunk and sigma grid
        calls = collections.Counter()
        for name in ("inv", "svd"):
            def counting(*args, name=name, inner=getattr(np.linalg, name), **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        names = ["nf_nf", "mrt_nf", "rmrt_nf"]
        cfg = make_config(k_users=10, precoders=tuple(parse_precoder_name(n) for n in names))
        points = (0.0, 1e-7, 2e-7)
        _, failures, _ = scenarios.run_chunk(cfg, range(2, 5), 1e-6, points)
        assert np.equal(failures, None).all()
        assert calls == {"inv": 3, "svd": 2}

    def test_location_state_derived_once_per_chunk(self, monkeypatch):
        # one distance pass gives the chunk's channels and near-field
        # matrix, and its environment derives the assembly units once per
        # scope, for every spec, trial and sigma point of the chunk
        calls = collections.Counter()
        originals = {name: getattr(precoders, name) for name in ("distance_phasors", "_assembly")}
        for module, name in [(geometry, "distance_phasors"), (precoders, "distance_phasors"),
                             (scenarios, "distance_phasors"), (precoders, "_assembly")]:
            def counting(*args, name=name):
                calls[name] += 1
                return originals[name](*args)

            monkeypatch.setattr(module, name, counting)
        names = ["mrt", "nf_nf", "mrt_nf", "rzf", "dis_rzf", "dis_rmrt_nf"]
        cfg = make_config(k_users=4, precoders=tuple(parse_precoder_name(n) for n in names))
        points = (0.0, 1e-7, 2e-7)
        _, failures, _ = scenarios.run_chunk(cfg, range(2, 6), 1e-6, points)
        assert np.equal(failures, None).all()
        assert calls == {"distance_phasors": 1, "_assembly": 2}
        # the shared pass gives the bits of the channel synthesis and of
        # the near field an environment derives from the positions
        monkeypatch.undo()
        sampler = scenarios._make_sampler(cfg)
        positions, h = scenarios.draw_channels(cfg, range(2, 6), sampler)
        shared_h, phasors = sampler.channels_and_near_field(positions)
        derived = scenarios._chunk_environment(cfg, h, positions).near_field
        assert shared_h.tobytes() == h.tobytes() and phasors.tobytes() == derived.tobytes()

    def test_location_only_entries_repeat_across_sigma(self, monkeypatch):
        # one build per (trial, spec); only the specs that read CSI get a
        # slice per sigma point
        calls, slices = collections.Counter(), {}

        def counting(spec, env, channels=None, noise_var=None, build=scenarios.build_precoders):
            calls[spec.name] += 1
            w, errors = build(spec, env, channels, noise_var)
            slices[spec.name] = w.shape[1]
            return w, errors

        monkeypatch.setattr(scenarios, "build_precoders", counting)
        names = ["mrt", "nf_nf", "dis_nf_nf", "dis_rzf"]
        cfg = make_config(
            k_users=10, precoders=tuple(parse_precoder_name(n) for n in names)
        )
        points = (0.0, 1e-7, 2e-7)
        sinr_db, failures, nmse = run_trial(cfg, 2, noise_var=1e-6, sigma_points=points)
        assert calls == {"mrt": 1, "nf_nf": 1, "dis_nf_nf": 1, "dis_rzf": 1}
        assert slices == {"mrt": 3, "nf_nf": 1, "dis_nf_nf": 1, "dis_rzf": 3}
        col = {n: p for p, n in enumerate(names)}
        # dis_nf_nf has 9 columns on 8 antennas: its failure repeats too
        assert failures[0, col["dis_nf_nf"]].startswith("RankDeficiencyError")
        assert failures[0, col["nf_nf"]] is None
        for name in ("nf_nf", "dis_nf_nf"):
            p = col[name]
            for s in (1, 2):
                assert failures[s, p] == failures[0, p]
                np.testing.assert_array_equal(sinr_db[s, p], sinr_db[0, p])
        assert len(set(nmse.tolist())) == 3
        for name in ("mrt", "dis_rzf"):
            assert not np.array_equal(sinr_db[1, col[name]], sinr_db[2, col[name]])

    def test_relative_grid_hits_target_nmse(self):
        cfg = make_config(
            k_users=4,
            trials=10,
            precoders=(parse_precoder_name("mrt"),),
            nmse_grid=(0.1,),
            nmse_relative=True,
        )
        summary = run_scenario(cfg)
        assert summary.stats[0].mean_nmse == pytest.approx(0.1, rel=0.25)

    def test_absolute_grid_passes_sigma_through(self):
        cfg = make_config(
            k_users=2,
            trials=2,
            precoders=(parse_precoder_name("mrt"),),
            nmse_grid=(1e-9,),
        )
        summary = run_scenario(cfg)
        assert summary.sigma_grid == (1e-9,)


class TestNoiseVariance:
    def test_noise_var_over_all_configured_trials(self):
        # the floor is relative to the mean gain over every configured
        # trial, so a shorter run is not a prefix of a longer one
        cfg = make_config(trials=6)
        noise_vars = []
        for trials in (6, 3):
            run = dataclasses.replace(cfg, trials=trials)
            gain = np.mean(
                [np.sum(np.abs(draw_trial_channels(run, t)[1]) ** 2) for t in range(trials)]
            )
            expected = noise_variance_from_floor(run.noise_floor_db, gain / run.k_users)
            noise_vars.append(run_scenario(run).noise_var)
            assert noise_vars[-1] == pytest.approx(expected, rel=1e-12)
        assert noise_vars[0] != pytest.approx(noise_vars[1], rel=1e-3)


class TestClusteringScenario:
    def test_serving_antennas_only(self):
        pairs = ((0, 1), (2, 3), (4, 5), (6, 7))
        cfg = make_config(
            k_users=6,
            trials=2,
            precoders=(parse_precoder_name("rzf"), parse_precoder_name("zf_nf")),
            clustering=pairs,
        )
        summary = run_scenario(cfg)
        assert np.equal(summary.failures, None).all()
        geo = cfg.geometry
        pair_antennas = [
            np.concatenate([geo.ap_indices(a) for a in pair]) for pair in pairs
        ]
        for t in range(cfg.trials):
            positions, h = draw_trial_channels(cfg, t)
            env = scenarios._chunk_environment(cfg, h[None], positions[None]).trial(0)
            gains = np.abs(h.T) ** 2
            for k in range(cfg.k_users):
                best = np.argmax([gains[k, idx].mean() for idx in pair_antennas])
                assert env.serving_aps(k) == pairs[best]
            # rebuild the precoders to check the support pattern
            for p, spec in enumerate(cfg.precoders):
                w = build_precoder(spec, env, noise_var=summary.noise_var)
                np.testing.assert_array_equal(
                    sinr_all(LinkRealization(h, w, summary.noise_var))[1],
                    summary.sinr_db[t, 0, p],
                )
                for k in range(cfg.k_users):
                    outside = np.ones(geo.num_antennas, dtype=bool)
                    outside[pair_antennas[pairs.index(env.serving_aps(k))]] = False
                    assert np.all(w[outside, k] == 0)

    def test_cluster_stats_complete(self):
        cfg = make_config(
            k_users=6,
            trials=2,
            precoders=tuple(
                parse_precoder_name(n) for n in ["rzf", "zf_nf", "rzf_nf", "nf_nf"]
            ),
            clustering=((0, 1), (2, 3), (4, 5), (6, 7)),
        )
        summary = run_scenario(cfg)
        assert len(summary.stats) == 4
        assert all(s.n_samples == 12 for s in summary.stats)
        assert all(s.n_failed_trials == 0 for s in summary.stats)


class TestDatasetMode:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        geometry = perimeter_geometry()
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=12, ny=12, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)
        grid, manifest, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=2)
        out = tmp_path / "dataset"
        write_dataset(grid, manifest, out)
        return out

    def test_positions_snap_to_grid(self, dataset_dir):
        cfg = make_config(
            k_users=4,
            channel_source="dataset",
            dataset_path=str(dataset_dir),
        )
        positions, h = draw_trial_channels(cfg, 0)
        xs = np.linspace(1.25, 4.75, 12)
        for p in positions:
            assert np.min(np.abs(xs - p[0])) < 1e-9
            assert np.min(np.abs(xs - p[1])) < 1e-9
        assert len({tuple(np.round(p, 9)) for p in positions}) == 4

    @pytest.fixture
    def partial_dataset(self, dataset_dir, tmp_path):
        """The grid with tx 0 lacking one rx on grid rows m < 6 and the
        tx-1 CSI made distinct, and the directory it is written to."""
        grid, manifest = read_dataset(dataset_dir)
        csi, present = grid.csi.copy(), grid.present.copy()
        csi[1] *= 2j
        present[0, 0, :6] = False
        grid = dataclasses.replace(grid, csi=csi, present=present)
        write_dataset(grid, manifest, tmp_path / "partial")
        return grid, tmp_path / "partial"

    def test_distinct_cells_sample_lowest_full_tx(self, partial_dataset):
        # ten users on a 12x12 grid without spacing often snap to one cell
        # and must be re-placed; on rows m < 6 each column is tx-1 CSI
        grid, path = partial_dataset
        cfg = make_config(
            k_users=10,
            min_spacing_m=0.0,
            channel_source="dataset",
            dataset_path=str(path),
        )
        cells = grid.positions.reshape(-1, 3)
        for t in range(20):
            positions, h = draw_trial_channels(cfg, t)
            flat = [int(np.argmin(np.linalg.norm(cells - p, axis=1))) for p in positions]
            assert len(set(flat)) == 10
            m, n = np.unravel_index(flat, grid.grid_shape)
            np.testing.assert_array_equal(h, grid.csi[(m < 6).astype(int), :, m, n].T)

    def test_sampler_keeps_each_cells_lowest_full_tx(self, partial_dataset):
        # every cell's channel is the grid's CSI at its lowest full tx,
        # bit for bit, though the sampler keeps only that tx
        grid, path = partial_dataset
        sampler = scenarios._make_sampler(
            make_config(channel_source="dataset", dataset_path=str(path))
        )
        m, n = np.unravel_index(np.arange(grid.csi[0, 0].size), grid.grid_shape)
        h = sampler.channels(np.arange(m.size)[None])[0]
        np.testing.assert_array_equal(h, grid.csi[(m < 6).astype(int), :, m, n].T)
        np.testing.assert_array_equal(sampler.positions(np.arange(m.size)), grid.positions[m, n])

    def test_scenario_runs_on_dataset(self, dataset_dir):
        cfg = make_config(
            k_users=3,
            trials=3,
            channel_source="dataset",
            dataset_path=str(dataset_dir),
            precoders=(parse_precoder_name("mrt"), parse_precoder_name("nf_nf")),
        )
        summary = run_scenario(cfg)
        assert all(s.n_failed_trials == 0 for s in summary.stats)
        # interference suppression pays off even on measured CSI
        by_name = {s.precoder: s for s in summary.stats}
        assert by_name["nf_nf"].median_db >= by_name["mrt"].median_db

    def test_workers_match_serial_and_read_once(self, dataset_dir, tmp_path, monkeypatch):
        # Forked workers inherit the counting wrapper, so a worker that
        # re-read the dataset would add a line to the log.
        log, read = tmp_path / "reads.log", scenarios.read_dataset

        def counting_read(path):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return read(path)

        monkeypatch.setattr(scenarios, "read_dataset", counting_read)
        sent = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                sent.append(pickle.dumps((fn, args, kwargs)))
                return super().submit(fn, *args, **kwargs)

        # run_scenario imports the pool class when it makes a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = make_config(
            k_users=3,
            trials=6,
            channel_source="dataset",
            dataset_path=str(dataset_dir),
            precoders=tuple(parse_precoder_name(n) for n in ["mrt", "nf_nf", "zf"]),
        )
        serial = run_scenario(cfg)
        log.unlink()
        parallel = run_scenario(dataclasses.replace(cfg, workers=2))
        assert log.read_text() == f"{os.getpid()}\n"
        # the sampler goes to each worker once, not with every task
        assert sent and not any(b"Sampler" in task for task in sent)
        assert (
            summary_document(parallel)["precoders"]
            == summary_document(serial)["precoders"]
        )
        assert parallel.noise_var == serial.noise_var
        np.testing.assert_array_equal(parallel.sinr_db, serial.sinr_db)
        np.testing.assert_array_equal(parallel.failures, serial.failures)

    def test_chunk_task_keeps_given_sampler(self, dataset_dir, monkeypatch):
        # the pool initializer gives a worker the run's sampler once; a
        # pickled chunk task carries its trials and the noise level only,
        # and runs on that sampler without re-reading the dataset
        cfg = make_config(channel_source="dataset", dataset_path=str(dataset_dir))
        sampler = scenarios._make_sampler(cfg)

        def no_read(path):
            raise AssertionError("worker re-read the dataset")

        monkeypatch.setattr(scenarios, "read_dataset", no_read)
        monkeypatch.setattr(scenarios, "_worker_run", ())
        scenarios._init_pool_worker(cfg, sampler)
        run = functools.partial(scenarios.run_chunk, noise_var=1e-3, sigma_points=(None,))
        payload = pickle.dumps(functools.partial(scenarios._pool_task, run))
        assert b"Sampler" not in payload and b"ScenarioConfig" not in payload
        chunk = pickle.loads(payload)(range(1, 4))
        for b, t in enumerate(range(1, 4)):
            for a, e in zip(chunk, run_trial(cfg, t, 1e-3, (None,), sampler), strict=True):
                np.testing.assert_array_equal(a[b], e)

    def test_geometry_mismatch_rejected(self, dataset_dir):
        cfg = make_config(
            geometry=perimeter_geometry(n_aps=4, antennas_per_ap=8),
            k_users=2,
            channel_source="dataset",
            dataset_path=str(dataset_dir),
        )
        with pytest.raises(ConfigError):
            run_scenario(cfg)


class TestOrderingProperty:
    def test_full_coordination_medians(self):
        # the qualitative ordering on synthetic LoS channels with defaults
        cfg = make_config(
            k_users=5,
            trials=150,
            precoders=tuple(
                parse_precoder_name(n)
                for n in ["nf", "mrt", "nf_nf", "mrt_nf", "zf", "rzf"]
            ),
            rng_seed=77,
        )
        summary = run_scenario(cfg)
        med = {s.precoder: s.median_db for s in summary.stats}
        assert med["zf"] >= med["mrt_nf"] >= med["mrt"]
        assert med["rzf"] >= med["mrt"]
        assert med["nf_nf"] >= med["mrt"]


BUNDLED = sorted(
    p.stem for p in (Path(__file__).resolve().parent.parent / "configs").glob("*.yaml")
    if p.stem != "generate_dataset"
)


class TestChunks:
    """Trials run in chunks; chunking and worker count cannot change a byte."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_outputs_identical_across_chunking_and_workers(self, name, tmp_path, monkeypatch):
        config = Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml"
        outputs = {}
        monkeypatch.setattr(scenarios, "CHUNK_ENTRIES", 10**9)
        for chunk in (1, 3, 13):
            monkeypatch.setattr(scenarios, "CHUNK_TRIALS", chunk)
            for workers in (1, 2):
                out = tmp_path / f"{chunk}-{workers}"
                argv = ["simulate", "--config", str(config), "--out", str(out),
                        "--trials", "13", "--workers", str(workers)]
                assert cli_main(argv) == 0
                summary = (out / "summary.json").read_bytes()
                assert summary.count(f'"workers": {workers}'.encode()) == 1
                outputs[chunk, workers] = (
                    (out / "results.csv").read_bytes(),
                    summary.replace(f'"workers": {workers}'.encode(), b'"workers": 1'),
                )
        assert len(set(outputs.values())) == 1

    def test_chunk_boundaries(self):
        # at most CHUNK_TRIALS trials, CHUNK_ENTRIES stack entries (here
        # 5 x 3 x (64 + 8 x 3) = 1320 per trial) and an eighth of a
        # worker's share each
        cfg = make_config(trials=10, nmse_grid=(0.0, 0.1, 0.2, 0.3, 0.4))
        assert scenarios._chunks(cfg) == [range(0, 10)]
        assert scenarios._chunks(dataclasses.replace(cfg, trials=50))[-1] == range(36, 50)
        pool = dataclasses.replace(cfg, trials=200, workers=2)
        assert scenarios._chunks(pool) == [range(t, t + 13) for t in range(0, 195, 13)] + [
            range(195, 200)
        ]
        assert scenarios._chunks(dataclasses.replace(cfg, trials=3, workers=4)) == [
            range(0, 1), range(1, 2), range(2, 3)
        ]
        wide = dataclasses.replace(cfg, k_users=40, trials=3)  # past the entry budget
        assert scenarios._chunks(wide) == [range(0, 1), range(1, 2), range(2, 3)]

    @pytest.mark.parametrize("clustered", [False, True])
    def test_chunk_slice_equals_its_own_build(self, clustered):
        names = ["nf", "mrt", "zf", "rzf", "nf_nf", "mrt_nf", "rmrt_nf", "zf_nf", "rzf_nf",
                 "dis_zf", "dis_rzf", "dis_mrt_nf", "dis_rmrt_nf", "dis_zf_nf"]
        cfg = make_config(
            k_users=6, clustering=((0, 1), (2, 3), (4, 5), (6, 7)) if clustered else None
        )
        positions, h = scenarios.draw_channels(cfg, range(5))
        env = scenarios._chunk_environment(cfg, h, positions)
        channels = np.stack([
            inject_channel_error(h[b], ChannelErrorModel((0.0, 1e-7, 1e-6), b))[0]
            for b in range(5)
        ])
        for spec in map(parse_precoder_name, names):
            w, failures = precoders.build_precoders(spec, env, channels, 1e-6)
            for b in range(5):
                one_w, one_failures = precoders.build_precoders(spec, env.trial(b), channels[b], 1e-6)
                np.testing.assert_array_equal(w[b], one_w)
                assert list(map(repr, failures[b])) == list(map(repr, one_failures))

    @pytest.mark.parametrize("source", ["synthetic", "clustered", "dataset"])
    def test_each_trial_placed_once(self, source, tmp_path, monkeypatch):
        # the noise pre-pass places every trial and hands each chunk its
        # placement: the trials run on it without placing again
        placed = []

        def counting(config, trial_index, sampler, place=scenarios._place):
            placed.append(trial_index)
            return place(config, trial_index, sampler)

        monkeypatch.setattr(scenarios, "_place", counting)
        monkeypatch.setattr(scenarios, "CHUNK_TRIALS", 3)
        cfg = make_config(trials=7, precoders=(parse_precoder_name("nf_nf"),))
        if source == "clustered":
            cfg = dataclasses.replace(cfg, clustering=((0, 1), (2, 3), (4, 5), (6, 7)))
        if source == "dataset":
            geometry = perimeter_geometry()
            spec = GridSpec(nx=12, ny=12, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)
            grid, manifest, _ = generate_synthetic_dataset(
                geometry, spec, LosChannelParams(wavelength=geometry.wavelength), tx_count=2
            )
            write_dataset(grid, manifest, tmp_path / "ds")
            cfg = dataclasses.replace(cfg, channel_source="dataset",
                                      dataset_path=str(tmp_path / "ds"))
        summary = run_scenario(cfg)
        assert placed == list(range(7))
        for t in range(7):
            one = run_trial(cfg, t, summary.noise_var)
            np.testing.assert_array_equal(summary.sinr_db[t], one[0])

    @pytest.mark.parametrize("clustered", [False, True])
    def test_spec_order_does_not_change_builds(self, clustered):
        # every spec reads the environment's shared location state; a
        # chunk's specs built in reverse order give the same arrays
        names = ["nf", "mrt", "rzf", "nf_nf", "mrt_nf", "rmrt_nf", "zf_nf",
                 "dis_zf", "dis_rzf", "dis_mrt_nf", "dis_rmrt_nf"]
        cfg = make_config(
            k_users=6, clustering=((0, 1), (2, 3), (4, 5), (6, 7)) if clustered else None
        )
        positions, h = scenarios.draw_channels(cfg, range(4))
        channels = np.stack([
            inject_channel_error(h[b], ChannelErrorModel((0.0, 1e-7), b))[0] for b in range(4)
        ])
        specs = list(map(parse_precoder_name, names))

        def builds(order):
            env = scenarios._chunk_environment(cfg, h, positions)
            return {spec.name: precoders.build_precoders(spec, env, channels, 1e-6)
                    for spec in order}

        forward, backward = builds(specs), builds(specs[::-1])
        for name, (w, failures) in forward.items():
            assert w.tobytes() == backward[name][0].tobytes()
            assert repr(failures) == repr(backward[name][1])

    def test_shared_location_state_is_read_only(self):
        # the near-field matrix and assembly units are derived once per
        # environment and shared by its builds, so none may be written;
        # a one-trial copy derives its own
        cfg = make_config(k_users=4, clustering=((0, 1), (2, 3), (4, 5), (6, 7)))
        positions, h = scenarios.draw_channels(cfg, range(3))
        env = scenarios._chunk_environment(cfg, h, positions)
        shared = [env.near_field] + [
            x for scope in precoders.SCOPES for x in env.assembly(scope)
            if isinstance(x, np.ndarray)
        ]
        assert len(shared) == 11
        for x in shared:
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = x.flat[0]
        assert env.near_field is env.near_field
        assert env.assembly("per-ap") is env.assembly("per-ap")
        one = env.trial(1)
        assert "near_field" not in vars(one) and not one._assemblies
        np.testing.assert_array_equal(one.near_field[0], env.near_field[1])

    def test_dis_zf_fails_every_trial_of_a_chunk(self):
        cfg = make_config(k_users=10, precoders=(parse_precoder_name("dis_zf"),))
        sinr_db, failures, _ = scenarios.run_chunk(cfg, range(6), 1e-6)
        assert sinr_db.shape == (6, 1, 1, 10) and np.isnan(sinr_db).all()
        assert all(f.startswith("RankDeficiencyError: precoder 'dis_zf', user 0, AP 0: ")
                   for f in failures.ravel())

    def test_singular_slice_fails_only_its_trial_and_sigma(self, monkeypatch):
        # slice (1, 2) is scaled by 1e3: the patched inverse treats a
        # Gram matrix that large as singular
        cfg = make_config(k_users=4)
        positions, h = scenarios.draw_channels(cfg, range(3))
        env = scenarios._chunk_environment(cfg, h, positions)
        channels = np.repeat(h[:, None], 3, axis=1)
        channels[1, 2] *= 1e3
        inv = np.linalg.inv

        def singular_on_marker(a):
            if np.abs(a).max() > 1e3 * np.abs(h).max() ** 2 * 64:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular_on_marker)
        spec = parse_precoder_name("zf")
        w, failures = precoders.build_precoders(spec, env, channels, 1e-6)
        assert [[f is None for f in row] for row in failures] == [
            [True] * 3, [True, True, False], [True] * 3
        ]
        assert str(failures[1][2]) == (
            "precoder 'zf': singular suppression Gram matrix (Singular matrix)"
        )
        assert isinstance(failures[1][2], RankDeficiencyError)
        assert np.isnan(w[1, 2]).all() and not np.isnan(np.delete(w.reshape(9, -1), 5, 0)).any()
        for b, s in [(0, 0), (1, 1), (2, 2)]:
            one = precoders.build_precoders(spec, env.trial(b), channels[b, s][None], 1e-6)[0]
            np.testing.assert_array_equal(w[b, s], one[0])

    def test_dataset_replacement_inside_a_chunk(self, tmp_path):
        # ten users on a 12x12 grid without spacing often snap to one
        # cell: a chunk re-places those trials from their own streams,
        # as drawing each trial alone does
        geometry = perimeter_geometry()
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=12, ny=12, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)
        grid, manifest, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=2)
        write_dataset(grid, manifest, tmp_path / "ds")
        cfg = make_config(k_users=10, min_spacing_m=0.0, channel_source="dataset",
                          dataset_path=str(tmp_path / "ds"))
        sampler = scenarios._make_sampler(cfg)
        snaps = []
        snap = sampler.snap
        sampler.snap = lambda positions: snaps.append(1) or snap(positions)
        positions, h = scenarios.draw_channels(cfg, range(12), sampler)
        assert len(snaps) > 12  # some trial collided and was re-placed
        for t in range(12):
            p, one = draw_trial_channels(cfg, t)
            np.testing.assert_array_equal(positions[t], p)
            np.testing.assert_array_equal(h[t], one)
