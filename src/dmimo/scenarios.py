"""Monte Carlo evaluation scenarios.

A scenario repeatedly places UEs, derives channels (synthetic LoS or
sampled from a measured CSI dataset), builds every configured precoder
and records per-user SINR under simultaneous transmission to all users.
Supported setups: full AP coordination, distributed (per-AP) operation,
channel-estimation-error sweeps, and network-centric clustering where
each AP pair serves the users with the best average channel gain and
suppresses inter-cluster interference from location information.

Trials run in chunks (:func:`run_chunk`): one channel draw, information
environment, build per precoder and SINR call for B trials. A run deals
its chunks to shares (:class:`_Share`): one share of every chunk served
in process at ``workers=1``, else one per child forked once the channel
sampler exists, each talking to the parent over two pipes
(:func:`_run_forked`). A share places each chunk once, for the noise
pre-pass, and keeps the placement: the UE positions, or in dataset mode
their cells. The sampler's ``draw`` of a placement gives the positions,
the channels and, for synthetic channels, the near-field matrix from the
same distance pass; a chunk's information environment derives each
scope's assembly units (and in dataset mode the near-field matrix) once,
read-only arrays that every precoder of the chunk shares.

Determinism: every random draw derives from
``numpy.random.default_rng([rng_seed, trial_index, stream])`` with
stream 0 for UE placement and stream 1 for channel-estimation noise,
and a trial's arithmetic does not depend on the chunk it runs in, so
results are byte-identical for any chunking, execution order and
worker count.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .csidata import read_dataset
from .errors import ConfigError, GeometryError, PlacementError
from .geometry import (
    AMPLITUDE_MODELS,
    ArrayGeometry,
    Box,
    LosChannelParams,
    _draw_ues,
    distance_phasors,
    pairwise_distances,
)
from .metrics import (
    ChannelErrorModel,
    LinkRealization,
    empirical_cdf,
    inject_channel_error,
    noise_variance_from_floor,
    sinr_all,
    sorted_quantile,
)
from .precoders import (
    ChannelAccess,
    InfoEnvironment,
    PrecoderSpec,
    _array_axis,
    build_precoders,
)

#: Stream ids for per-trial RNG derivation.
_STREAM_PLACEMENT = 0
_STREAM_CHANNEL_ERROR = 1

#: Re-placements allowed in dataset mode when UEs snap to the same cell.
_SNAP_ATTEMPTS = 100

#: Maximum CDF support points stored per precoder in a summary.
CDF_MAX_POINTS = 512

CHANNEL_SOURCES = ("synthetic", "dataset")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one Monte Carlo experiment.

    nmse_grid holds per-entry channel-error variances; with
    ``nmse_relative`` they are interpreted as target NMSE fractions and
    scaled by the measured mean per-entry channel power. clustering
    lists disjoint AP-index pairs covering all APs.
    """

    geometry: ArrayGeometry
    roi: Box
    k_users: int
    trials: int
    precoders: tuple[PrecoderSpec, ...]
    noise_floor_db: float = -20.0
    min_spacing_m: float = 0.10
    nmse_grid: tuple[float, ...] | None = None
    nmse_relative: bool = False
    clustering: tuple[tuple[int, int], ...] | None = None
    rng_seed: int = 0
    channel_source: str = "synthetic"
    dataset_path: str | None = None
    amplitude_model: str = "free-space"
    reference_gain: float = 1.0
    workers: int = 1

    def los_params(self) -> LosChannelParams:
        return LosChannelParams(
            wavelength=self.geometry.wavelength,
            amplitude_model=self.amplitude_model,
            reference_gain=self.reference_gain,
        )


@dataclass(frozen=True)
class ClusterAssignment:
    """Users mapped to their argmax-mean-gain AP pair (ties: lowest index)."""

    ue_to_pair: np.ndarray
    mean_gains: np.ndarray


@dataclass(frozen=True)
class PrecoderStats:
    """Aggregate statistics for one (precoder, error-grid point)."""

    precoder: str
    sigma_e2: float | None
    n_trials: int
    n_failed_trials: int
    n_samples: int
    median_db: float | None
    guaranteed_90_db: float | None
    mean_nmse: float | None
    cdf_values: np.ndarray | None
    cdf_probs: np.ndarray | None

    @property
    def failure_rate(self) -> float:
        return self.n_failed_trials / self.n_trials if self.n_trials else 0.0


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregate statistics and the per-trial outcomes behind them.

    For T trials, S error-grid points, P precoders and K users:
    ``sinr_db`` is (T, S, P, K), NaN where the build failed; ``failures``
    is (T, S, P), the ``"ClassName: message"`` of a failed build or None;
    ``nmse`` is (T, S), the realized NMSE, NaN under perfect CSI.
    """

    config: ScenarioConfig
    noise_var: float
    mean_user_gain: float
    mean_entry_gain: float
    sigma_grid: tuple[float, ...] | None
    stats: tuple[PrecoderStats, ...]
    sinr_db: np.ndarray
    failures: np.ndarray
    nmse: np.ndarray


def _key(field: str) -> str:
    """The YAML key a config field is written under."""
    from .configio import yaml_key  # configio builds on this module

    return yaml_key(field)


def validate_config(config: ScenarioConfig) -> None:
    """Reject invalid configurations before any trial runs.

    Messages name the simulate-config YAML keys (``users``, ``seed``,
    ``channel.source``), not the dataclass fields.
    """
    for field, least in (("trials", 1), ("k_users", 1), ("workers", 1), ("rng_seed", 0)):
        value = getattr(config, field)
        if value < least:
            raise ConfigError(f"{_key(field)} must be >= {least}, got {value}")
    if not np.isfinite(config.noise_floor_db):
        raise ConfigError(
            f"{_key('noise_floor_db')} must be finite, got {config.noise_floor_db}"
        )
    if not 0 <= config.min_spacing_m < np.inf:
        raise ConfigError(
            f"{_key('min_spacing_m')} must be finite and >= 0, got {config.min_spacing_m}"
        )
    if not 0 < config.reference_gain < np.inf:
        raise ConfigError(
            f"{_key('reference_gain')} must be finite and > 0, got {config.reference_gain}"
        )
    if not config.precoders:
        raise ConfigError("at least one precoder must be configured")
    names = [s.name for s in config.precoders]
    if len(set(names)) != len(names):
        raise ConfigError(f"precoder names must be unique, got {names}")
    if config.channel_source not in CHANNEL_SOURCES:
        raise ConfigError(
            f"{_key('channel_source')} must be one of {CHANNEL_SOURCES}, "
            f"got {config.channel_source!r}"
        )
    if config.channel_source == "dataset" and not config.dataset_path:
        raise ConfigError(
            f"{_key('channel_source')} 'dataset' requires {_key('dataset_path')}"
        )
    if config.amplitude_model not in AMPLITUDE_MODELS:
        raise ConfigError(
            f"{_key('amplitude_model')} must be one of {AMPLITUDE_MODELS}, "
            f"got {config.amplitude_model!r}"
        )
    if config.nmse_grid is not None:
        if len(config.nmse_grid) == 0:
            raise ConfigError(f"{_key('nmse_grid')} must not be empty when given")
        if not all(0 <= v < np.inf for v in config.nmse_grid):
            raise ConfigError(
                f"{_key('nmse_grid')} must be finite and >= 0, got {list(config.nmse_grid)}"
            )
    if config.clustering is not None:
        flat = [a for pair in config.clustering for a in pair]
        if any(len(pair) != 2 for pair in config.clustering):
            raise ConfigError(f"{_key('clustering')} entries must be AP pairs")
        if sorted(flat) != list(range(config.geometry.num_aps)):
            raise ConfigError(
                f"{_key('clustering')} must be disjoint and cover all APs exactly once"
            )
    _validate_far_field(config)


def _validate_far_field(config: ScenarioConfig) -> None:
    """Far-field bases need collinear assembly units; check up front."""
    geo = config.geometry
    for spec in config.precoders:
        if spec.base != "ff":
            continue
        if spec.scope == "per-ap":
            units = [(a,) for a in range(geo.num_aps)]
        else:
            units = config.clustering or [range(geo.num_aps)]
        for unit in units:
            try:
                _array_axis(geo.antenna_positions[geo.unit_indices(unit)])
            except GeometryError as exc:
                raise ConfigError(
                    f"precoder {spec.name!r}: far-field base needs collinear "
                    f"antennas per assembly unit: {exc}"
                ) from exc


def cluster_users(gains, pairs, geometry: ArrayGeometry) -> ClusterAssignment:
    """Assign each user to the AP pair with the highest mean channel gain.

    ``gains`` is (K, M) per-antenna channel power |h|^2, or (B, K, M)
    for B trials. Ties resolve to the lowest pair index.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-1] != geometry.num_antennas:
        raise ValueError(f"gains must be (K, {geometry.num_antennas}), got {g.shape}")
    mean_gains = np.stack(
        [g[..., geometry.unit_indices(pair)].mean(axis=-1) for pair in pairs], axis=-1
    )
    return ClusterAssignment(ue_to_pair=np.argmax(mean_gains, axis=-1), mean_gains=mean_gains)


def _trials_first(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(M, B·K) values toward (B, K, 3) positions as a (B, M, K) view."""
    return x.reshape(len(x), *positions.shape[:2]).transpose(1, 0, 2)


class _SyntheticSampler:
    """Draws exact LoS channels from the scenario geometry.

    A sampler turns a trial's placed UEs into a placement (:meth:`snap`),
    from which it draws the UE positions and the channels (:meth:`draw`);
    here the placement is the positions themselves.
    """

    def __init__(self, config: ScenarioConfig):
        self.geometry = config.geometry
        self.params = config.los_params()

    def snap(self, positions: np.ndarray) -> np.ndarray:
        return positions

    def draw(self, positions: np.ndarray) -> tuple:
        """The (B, K, 3) positions, the (B, M, K) LoS channels toward them
        and their (B, M, K) near-field phasors
        (:attr:`InfoEnvironment.near_field`), bit for bit, from one
        distance pass."""
        d, phasors = distance_phasors(
            self.geometry.antenna_positions, positions.reshape(-1, 3), self.params.wavelength
        )
        h = self.params.amplitude(d) * phasors
        return (positions, np.ascontiguousarray(_trials_first(h, positions)),
                _trials_first(phasors, positions))


class _DatasetSampler:
    """Samples measured CSI at the nearest valid grid cell per UE.

    A valid cell is a grid position with a tx antenna whose CSI is
    present at every rx antenna; the lowest such tx index is used. The
    snapped grid position becomes the UE's location so measured CSI and
    location information agree. A placement is each UE's cell index, found
    once, from which both its position and its CSI are read.

    The sampler keeps only each valid cell's position and its CSI at that
    tx, (cells, 3) and (cells, M), not the dataset's grid: the read grid
    is freed once they are taken, and forked workers inherit only them.
    """

    def __init__(self, config: ScenarioConfig):
        grid, manifest = read_dataset(config.dataset_path)
        geo = config.geometry
        if manifest.rx_count != geo.num_antennas:
            raise ConfigError(
                f"dataset has {manifest.rx_count} rx antennas but the geometry "
                f"has {geo.num_antennas}"
            )
        if not np.allclose(manifest.rx_positions, geo.antenna_positions, atol=1e-9):
            raise ConfigError(
                "dataset rx antenna positions differ from the configured geometry"
            )
        full = grid.present.all(axis=1)  # (T, GM, GN): every rx present
        m, n = np.nonzero(full.any(axis=0))
        if not m.size:
            raise ConfigError("dataset has no grid cell with complete rx coverage")
        t = np.argmax(full[:, m, n], axis=0)  # lowest full tx
        self.cell_csi = grid.csi[t, :, m, n]
        self.cell_positions = grid.positions[m, n]

    def snap(self, positions: np.ndarray) -> np.ndarray | None:
        """The cells nearest the (K, 3) positions, (K,); None when two share one."""
        idx = np.argmin(pairwise_distances(positions, self.cell_positions), axis=-1)
        ordered = np.sort(idx)
        return None if (ordered[1:] == ordered[:-1]).any() else idx

    def draw(self, cells: np.ndarray) -> tuple:
        """The (B, K, 3) positions of (B, K) cells, their (B, M, K) CSI and
        None: the information environment derives the near field from the
        positions when a spec reads it."""
        csi = np.ascontiguousarray(self.cell_csi[cells].transpose(0, 2, 1))
        return self.cell_positions[cells], csi, None


def _make_sampler(config: ScenarioConfig):
    return (_DatasetSampler if config.channel_source == "dataset" else _SyntheticSampler)(config)


def _place(config: ScenarioConfig, trial_index: int, sampler) -> np.ndarray:
    """One trial's placement (``sampler.snap``) from its placement stream;
    dataset mode re-places (budgeted) until all users occupy distinct
    cells."""
    rng = np.random.default_rng([config.rng_seed, trial_index, _STREAM_PLACEMENT])
    for _ in range(_SNAP_ATTEMPTS):
        snapped = sampler.snap(_draw_ues(config.roi, config.k_users, config.min_spacing_m, rng))
        if snapped is not None:
            return snapped
    raise PlacementError(
        f"could not place {config.k_users} users on distinct dataset cells "
        f"after {_SNAP_ATTEMPTS} attempts (trial {trial_index})"
    )


def _place_chunk(config: ScenarioConfig, trials, sampler) -> np.ndarray:
    """The placements of the trials ``trials``, stacked."""
    return np.stack([_place(config, t, sampler) for t in trials])


def draw_channels(
    config: ScenarioConfig, trials, sampler=None, placement=None
) -> tuple[np.ndarray, np.ndarray]:
    """UE positions and true channels of the trials ``trials``, (B, K, 3)
    and (B, M, K): each trial placed from its own stream, or read from
    ``placement``, their stacked placement as the noise pre-pass made it,
    and all channels drawn in one call (``sampler.draw``)."""
    sampler = sampler or _make_sampler(config)
    if placement is None:
        placement = _place_chunk(config, trials, sampler)
    return sampler.draw(placement)[:2]


def _chunk_environment(config: ScenarioConfig, h_true, positions, phasors=None) -> InfoEnvironment:
    """Information environment of a chunk of trials, holding their true
    channels and, if given, their near-field phasors. With clustering,
    users are assigned to pairs by true-channel mean gain; each AP is
    granted CSI only toward the users its pair serves, and each user is
    served by its pair's antennas."""
    geo, k = config.geometry, config.k_users
    if config.clustering is None:
        return InfoEnvironment(geo, k, ChannelAccess.full(geo, h_true), positions, phasors=phasors)
    gains = np.abs(h_true.swapaxes(-1, -2)) ** 2
    serving = np.array(config.clustering)[cluster_users(gains, config.clustering, geo).ue_to_pair]
    granted = np.zeros((len(h_true), geo.num_aps, k), dtype=bool)
    granted[np.arange(len(h_true))[:, None, None], serving, np.arange(k)[:, None]] = True
    return InfoEnvironment(geo, k, ChannelAccess(geo, h_true, granted), positions, serving, phasors)


def run_chunk(
    config: ScenarioConfig,
    trials,
    noise_var: float,
    sigma_points: tuple[float | None, ...] = (None,),
    sampler=None,
    *,
    placement=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place UEs, build every configured precoder and evaluate SINR for
    the B trials ``trials`` (indices) as one unit of work. Given
    ``placement``, the trials' stacked placement as the noise pre-pass
    made it, the chunk reads its UEs from it instead of placing them.
    Synthetic channels and the near-field matrix come from one distance
    pass.

    ``sigma_points`` lists per-entry channel-error variances (None means
    perfect CSI); a trial's estimates at all S points come from one
    unit-noise draw of its own stream. Each precoder is built once for
    the whole chunk and grid (:func:`build_precoders`) and evaluated by
    one SINR call against the true channels; a failure fails only its
    own trial and sigma point, and a precoder that reads no CSI repeats
    its outcome at every sigma point. Returns ``(sinr_db, failures,
    nmse)``: per-user SINR in dB, (B, S, P, K), NaN where the build
    failed; the failure as ``"ClassName: message"`` or None, (B, S, P);
    the realized NMSE, (B, S), NaN under perfect CSI. A trial's results
    do not depend on the chunk it runs in.
    """
    sampler = sampler or _make_sampler(config)
    if placement is None:
        placement = _place_chunk(config, trials, sampler)
    positions, h_true, phasors = sampler.draw(placement)
    shape = (len(trials), len(sigma_points), len(config.precoders))
    sinr_db = np.full(shape + (config.k_users,), np.nan)
    failures = np.full(shape, None, dtype=object)
    nmse = np.full(shape[:2], np.nan)
    channels = np.repeat(h_true[:, None], shape[1], axis=1)
    known = [s for s, sigma in enumerate(sigma_points) if sigma is not None]
    sigmas = [sigma_points[s] for s in known]
    for b, t in enumerate(trials if known else ()):
        model = ChannelErrorModel(sigmas, [config.rng_seed, t, _STREAM_CHANNEL_ERROR])
        channels[b, known], nmse[b, known] = inject_channel_error(h_true[b], model)
    env = _chunk_environment(config, h_true, positions, phasors)
    for p, spec in enumerate(config.precoders):
        w, errors = build_precoders(spec, env, channels, noise_var)
        sinr_db[:, :, p] = sinr_all(LinkRealization(h_true[:, None], w, noise_var))[1]
        del w  # the next spec builds without this one's W
        failures[:, :, p] = [[e and f"{type(e).__name__}: {e}" for e in row] for row in errors]
    return sinr_db, failures, nmse


#: Most trials per chunk, the unit of work: one draw, environment, build
#: per precoder and SINR call for all of them. A build keeps its own
#: memory bound (:data:`dmimo.precoders.BUILD_ENTRIES`).
CHUNK_TRIALS = 32


def _chunks(config: ScenarioConfig) -> list[range]:
    """The chunks of a run, a function of its trials and workers alone:
    at most ``CHUNK_TRIALS`` trials each, and about eight per forked
    worker."""
    trials = config.trials
    pool_share = -(-trials // (8 * config.workers)) if config.workers > 1 else trials
    size = max(1, min(CHUNK_TRIALS, pool_share))
    return [range(t, min(t + size, trials)) for t in range(0, trials, size)]


def _chunk_gains(config: ScenarioConfig, trials, sampler) -> tuple[np.ndarray, list[float]]:
    """The trials' stacked placement and the sum of |h|^2 over each
    trial's channel matrix."""
    placement = _place_chunk(config, trials, sampler)
    h = sampler.draw(placement)[1]
    return placement, np.add.reduce(np.abs(h.reshape(len(h), -1)) ** 2, axis=1).tolist()


def _mean_gain(config: ScenarioConfig, chunk_gains) -> float:
    """Mean ||h_k||^2 over all users and trials from each chunk's per-trial
    gains, given in chunk order and summed in trial order."""
    total = 0.0
    for gains in chunk_gains:
        for gain in gains:
            total += gain
    return total / (config.trials * config.k_users)


def _levels(config: ScenarioConfig, mean_user_gain: float) -> tuple[float, tuple | None]:
    """The noise variance and the error grid (None without one) that the
    mean user gain sets."""
    noise_var = noise_variance_from_floor(config.noise_floor_db, mean_user_gain)
    if config.nmse_grid is None:
        return noise_var, None
    scale = mean_user_gain / config.geometry.num_antennas if config.nmse_relative else 1.0
    return noise_var, tuple(float(v) * scale for v in config.nmse_grid)


def _empty_results(config: ScenarioConfig) -> tuple:
    """The run's (T, S, P, K) SINR, (T, S, P) failure and (T, S) NMSE
    arrays, the one copy of the results, allocated once the noise
    pre-pass is done and filled by :func:`_store`."""
    shape = (config.trials, len(config.nmse_grid or (None,)), len(config.precoders))
    return np.empty(shape + (config.k_users,)), np.empty(shape, dtype=object), np.empty(shape[:2])


def _store(results: tuple, chunks, outputs) -> None:
    """Copies each chunk's outputs into ``results`` as they arrive; a
    chunk is dropped once copied in."""
    for trials, chunk in zip(chunks, outputs):
        for out, part in zip(results, chunk):
            out[trials.start:trials.stop] = part


def _send(up, outputs) -> bool:
    """Sends a worker's ``outputs``, one per chunk, up as one message: (the
    outputs until one raised, the exception or None). Returns whether
    none raised."""
    done, error = [], None
    try:
        for output in outputs:
            done.append(output)
    except Exception as exc:
        error = exc
    pickle.dump((done, error), up)
    up.flush()
    return error is None


class _Share:
    """A worker's share of a run: its ``chunks``, run on the sampler in
    the phases of a run. :meth:`gains` places each chunk for the noise
    pre-pass and keeps the placement; :meth:`results` runs the chunks on
    those placements. A run at ``workers=1`` is one share of every chunk,
    served in process; each forked worker serves one (:func:`_serve`)."""

    def __init__(self, config: ScenarioConfig, sampler, chunks):
        self.config, self.sampler, self.chunks, self.placements = config, sampler, chunks, []

    def gains(self):
        """Each chunk's per-trial gains (:func:`_chunk_gains`), in order."""
        for trials in self.chunks:
            placement, gains = _chunk_gains(self.config, trials, self.sampler)
            self.placements.append(placement)
            yield gains

    def results(self, levels: tuple):
        """Each chunk's :func:`run_chunk` outputs under ``levels``, the
        noise variance and error grid (:func:`_levels`), in order."""
        noise_var, sigma_grid = levels
        for trials, placement in zip(self.chunks, self.placements):
            yield run_chunk(self.config, trials, noise_var, sigma_grid or (None,),
                            self.sampler, placement=placement)


def _serve(config: ScenarioConfig, sampler, chunks, up, down) -> None:
    """A forked worker's part of a run: it sends its share's gains up,
    reads the levels from down and sends its share's results up."""
    share = _Share(config, sampler, chunks)
    if _send(up, share.gains()):
        _send(up, share.results(pickle.load(down)))


def _fork(config: ScenarioConfig, sampler, chunks, workers: list) -> tuple:
    """A forked worker serving ``chunks``: its pid and the parent's ends
    of its pipes, up (a reader) and down (a descriptor). ``workers``
    lists the siblings forked before it, whose parent ends it closes, so
    that each worker sees its down pipe end when the parent dies."""
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for _, up, down in workers:
                up.close()
                os.close(down)
            os.close(up_r)
            os.close(down_w)
            with open(up_w, "wb") as up, open(down_r, "rb") as down:
                _serve(config, sampler, chunks, up, down)
            status = 0
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(up_w)
    os.close(down_r)
    return pid, open(up_r, "rb"), down_w


def _gather(workers: list, running: set):
    """Yields each worker's outputs of one phase in worker order; then
    raises the exception of the earliest failed chunk, as a run at
    ``workers=1`` would. A worker that ended without a message is reaped
    and reported by its exit status at once."""
    first = None
    for i, (pid, up, _) in enumerate(workers):
        try:
            done, error = pickle.load(up)
        except (EOFError, pickle.UnpicklingError):
            import signal  # only a failed run loads it

            running.discard(pid)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            status = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"worker {i} (pid {pid}) ended without a result: {status}") from None
        chunk = i + len(done) * len(workers)
        if error is not None and (first is None or chunk < first[0]):
            first = chunk, error
        yield done
    if first is not None:
        raise first[1]


def _run_forked(config: ScenarioConfig, sampler) -> tuple[float, tuple]:
    """Runs the chunks on ``min(workers, chunks)`` forked workers, worker
    i serving chunks i, i + W, ...; returns the mean user gain and the
    results (:func:`_empty_results`).

    The fork is explicit: a ``multiprocessing`` pool forks only by
    default, and from Python 3.14 on Linux would start ``forkserver``
    workers and pickle the sampler to each. A worker inherits the config
    and the sampler, keeps its placements (:class:`_Share`) and exchanges
    one pickled message each way per phase. On any failure the parent
    kills and reaps every worker."""
    chunks = _chunks(config)
    n = min(config.workers, len(chunks))
    workers, running = [], set()
    sys.stdout.flush()  # else each worker would write the buffered text again
    sys.stderr.flush()
    try:
        for i in range(n):
            workers.append(_fork(config, sampler, chunks[i::n], workers))
            running.add(workers[-1][0])
        gains = list(_gather(workers, running))
        mean_user_gain = _mean_gain(config, (gains[c % n][c // n] for c in range(len(chunks))))
        levels = pickle.dumps(_levels(config, mean_user_gain))
        for _, _, down in workers:
            try:
                os.write(down, levels)
            except BrokenPipeError:
                pass  # the worker is gone; reading its results reports how
        results = _empty_results(config)
        for i, done in enumerate(_gather(workers, running)):
            _store(results, chunks[i::n], done)
    except BaseException:
        import signal  # only a failed run loads it

        for pid in running:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in running:
            os.waitpid(pid, 0)
        for _, up, down in workers:
            up.close()
            os.close(down)
    return mean_user_gain, results


def _decimate_cdf(values: np.ndarray, probs: np.ndarray, max_points: int = CDF_MAX_POINTS):
    if values.size <= max_points:
        return values, probs
    idx = np.round(np.linspace(0, values.size - 1, max_points)).astype(int)
    idx = idx[np.diff(idx, prepend=-1) > 0]  # distinct, as they rise
    return values[idx], probs[idx]


def _aggregate(
    config: ScenarioConfig,
    sinr_db: np.ndarray,
    failures: np.ndarray,
    nmse: np.ndarray,
    sigma_points: tuple[float | None, ...],
) -> tuple[PrecoderStats, ...]:
    """Statistics per (sigma point, precoder) from the (T, S, P, ...) arrays."""
    failed = np.not_equal(failures, None)
    stats = []
    for s, sigma in enumerate(sigma_points):
        for p, spec in enumerate(config.precoders):
            flat = sinr_db[~failed[:, s, p], s, p].ravel()
            if flat.size:
                values, probs = empirical_cdf(flat)
                median, p10 = sorted_quantile(values), sorted_quantile(values, 1.0 - 0.9)
                values, probs = _decimate_cdf(values, probs)
            else:
                values = probs = None
                median = p10 = None
            stats.append(
                PrecoderStats(
                    precoder=spec.name,
                    sigma_e2=sigma,
                    n_trials=len(sinr_db),
                    n_failed_trials=int(failed[:, s, p].sum()),
                    n_samples=int(flat.size),
                    median_db=median,
                    guaranteed_90_db=p10,
                    mean_nmse=None if sigma is None else float(np.mean(nmse[:, s])),
                    cdf_values=values,
                    cdf_probs=probs,
                )
            )
    return tuple(stats)


def run_scenario(config: ScenarioConfig) -> ScenarioSummary:
    """Execute all trials and aggregate per-precoder statistics.

    The noise variance is fixed once per configuration: the configured
    floor (dB) relative to the mean MRT received power over the same
    trial channels. Trials run in chunks (:func:`run_chunk`) served by
    one share (:class:`_Share`) in process, or with ``workers`` > 1 by
    one per forked worker (:func:`_run_forked`). A share places each
    chunk once, for the noise pre-pass, and runs it on that placement.
    Results are bit-identical for a given seed regardless of ``workers``
    and chunking.
    """
    validate_config(config)
    sampler = _make_sampler(config)
    if config.workers > 1:
        mean_user_gain, results = _run_forked(config, sampler)
    else:
        share = _Share(config, sampler, _chunks(config))
        mean_user_gain = _mean_gain(config, share.gains())
        results = _empty_results(config)
        _store(results, share.chunks, share.results(_levels(config, mean_user_gain)))
    sinr_db, failures, nmse = results
    noise_var, sigma_grid = _levels(config, mean_user_gain)
    return ScenarioSummary(
        config=config,
        noise_var=noise_var,
        mean_user_gain=mean_user_gain,
        mean_entry_gain=mean_user_gain / config.geometry.num_antennas,
        sigma_grid=sigma_grid,
        stats=_aggregate(config, sinr_db, failures, nmse, sigma_grid or (None,)),
        sinr_db=sinr_db,
        failures=failures,
        nmse=nmse,
    )
