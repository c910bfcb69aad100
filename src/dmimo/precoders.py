"""Precoding vector constructions.

Three families are provided:
  * steering-based weights computed from location only (far-field angle
    steering and near-field distance steering),
  * CSI-based linear precoders (MRT, ZF, RZF),
  * the orthogonalization generalization that suppresses interference by
    projecting a base vector onto the complement of a suppression
    subspace, enabling hybrids such as ``mrt_nf`` (MRT base, near-field
    suppression) and ``zf_nf`` (CSI suppression where CSI is held,
    near-field suppression elsewhere).

Naming scheme: ``a_b`` is a base vector of type ``a`` orthogonalized
against vectors of type ``b``; a leading ``r`` selects the regularized
projection; a ``dis_`` prefix restricts the projection to each AP's own
antennas and CSI.

All returned precoding vectors have unit Euclidean norm (per-user power
normalization); matrices are per-column normalized unless requested
otherwise.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateChannelError,
    FullySuppressedError,
    GeometryError,
    InformationError,
    PrecodingError,
    RankDeficiencyError,
)
from .geometry import ArrayGeometry, distance_phasors

#: Residual norm below which a projected vector counts as fully suppressed.
FULL_SUPPRESSION_TOL = 1e-12

#: Maximum distance (m) of an antenna from the fitted array line for the
#: far-field steering angle to be considered well defined.
COLLINEARITY_TOL = 1e-6

BASES = ("mrt", "nf", "ff")
SUPPRESSIONS = ("none", "csi", "nf", "csi+nf")
SCOPES = ("centralized", "per-ap")


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    return v


def _as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def numerical_rank(a: np.ndarray) -> int:
    """Rank via singular values, threshold eps * sigma_max * max(shape)."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    tol = np.finfo(float).eps * s.max() * max(a.shape)
    return int(np.sum(s > tol))


def normalize_columns(w: np.ndarray) -> np.ndarray:
    """Scale every column to unit Euclidean norm."""
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0):
        raise DegenerateChannelError("cannot normalize a zero column")
    return w / norms


def phase_align(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero element is real positive.

    Removes the unit-modulus scalar ambiguity before comparing precoding
    vectors.
    """
    v = _as_vector(v)
    nz = np.flatnonzero(np.abs(v) > 0)
    if nz.size == 0:
        return v.copy()
    return v * np.exp(-1j * np.angle(v[nz[0]]))


def far_field_weights(
    geometry: ArrayGeometry, theta: float, reference_antenna: int = 0
) -> np.ndarray:
    """Delay-and-sum steering weights for angle ``theta`` off broadside.

    Element i is exp(-j*2*pi*d_i*sin(theta)/lambda) with d_i the distance
    from antenna i to the reference antenna, normalized to a unit vector.
    Meaningful for (near-)collinear antennas; |theta| must be <= pi/2
    (pi/2 is endfire).
    """
    if not abs(theta) <= np.pi / 2:
        raise ValueError(f"|theta| must be <= pi/2, got {theta}")
    ref = geometry.antenna_positions[reference_antenna]
    d = np.linalg.norm(geometry.antenna_positions - ref, axis=1)
    w = np.exp(-2j * np.pi * d * np.sin(theta) / geometry.wavelength)
    return w / np.linalg.norm(w)


def near_field_weights(
    geometry: ArrayGeometry, ue_position, antenna_subset=None
) -> np.ndarray:
    """Beamfocusing weights exp(-j*2*pi*d_i/lambda) toward a point.

    d_i is the exact distance from antenna i to the intended receiver;
    the weights are returned over ``antenna_subset`` (default all
    antennas), normalized to unit norm.
    """
    if antenna_subset is None:
        positions = geometry.antenna_positions
    else:
        positions = geometry.antenna_positions[np.asarray(antenna_subset, dtype=int)]
    p = np.asarray(ue_position, dtype=float).reshape(1, 3)
    w = distance_phasors(positions, p, geometry.wavelength)[1][:, 0]
    return w / np.linalg.norm(w)


def mrt(h) -> np.ndarray:
    """Maximum ratio transmission: the unit vector along the channel."""
    h = _as_vector(h)
    n = np.linalg.norm(h)
    if n == 0:
        raise DegenerateChannelError("MRT undefined for a zero channel")
    return h / n


def zf(h_matrix, normalize: bool = True) -> np.ndarray:
    """Zero-forcing precoding matrix H (H^H H)^{-1}.

    Requires K <= M and full column rank; column k then satisfies
    h_l^H w_k = delta_{lk} before normalization. With ``normalize``
    (default) every column is scaled to unit norm.
    """
    return rzf(h_matrix, 0.0, normalize)


def rzf(h_matrix, alpha: float, normalize: bool = True) -> np.ndarray:
    """Regularized zero-forcing H (H^H H + alpha*I)^{-1}.

    alpha is usually the noise variance. alpha = 0 reduces to ZF and
    then requires full column rank.
    """
    h = _as_matrix(h_matrix)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    m, k = h.shape
    if alpha == 0 and numerical_rank(h) < k:
        raise RankDeficiencyError(
            f"alpha = 0 with a rank-deficient channel matrix ({m}x{k})"
        )
    gram = h.conj().T @ h + alpha * np.eye(k, dtype=complex)
    w = h @ np.linalg.solve(gram, np.eye(k, dtype=complex))
    return normalize_columns(w) if normalize else w


def orthogonalize(w, v_matrix) -> np.ndarray:
    """Project ``w`` onto the orthogonal complement of span(V).

    Returns w - V (V^H V)^{-1} V^H w, unnormalized, applied twice so an
    ill-conditioned V leaves no rounding residue in span(V). V must have
    full column rank. A residual norm below ``FULL_SUPPRESSION_TOL``
    (absolute, for roughly unit-scale inputs) raises FullySuppressedError.
    """
    w = _as_vector(w)
    v = _as_matrix(v_matrix)
    if v.shape[1] == 0:
        return w.copy()
    if v.shape[0] != w.size:
        raise ValueError(f"V has {v.shape[0]} rows, w has {w.size} elements")
    if numerical_rank(v) < v.shape[1]:
        raise RankDeficiencyError(
            f"suppression matrix ({v.shape[0]}x{v.shape[1]}) is rank deficient; "
            "use the regularized projection"
        )
    gram = v.conj().T @ v
    residual = w - v @ np.linalg.solve(gram, v.conj().T @ w)
    residual -= v @ np.linalg.solve(gram, v.conj().T @ residual)
    if np.linalg.norm(residual) < FULL_SUPPRESSION_TOL:
        raise FullySuppressedError(
            "base vector lies in the suppression subspace"
        )
    return residual


def orthogonalize_regularized(w, v_matrix, alpha: float) -> np.ndarray:
    """Regularized projection w - V (V^H V + alpha*I)^{-1} V^H w.

    Defined for any rank of V; alpha must be strictly positive. Unlike
    :func:`orthogonalize` the result depends on the column scaling of V.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    w = _as_vector(w)
    v = _as_matrix(v_matrix)
    if v.shape[1] == 0:
        return w.copy()
    if v.shape[0] != w.size:
        raise ValueError(f"V has {v.shape[0]} rows, w has {w.size} elements")
    gram = v.conj().T @ v + alpha * np.eye(v.shape[1], dtype=complex)
    return w - v @ np.linalg.solve(gram, v.conj().T @ w)


def _array_axis(positions: np.ndarray) -> np.ndarray:
    """Unit direction of a collinear antenna set (GeometryError otherwise)."""
    if positions.shape[0] < 2:
        raise GeometryError("array axis needs at least two antennas")
    centered = positions - positions.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    off_line = centered - np.outer(centered @ axis, axis)
    if np.linalg.norm(off_line, axis=1).max() > COLLINEARITY_TOL:
        raise GeometryError("antenna subset is not collinear")
    return axis


def steering_angle(
    geometry: ArrayGeometry, ue_position, antenna_subset=None
) -> tuple[float, int]:
    """Far-field steering angle toward a UE for a collinear antenna set.

    Returns (theta, reference_antenna) such that
    ``far_field_weights(geometry, theta, reference_antenna)`` combines
    the LoS channel coherently in the far field. The reference antenna is
    the end of the array; theta is measured from broadside with the sign
    matching the exp(-j*2*pi*d*sin(theta)/lambda) weight convention.
    """
    if antenna_subset is None:
        subset = np.arange(geometry.num_antennas)
    else:
        subset = np.asarray(antenna_subset, dtype=int)
    positions = geometry.antenna_positions[subset]
    axis = _array_axis(positions)
    proj = (positions - positions.mean(axis=0)) @ axis
    ref_local = int(np.argmin(proj))
    to_ue = np.asarray(ue_position, dtype=float).reshape(3) - positions[ref_local]
    dist = np.linalg.norm(to_ue)
    if dist == 0:
        raise GeometryError("UE position coincides with the reference antenna")
    sin_geom = float(np.clip(axis @ to_ue / dist, -1.0, 1.0))
    if abs(sin_geom) == 1.0:
        raise GeometryError("UE lies on the array axis; steering angle undefined")
    return -float(np.arcsin(sin_geom)), int(subset[ref_local])


class InfoRequirements(NamedTuple):
    """What a precoder needs, mirroring the per-algorithm requirement table."""

    csi_intended: bool
    csi_unintended: bool
    location_intended: bool
    location_unintended: bool


@dataclass(frozen=True)
class PrecoderSpec:
    """Declarative description of one precoding algorithm instance.

    base         : "mrt" (CSI), "nf" (near-field from location) or "ff"
                   (far-field from location; collinear assembly only)
    suppression  : source of the suppression vector per unintended user:
                   "none", "csi" (users whose CSI the transmitter holds),
                   "nf" (near-field vectors from locations) or "csi+nf"
                   (CSI where held, near-field otherwise)
    regularized  : use the regularized projection
    alpha        : regularization weight (finite, > 0); None resolves to
                   the noise variance at build time
    scope        : "centralized" assembles jointly over all serving
                   antennas; "per-ap" repeats the assembly per AP using
                   only that AP's antennas and CSI
    """

    name: str
    base: str
    suppression: str = "none"
    regularized: bool = False
    alpha: float | None = None
    scope: str = "centralized"

    def __post_init__(self):
        if self.base not in BASES:
            raise ConfigError(f"base must be one of {BASES}, got {self.base!r}")
        if self.suppression not in SUPPRESSIONS:
            raise ConfigError(
                f"suppression must be one of {SUPPRESSIONS}, got {self.suppression!r}"
            )
        if self.scope not in SCOPES:
            raise ConfigError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if self.alpha is not None:
            if not self.regularized:
                raise ConfigError("alpha is only meaningful for regularized specs")
            if not 0 < self.alpha < np.inf:
                raise ConfigError(f"alpha must be > 0 and finite, got {self.alpha}")

    def requirements(self) -> InfoRequirements:
        return InfoRequirements(
            csi_intended=self.base == "mrt",
            csi_unintended=self.suppression in ("csi", "csi+nf"),
            location_intended=self.base in ("nf", "ff"),
            location_unintended=self.suppression in ("nf", "csi+nf"),
        )


_NAME_TABLE = {
    "nf": dict(base="nf"),
    "ff": dict(base="ff"),
    "mrt": dict(base="mrt"),
    "zf": dict(base="mrt", suppression="csi"),
    "rzf": dict(base="mrt", suppression="csi", regularized=True),
    "nf_nf": dict(base="nf", suppression="nf"),
    "mrt_nf": dict(base="mrt", suppression="nf"),
    "rmrt_nf": dict(base="mrt", suppression="nf", regularized=True),
    "zf_nf": dict(base="mrt", suppression="csi+nf"),
    "rzf_nf": dict(base="mrt", suppression="csi+nf", regularized=True),
}


def parse_precoder_name(name: str) -> PrecoderSpec:
    """Build a PrecoderSpec from a canonical algorithm name.

    Recognized names: nf, ff, mrt, zf, rzf, nf_nf, mrt_nf, rmrt_nf,
    zf_nf, rzf_nf, each optionally prefixed with ``dis_`` for per-AP
    (distributed) assembly.
    """
    canonical = name.strip().lower()
    token = canonical
    scope = "centralized"
    if token.startswith("dis_"):
        scope = "per-ap"
        token = token[4:]
    if token not in _NAME_TABLE:
        valid = ", ".join(sorted(_NAME_TABLE))
        raise ConfigError(
            f"unknown precoder name {name!r}; expected one of: {valid} "
            "(optionally prefixed with 'dis_')"
        )
    return PrecoderSpec(name=canonical, scope=scope, **_NAME_TABLE[token])


@dataclass(frozen=True)
class ChannelAccess:
    """CSI blocks the transmitter holds, mediated per (AP, user).

    ``channel`` is (M, K), or (B, M, K) for a batch of B trials.
    ``granted[..., ap, user]`` gates access to the rows of ``channel``
    belonging to that AP, (num_aps, K) for every trial alike or (B,
    num_aps, K); reading an ungranted block raises InformationError so
    information constraints hold by construction.
    """

    geometry: ArrayGeometry
    channel: np.ndarray
    granted: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.channel, dtype=complex)
        if h.ndim not in (2, 3):
            raise ValueError(f"expected a matrix or a stack of them, got shape {h.shape}")
        object.__setattr__(self, "channel", h)
        g = np.asarray(self.granted, dtype=bool)
        if h.shape[-2] != self.geometry.num_antennas:
            raise ConfigError(
                f"channel has {h.shape[-2]} rows, geometry has "
                f"{self.geometry.num_antennas} antennas"
            )
        shape = (self.geometry.num_aps, h.shape[-1])
        if g.shape not in (shape, h.shape[:-2] + shape):
            raise ConfigError(f"granted mask must have shape (num_aps, K) = {shape}, got {g.shape}")
        object.__setattr__(self, "granted", g)

    @classmethod
    def full(cls, geometry: ArrayGeometry, channel) -> "ChannelAccess":
        h = np.asarray(channel, dtype=complex)
        return cls(geometry, h, np.ones((geometry.num_aps, h.shape[-1]), dtype=bool))

    @property
    def num_users(self) -> int:
        return self.channel.shape[-1]

    def gather(self, wanted: np.ndarray, channels=None) -> np.ndarray:
        """The channel with every (AP, user) block outside ``wanted``
        zeroed; ``wanted`` is (..., num_aps, K) and must only ask for
        granted blocks. A stack of ``channels`` read under the same grants,
        its estimate axis S before the last two, stands in for the held
        channel and gives (..., S, M, K)."""
        denied = wanted & ~self.granted
        if denied.any():
            a, l = np.argwhere(denied)[0][-2:]
            raise InformationError(f"CSI for AP {a}, user {l} was not granted")
        rows = wanted[..., self.geometry.antenna_aps, :]
        if channels is None:
            return np.where(rows, self.channel, 0)
        return np.where(rows[..., None, :, :], channels, 0)


@dataclass(frozen=True)
class InfoEnvironment:
    """Everything a transmitter may consult when building precoders, for
    one trial or for a batch of B trials.

    csi/ue_positions are None when that category of information is not
    granted at all. ``serving`` lists per user the AP indices that
    transmit to it, equally many for every user (None means all APs
    serve everyone). A batch carries a leading trial axis on the
    channel, (B, M, K), and the positions, (B, K, 3), and on the grants
    and serving where its trials differ: (B, num_aps, K) and (B, K, n).

    State fixed by the positions and serving is derived on first use and
    kept, as read-only arrays every build on the environment shares: the
    near-field matrix (:attr:`near_field`) and each scope's assembly
    units (:meth:`assembly`). A caller that formed the near-field
    phasors with its channels passes them as ``phasors``, (B, M, K),
    and they are not derived again.
    """

    geometry: ArrayGeometry
    num_users: int
    csi: ChannelAccess | None = None
    ue_positions: np.ndarray | None = None
    serving: tuple[tuple[int, ...], ...] | np.ndarray | None = None
    phasors: InitVar[np.ndarray | None] = None
    #: B for a batch of B trials, None for one trial.
    batch: int | None = field(init=False, default=None)

    def __post_init__(self, phasors):
        k, num_aps = self.num_users, self.geometry.num_aps
        leads = set()  # the trial axis of each batched array
        if self.ue_positions is not None:
            p = np.asarray(self.ue_positions, dtype=float)
            if p.ndim not in (2, 3) or p.shape[-2:] != (k, 3):
                raise ConfigError(f"ue_positions must have shape ({k}, 3), got {p.shape}")
            object.__setattr__(self, "ue_positions", p)
            leads.add(p.shape[:-2])
        if self.csi is not None:
            if self.csi.num_users != k:
                raise ConfigError("CSI access and environment disagree on K")
            leads.add(self.csi.channel.shape[:-2])
        aps = np.broadcast_to(np.arange(num_aps), (k, num_aps))
        if self.serving is not None:
            try:
                aps = np.array(self.serving, dtype=int)
            except ValueError:  # ragged
                raise ConfigError("serving APs of users must be equally many") from None
            if aps.ndim not in (2, 3) or aps.shape[-2] != k:
                raise ConfigError("serving must list AP indices for every user")
            s = np.sort(aps, axis=-1)
            bad = (s[..., 1:] == s[..., :-1]).any(axis=-1) | ((s < 0) | (s >= num_aps)).any(axis=-1)
            user = np.argwhere(bad | (aps.shape[-1] == 0))
            if user.size:
                raise ConfigError(
                    f"serving APs of user {user[0][-1]} must be distinct indices in [0, "
                    f"{num_aps}) and at least one, got {tuple(aps[tuple(user[0])].tolist())}"
                )
            if aps.ndim == 3:
                leads.add(aps.shape[:1])
        if len(leads) > 1:
            raise ConfigError(f"environment arrays disagree on the trial axis: {sorted(leads)}")
        lead = leads.pop() if leads else ()
        object.__setattr__(self, "_aps", aps)
        object.__setattr__(self, "batch", lead[0] if lead else None)
        object.__setattr__(self, "_assemblies", {})
        if phasors is not None:
            shape = (lead or (1,)) + (self.geometry.num_antennas, k)
            if phasors.shape != shape:
                raise ConfigError(f"phasors must have shape {shape}, got {phasors.shape}")
            object.__setattr__(self, "near_field", _read_only(phasors))

    @cached_property
    def near_field(self) -> np.ndarray:
        """The unit-modulus near-field phasors of every antenna toward
        every UE position, (B, M, K) with B = 1 for one trial."""
        geo, batch = self.geometry, self.batch or 1
        nf = distance_phasors(geo.antenna_positions, self.ue_positions.reshape(-1, 3),
                              geo.wavelength)[1]
        return _read_only(nf.reshape(-1, batch, self.num_users).transpose(1, 0, 2))

    def assembly(self, scope: str) -> tuple:
        """The assembly units of ``scope`` and their pairs (:func:`_assembly`)."""
        if scope not in self._assemblies:
            self._assemblies[scope] = tuple(
                map(_read_only, _assembly(self, scope, self.batch or 1))
            )
        return self._assemblies[scope]

    def trial(self, b: int) -> "InfoEnvironment":
        """Trial ``b`` of a batch as a one-trial environment (a copy of a
        one-trial environment), deriving its own location state."""

        def pick(x):
            return x if x is None or x.ndim < 3 else x[b]

        c = self.csi
        csi = c and ChannelAccess(self.geometry, pick(c.channel), pick(c.granted))
        serving = None if self.serving is None else pick(self._aps)
        return replace(self, csi=csi, ue_positions=pick(self.ue_positions), serving=serving)

    def serving_aps(self, user: int) -> tuple[int, ...]:
        return tuple(self._aps[user].tolist())


def _check_requirements(spec: PrecoderSpec, env: InfoEnvironment) -> InfoRequirements:
    req = spec.requirements()
    if (req.csi_intended or req.csi_unintended) and env.csi is None:
        raise InformationError(f"precoder {spec.name!r} requires CSI but none was granted")
    if (req.location_intended or req.location_unintended) and env.ue_positions is None:
        raise InformationError(
            f"precoder {spec.name!r} requires UE locations but none were granted"
        )
    return req


def _assembly(env: InfoEnvironment, scope: str, batch: int):
    """The assembly units of a build over ``batch`` trials and the (unit,
    user) pairs they form: the units (AP lists, sorted); their antenna
    rows, padded with M, the index of an appended zero row; their sizes;
    the (B, AP, user) serving mask; and the pairs' unit indices per
    trial, (B, P), and user indices, (P,), user-major with each user's
    units in serving order, so the first failing pair is the lowest
    failing user's first failing unit."""
    geo, k = env.geometry, env.num_users
    aps = np.broadcast_to(env._aps, (batch, k, env._aps.shape[-1]))
    served = np.zeros((batch, geo.num_aps, k), dtype=bool)
    served[np.arange(batch)[:, None, None], aps, np.arange(k)[:, None]] = True
    keys, pu = np.unique(
        aps.reshape(-1, aps.shape[-1] if scope == "centralized" else 1),
        axis=0, return_inverse=True,
    )
    units = keys.tolist()
    rows = [geo.unit_indices(unit).tolist() for unit in units]
    width = max(map(len, rows))
    antennas = np.array([r + [geo.num_antennas] * (width - len(r)) for r in rows])
    pu = pu.reshape(batch, -1)
    pk = np.repeat(np.arange(k), pu.shape[1] // k)
    return units, antennas, np.array(list(map(len, rows))), served, pu, pk


def _read_only(x):
    """``x``, locked against writes when it is an array."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    return x


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` by the same arithmetic, without the
    dispatch that costs a small build several microseconds per call."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _unit_columns(x: np.ndarray) -> np.ndarray:
    """``x`` with every column scaled to unit norm."""
    x /= _norms(x, -2)[..., None, :]
    return x


def _pad(x: np.ndarray) -> np.ndarray:
    """``x`` (..., M, K) with the zero row that padded antenna indices read
    appended."""
    return np.concatenate([x, np.zeros_like(x[..., :1, :])], axis=-2)


#: Exception class and message of each (unit, user) pair failure code;
#: only unregularized pairs fail, before or after projecting.
_RANK, _SUPPRESSED = 1, 2
_PAIR_FAILURES = {
    _RANK: (RankDeficiencyError,
            "suppression matrix ({ma}x{n}) is rank deficient; use the regularized projection"),
    _SUPPRESSED: (FullySuppressedError, "base vector lies in the suppression subspace"),
}

#: Largest condition number of a unit's Gram matrix whose inverse the
#: leave-one-out downdate may use; worse-conditioned units are solved
#: pair by pair.
DOWNDATE_COND = 1e8

def _rank_deficient(pool, present, sizes, pu, mask, n, used):
    """Per trial, pool slice and pair: do its n columns under ``mask`` lack
    full rank? ``pool`` is (B, S, U, Ma, K); ``used`` (B, U) marks the
    units each trial's pairs assemble on.

    The threshold is :func:`numerical_rank`'s, eps * sigma_max * max(Ma,
    n). By singular-value interlacing every column subset of a full-rank
    pool is full rank, so one SVD per used unit pool clears all its
    pairs; only the pairs of a pool that fails, or that has more columns
    than antennas, get an SVD of their own. Also returns whether each
    unit pool is full rank with a Gram condition number (sigma_max /
    sigma_min)^2 of at most ``DOWNDATE_COND``.
    """
    eps = np.finfo(float).eps
    ma = sizes[pu]
    deficient = np.repeat((n > ma)[:, None], pool.shape[1], axis=1)
    n_pool = present.sum(axis=-1)
    cleared, conditioned = np.zeros((2,) + pool.shape[:3], dtype=bool)
    cb, cu = np.nonzero(used & (n_pool > 0) & (n_pool <= sizes))
    if cb.size:
        s = np.linalg.svd(pool[cb, :, cu], compute_uv=False)
        tol = eps * s[..., :1] * np.maximum(sizes[cu], n_pool[cb, cu])[:, None, None]
        full = np.sum(s > tol, axis=-1) == n_pool[cb, cu][:, None]
        well = np.sum(s * s * DOWNDATE_COND >= s[..., :1] ** 2, axis=-1) == n_pool[cb, cu][:, None]
        cleared[cb, :, cu], conditioned[cb, :, cu] = full, full & well
    pb, ps, pp = np.nonzero(
        ~np.take_along_axis(cleared, pu[:, None], axis=2) & ~deficient & (n > 0)[:, None]
    )
    if pp.size:
        s = np.linalg.svd(pool[pb, ps, pu[pb, pp]] * mask[pb, pp, None, :], compute_uv=False)
        tol = eps * s[:, :1] * np.maximum(ma[pb, pp], n[pb, pp])[:, None]
        deficient[pb, ps, pp] = np.sum(s > tol, axis=1) < n[pb, pp]
    return deficient, conditioned


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (S, K, K) stack.

    Any other layout raises: the reshape would copy, and a write through
    it would be lost.
    """
    if a.ndim != 3 or not a.flags.c_contiguous:
        raise ValueError(f"diagonal view needs a C-contiguous (S, K, K) stack, got {a.shape}")
    return a.reshape(len(a), -1)[:, :: a.shape[-1] + 1]


def _leave_one_out(inv: np.ndarray, inv_cols: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Column j of (A_{-j,-j})^{-1} r_{-j} per system, from B = A^{-1}.

    The Schur downdate (A_{-j,-j})^{-1} = B_{-j,-j} - B_{-j,j} B_{j,-j} /
    B_jj gives every column at once: X = B R - B diag(diag(B R) /
    diag(B)), with ``inv_cols`` = B diag(B)^{-1}. With the diagonal of
    ``inv_cols`` set to exactly 1, entry j of column j is exactly 0.
    ``r`` may carry leading axes that ``inv`` broadcasts over.
    """
    z = inv @ r
    return z - inv_cols * np.diagonal(z, axis1=-2, axis2=-1)[..., None, :]


def _failure(spec, units, sizes, n, pu, pk, total, code, failed) -> PrecodingError:
    """The error one failing build raises: for the lowest failing user, a
    zero base vector, else its first failing unit in serving order (naming
    both), else an all-suppressed column."""
    user = int(np.argmax(failed))
    where = f"precoder {spec.name!r}, user {user}"
    if total[user] == 0:
        return DegenerateChannelError(f"{where}: zero base vector")
    bad = np.flatnonzero((pk == user) & (code > 0))
    if bad.size:
        p, u = bad[0], pu[bad[0]]
        cls, msg = _PAIR_FAILURES[code[p]]
        label = "centralized" if spec.scope == "centralized" else f"AP {units[u][0]}"
        return cls(f"{where}, {label}: " + msg.format(ma=sizes[u], n=n[p]))
    return FullySuppressedError(f"{where}: all components suppressed")


def _pool(spec, env, alpha, asm, stack, nf) -> tuple:
    """Every unit's suppression pool per trial and CSI estimate in
    ``stack``, the checks that choose how each pair is solved, and the
    unit Gram matrices the downdate inverts (see :func:`build_precoders`).

    Arrays lead with the trial axis, then one slice per estimate, or one
    for a pool made from locations alone. Returns the pool, its conjugate
    transpose and Gram matrices; the pairs' column masks and counts; the
    pair failures known before projecting; the pairs projected and those
    solved on their own; each (trial, slice, unit)'s index into ``a``, -1
    where not inverted whole; and those matrices ``a``, their inverses
    and ``inv_cols`` (None without any).
    """
    geo, k = env.geometry, env.num_users
    _, ant, sizes, _, pu, pk = asm
    trial = np.arange(len(pu))[:, None]
    is_csi = np.zeros((len(pu), sizes.size, k), dtype=bool)
    if spec.suppression in ("csi", "csi+nf"):
        # a unit holds a user's CSI when every one of its APs was granted it
        granted = np.broadcast_to(env.csi.granted, (len(pu), geo.num_aps, k))
        is_csi = ~_pad(~granted[:, geo.antenna_aps])[:, ant].any(axis=2)
    present, other = is_csi, 0
    if spec.suppression in ("nf", "csi+nf"):
        other = _unit_columns(_pad(nf)[:, ant])[:, None]
        present = np.ones_like(is_csi)
    mask = present[trial, pu] & (np.arange(k) != pk[:, None])
    n = mask.sum(axis=-1)
    unit_of = pu[..., None] == np.arange(sizes.size)
    used = unit_of.any(axis=1)
    pool = other
    if spec.suppression != "nf":
        held = env.csi.gather(granted, stack)
        pool = np.where(is_csi[:, None, :, None, :], _pad(held)[:, :, ant], other)
        if alpha is not None and spec.suppression == "csi+nf":
            # alpha acts on one scale: a unit pool that mixes CSI and
            # near-field columns has every nonzero column scaled to unit norm
            mixed = (is_csi.any(axis=-1) & ~is_csi.all(axis=-1))[:, None, :, None, None]
            norms = _norms(pool, -2)[..., None, :]
            pool /= np.where(mixed & (norms > 0), norms, 1)
    ph = pool.conj().swapaxes(-1, -2)
    gram = ph @ pool
    code = np.zeros(pool.shape[:2] + pu.shape[1:], dtype=int)
    if alpha is None:
        deficient, conditioned = _rank_deficient(pool, present, sizes, pu, mask, n, used)
        code[deficient] = _RANK
        solve = ~deficient & (n > 0)[:, None]
        direct = solve & np.take_along_axis(conditioned, pu[:, None], axis=2)
    else:
        solve = np.broadcast_to((n > 0)[:, None], code.shape)
        # A >= alpha*I, and no eigenvalue of A exceeds alpha + trace(V^H V)
        bound = np.trace(gram, axis1=-2, axis2=-1).real <= (DOWNDATE_COND - 1) * alpha
        direct = solve & np.take_along_axis(bound, pu[:, None], axis=2)
    inverted = np.nonzero(direct @ unit_of)  # (trial, slice, unit) holding a directly solved pair
    slot = np.full(gram.shape[:3], -1)
    slot[inverted] = np.arange(inverted[0].size)
    a = inv = inv_cols = None
    if inverted[0].size:
        a = gram[inverted]
        _diagonal(a)[...] += alpha if alpha is not None else ~present[inverted[0], inverted[2]]
        inv = np.linalg.inv(a)
        inv_cols = inv / np.diagonal(inv, axis1=1, axis2=2)[:, None, :]
        _diagonal(inv_cols)[...] = 1  # each column's own entry cancels exactly
    return pool, ph, gram, mask, n, code, solve, solve & ~direct, slot, a, inv, inv_cols


def build_precoders(
    spec: PrecoderSpec,
    env: InfoEnvironment,
    channels=None,
    noise_var: float | None = None,
) -> tuple[np.ndarray, tuple]:
    """Build one spec for every trial of ``env`` and channel estimate.

    ``channels``, (S, M, K) or for a batch (B, S, M, K), stacks S
    estimates that stand in for the channel ``env`` holds, under the
    same grants; None builds from that channel alone (S = 1). Returns
    ``(W, failures)`` of the same leading axes: slice (b, s) of W is the
    precoder :func:`build_precoder` returns for trial b holding
    ``channels[b, s]``, NaN where that build fails, and ``failures[b][s]``
    the PrecodingError it raises, or None. A spec that reads no CSI is
    built once per trial: W has one slice per trial.

    Column k of a slice is user k's base vector (MRT from CSI, or a
    steering vector from the UE location) orthogonalized against the
    suppression subspace built from the other users' CSI columns and/or
    near-field vectors. With scope "per-ap" the projection is repeated
    independently over each serving AP's antennas using only that AP's
    CSI. Per-unit results are concatenated over the user's serving
    antennas; entries outside them are zero. Each column equals
    ``orthogonalize`` (or ``orthogonalize_regularized``) of the user's
    base against its own suppression columns.

    Every user l has one pool column per assembly unit: its CSI where
    the unit holds it on every AP (natural channel scale), else its
    unit-norm near-field vector when the spec suppresses by location,
    else none. A regularized unit pool that holds both kinds has every
    nonzero column scaled to unit norm, so alpha acts on one scale; a
    zero column stays zero and suppresses nothing. Pair (unit, u)
    projects off the pool without column u.
    Each unit's Gram matrix A = V^H V + D (D is alpha*I when regularized,
    else 1 on the diagonal of absent columns) is inverted once, and every
    user's leave-one-out coefficients follow from that inverse by a Schur
    downdate (:func:`_leave_one_out`). Regularized specs add one
    refinement step with the same inverse, X += downdate(R - A X), which
    takes the columns from ~1e-8 to ~1e-11 of the per-vector
    construction when K - 1 exceeds the unit's antenna count.
    Unregularized specs project twice, as :func:`orthogonalize` does,
    each pass reusing the inverse, after one rank SVD per unit pool (see
    :func:`_rank_deficient`).

    Pairs fall back to a solve of their own masked Gram matrix when
    their unit's pool is rank deficient or when the unit's Gram condition
    number may exceed ``DOWNDATE_COND``.
    Units are padded to the widest with zero rows, which change no Gram
    matrix, projection or norm. Specs without suppression skip all of
    this. Each choice is made per (trial, estimate) slice.

    Arrays derived from locations, grants and serving are (B, ...): the
    near-field matrix, the assembly pairs, each unit's pool columns and
    a pool made from locations alone (``nf_nf``, ``mrt_nf``) with its
    rank SVD and inverses. The first two are ``env``'s: computed from the
    UE positions (never from a channel) and the serving APs on first
    use, and read by every later build on ``env``
    (:attr:`InfoEnvironment.near_field`, :meth:`InfoEnvironment.assembly`).
    Arrays read from CSI are (B, S, ...). Products broadcast the first
    over the estimates; each slice's arithmetic is that of a build of its
    own, whatever batch it is built in.

    ``noise_var`` supplies the default regularization weight when the
    spec is regularized with ``alpha=None``. A singular Gram matrix, in
    a unit inverse or a pair's solve, fails its slice with a
    RankDeficiencyError naming the spec. Missing information or weight
    raises for the whole batch.
    """
    w, failures = _build(spec, env, channels, noise_var)
    return (w, failures) if env.batch is not None else (w[0], failures[0])


def _build(spec, env, channels, noise_var) -> tuple[np.ndarray, tuple]:
    """:func:`build_precoders` with the trial axis kept for one trial."""
    req = _check_requirements(spec, env)
    alpha = None
    if spec.regularized:
        alpha = spec.alpha if spec.alpha is not None else noise_var
        if alpha is None or not alpha > 0:
            raise ConfigError(f"regularized precoder {spec.name!r} needs alpha or noise_var > 0")
    geo, k, batch = env.geometry, env.num_users, env.batch or 1
    stack = None
    if req.csi_intended or req.csi_unintended:
        h = env.csi.channel
        stack = h[..., None, :, :] if channels is None else np.asarray(channels, complex)
        if stack.shape[:-3] + stack.shape[-2:] != h.shape or stack.ndim != h.ndim + 1:
            shape = f"({'B, ' if env.batch else ''}S, {geo.num_antennas}, {k})"
            raise ValueError(f"channels must be {shape}, got {stack.shape}")
        stack = stack.reshape((batch,) + stack.shape[-3:])
    asm = units, ant, sizes, served, pu, pk = env.assembly(spec.scope)
    nf = None
    if spec.base == "nf" or spec.suppression in ("nf", "csi+nf"):
        nf = env.near_field
    if spec.base == "mrt":
        w = env.csi.gather(served, stack)
    elif spec.base == "nf":
        w = np.where(served[:, geo.antenna_aps], nf, 0)[:, None]
    else:
        w = np.zeros((batch, 1, geo.num_antennas, k), dtype=complex)
        points = env.ue_positions.reshape(batch, k, 3)
        for (b, p), u in np.ndenumerate(pu):
            idx = ant[u, : sizes[u]]
            theta, ref = steering_angle(geo, points[b, pk[p]], idx)
            w[b, 0, idx, pk[p]] = far_field_weights(geo, theta, ref)[idx]
    if stack is not None and w.shape[1] < stack.shape[1]:  # a location base under CSI suppression
        w = np.repeat(w, stack.shape[1], axis=1)
    total = _norms(w, -2)
    w /= np.where(total > 0, total, 1.0)[..., None, :]

    n = np.zeros_like(pu)  # the columns each pair projects off
    code = np.zeros(w.shape[:2] + pk.shape, dtype=int)
    if spec.suppression != "none":
        try:
            pool, ph, gram, mask, n, pool_code, solve, slow, slot, a, inv, inv_cols = _pool(
                spec, env, alpha, asm, stack, nf
            )
            code[...] = pool_code  # a location pool's codes hold for every estimate
            if solve.any():
                # every user's base on every unit; columns outside a pair never move
                b = _pad(w)[:, :, ant]
                step = np.zeros(b.shape[:3] + (k, k), dtype=complex)
                # units inverted whole, per slice of the build
                slot = np.broadcast_to(slot, step.shape[:3])
                ib, is_, iu = np.nonzero(slot >= 0)
                if ib.size:
                    j = slot[ib, is_, iu]
                    a, inv, inv_cols = a[j], inv[j], inv_cols[j]
                # pairs solved one by one, per slice of the build
                sb, ss, sp = np.nonzero(np.broadcast_to(slow, code.shape))
                if sp.size:
                    su, sk, sm = pu[sb, sp], pk[sp], mask[sb, sp]
                    g = np.broadcast_to(gram, b.shape[:2] + gram.shape[2:])[sb, ss, su]
                    g = g * (sm[:, :, None] & sm[:, None, :])
                    _diagonal(g)[...] += alpha if alpha is not None else ~sm
                for _ in range(1 if alpha is not None else 2):
                    r = ph @ b
                    if ib.size:
                        rs = r[ib, is_, iu]
                        x = _leave_one_out(inv, inv_cols, rs)
                        if alpha is not None:
                            x += _leave_one_out(inv, inv_cols, rs - a @ x)
                        step[ib, is_, iu] = x
                    if sp.size:
                        rhs = (r[sb, ss, su, :, sk] * sm)[:, :, None]
                        step[sb, ss, su, :, sk] = sm * np.linalg.solve(g, rhs)[:, :, 0]
                    b -= pool @ step
                if alpha is None:
                    tb, ts, tp = np.nonzero(np.broadcast_to(solve, code.shape))
                    tiny = _norms(b[tb, ts, pu[tb, tp], :, pk[tp]], 1) < FULL_SUPPRESSION_TOL
                    code[tb[tiny], ts[tiny], tp[tiny]] = _SUPPRESSED
                w = np.zeros(b.shape[:2] + (geo.num_antennas + 1, k), dtype=complex)
                bi = np.arange(batch)[:, None]
                w[bi[..., None], :, ant[pu], pk[:, None]] = b[bi, :, pu, :, pk].swapaxes(-1, -2)
                w = w[:, :, :-1]
        except np.linalg.LinAlgError as exc:
            if w.shape[0] * w.shape[1] > 1:  # find the singular slices: build each on its own
                one = [[_build(spec, env.trial(b), None if stack is None else stack[b, s][None],
                               noise_var) for s in range(w.shape[1])] for b in range(w.shape[0])]
                return (np.array([[x[0][0, 0] for x in row] for row in one]),
                        tuple(tuple(x[1][0][0] for x in row) for row in one))
            error = RankDeficiencyError(
                f"precoder {spec.name!r}: singular suppression Gram matrix ({exc})"
            )
            error.__cause__ = exc
            return np.full(w.shape, np.nan, dtype=complex), ((error,),)

    norms = _norms(w, -2)
    failed = (total == 0) | (norms < FULL_SUPPRESSION_TOL)
    fb, fs, fp = np.nonzero(code)
    failed[fb, fs, pk[fp]] = True
    bad = failed.any(axis=-1)
    w = w / np.where(failed, 1.0, norms)[..., None, :]
    w[bad] = np.nan
    errors = np.full(bad.shape, None, dtype=object)
    for b, s in zip(*np.nonzero(bad)):
        trial = n[b], pu[b], pk, total[b, s], code[b, s], failed[b, s]
        errors[b, s] = _failure(spec, units, sizes, *trial)
    return w, tuple(map(tuple, errors))


def build_precoder(
    spec: PrecoderSpec,
    env: InfoEnvironment,
    noise_var: float | None = None,
) -> np.ndarray:
    """Assemble the (M, K) precoding matrix of one trial, one unit-norm
    column per user.

    :func:`build_precoders` for the one channel ``env`` holds, which
    describes the construction. A precoding failure is raised for the
    lowest failing user: a zero base vector, else its first failing unit
    in serving order (naming both), else an all-suppressed column. A
    singular Gram matrix raises RankDeficiencyError naming the spec.
    """
    (w,), (error,) = build_precoders(spec, env, None, noise_var)
    if error is not None:
        raise error
    return w
