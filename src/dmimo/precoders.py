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
    geometry: ArrayGeometry, theta: float | np.ndarray, reference_antenna: int = 0
) -> np.ndarray:
    """Delay-and-sum steering weights for angle ``theta`` off broadside.

    Element i is exp(-j*2*pi*d_i*sin(theta)/lambda) with d_i the distance
    from antenna i to the reference antenna, normalized to a unit vector.
    Meaningful for (near-)collinear antennas; |theta| must be <= pi/2
    (pi/2 is endfire). Angles of shape (...) give one vector each, (..., M).
    """
    theta = np.asarray(theta, dtype=float)
    outside = ~(np.abs(theta) <= np.pi / 2)
    if outside.any():
        raise ValueError(f"|theta| must be <= pi/2, got {theta[outside][0]}")
    ref = geometry.antenna_positions[reference_antenna]
    d = np.linalg.norm(geometry.antenna_positions - ref, axis=1)
    w = np.exp(-2j * np.pi * d * np.sin(theta)[..., None] / geometry.wavelength)
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


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
    UE positions of shape (..., 3) give their angles, (...), from one fit
    of the array axis; the reference antenna depends on the antennas alone.
    """
    if antenna_subset is None:
        subset = np.arange(geometry.num_antennas)
    else:
        subset = np.asarray(antenna_subset, dtype=int)
    positions = geometry.antenna_positions[subset]
    axis = _array_axis(positions)
    proj = (positions - positions.mean(axis=0)) @ axis
    ref_local = int(np.argmin(proj))
    to_ue = np.asarray(ue_position, dtype=float) - positions[ref_local]
    dist = np.linalg.norm(to_ue, axis=-1)
    if (dist == 0).any():
        raise GeometryError("UE position coincides with the reference antenna")
    sin_geom = np.clip(to_ue @ axis / dist, -1.0, 1.0)
    if (np.abs(sin_geom) == 1.0).any():
        raise GeometryError("UE lies on the array axis; steering angle undefined")
    theta = -np.arcsin(sin_geom)
    return (float(theta) if theta.ndim == 0 else theta), int(subset[ref_local])


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

    def trial(self, b: int | slice) -> "InfoEnvironment":
        """Trial ``b`` of a batch as a one-trial environment (a copy of a
        one-trial environment), deriving its own location state; for a
        slice ``b``, those trials as a batch that shares the location
        state this one has derived."""

        def pick(x):
            return x if x is None or x.ndim < 3 else x[b]

        c = self.csi
        csi = c and ChannelAccess(self.geometry, pick(c.channel), pick(c.granted))
        serving = None if self.serving is None else pick(self._aps)
        shared = isinstance(b, slice)
        phasors = pick(self.near_field) if shared and self.ue_positions is not None else None
        env = replace(self, csi=csi, ue_positions=pick(self.ue_positions), serving=serving,
                      phasors=phasors)
        if shared:
            for scope, (units, ant, sizes, served, pu, pk) in self._assemblies.items():
                env._assemblies[scope] = units, ant, sizes, pick(served), pu[b], pk
        return env

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

#: Most entries of the pool, Gram and base stacks one build call holds,
#: estimates x units x K x (unit antennas + K) per trial: a suppressing
#: build runs over slabs of its trials within it, so its memory does not
#: grow with the batch.
BUILD_ENTRIES = 25_000


def _padded(gram: np.ndarray, held: np.ndarray, diagonal) -> np.ndarray:
    """The matrices a build inverts, (B, S, U, K, K): ``gram`` where
    ``held``, else the identity, plus ``diagonal``."""
    a = np.ascontiguousarray(np.where(held[..., None, None], gram, np.eye(gram.shape[-1])))
    _diagonal(a)[...] += diagonal
    return a


def _certify(gram, present, screened) -> tuple:
    """Invert the padded Gram matrices of the ``screened`` unit pools
    once and certify from that inverse (README, "Accuracy"). Returns the
    stack ``a`` (:func:`_padded`); its inverse, None when none is
    screened or it raises (an exactly singular pool); and, (B, S, U),
    the pools it proves full rank with a Gram condition number of at
    most ``DOWNDATE_COND`` / 100."""
    absent = ~present[:, None]
    a = _padded(gram, screened, absent)
    if not screened.any():
        return a, None, screened
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return a, None, np.zeros_like(screened)
    flat = a.shape[:-2] + (-1,)
    r = _norms((np.eye(a.shape[-1]) - a @ inv).reshape(flat), -1)
    trace = np.trace(a, axis1=-2, axis2=-1).real - absent.sum(axis=-1)
    bound = trace * _norms(inv.reshape(flat), -1)
    return a, inv, screened & (r <= 0.5) & (bound <= (1 - r) * (DOWNDATE_COND / 100))


def _rank_deficient(pool, present, sizes, pu, mask, n, screened, certified):
    """Per trial, pool slice and pair: do its n columns under ``mask`` lack
    full rank? ``pool`` is (B, S, U, Ma, K); ``screened`` (B, S, U) marks
    the used unit pools with 0 < n_pool <= Ma, and ``certified`` those of
    them :func:`_certify` cleared, which get no SVD. Also returns whether
    each unit pool is full rank with a Gram condition number (sigma_max /
    sigma_min)^2 of at most ``DOWNDATE_COND``. README ("Accuracy") gives
    the screen.
    """
    eps = np.finfo(float).eps
    ma = sizes[pu]
    deficient = np.repeat((n > ma)[:, None], pool.shape[1], axis=1)
    n_pool = present.sum(axis=-1)
    cleared, conditioned = certified.copy(), certified.copy()
    cb, cs, cu = np.nonzero(screened & ~certified)
    if cb.size:
        s = np.linalg.svd(pool[cb, cs, cu], compute_uv=False)
        tol = eps * s[:, :1] * np.maximum(sizes[cu], n_pool[cb, cu])[:, None]
        full = np.sum(s > tol, axis=-1) == n_pool[cb, cu]
        well = np.sum(s * s * DOWNDATE_COND >= s[:, :1] ** 2, axis=-1) == n_pool[cb, cu]
        cleared[cb, cs, cu], conditioned[cb, cs, cu] = full, full & well
    pb, ps, pp = np.nonzero(
        ~np.take_along_axis(cleared, pu[:, None], axis=2) & ~deficient & (n > 0)[:, None]
    )
    if pp.size:
        s = np.linalg.svd(pool[pb, ps, pu[pb, pp]] * mask[pb, pp, None, :], compute_uv=False)
        tol = eps * s[:, :1] * np.maximum(ma[pb, pp], n[pb, pp])[:, None]
        deficient[pb, ps, pp] = np.sum(s > tol, axis=1) < n[pb, pp]
    return deficient, conditioned


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (..., K, K) stack.

    Any other layout raises: the reshape would copy, and a write through
    it would be lost.
    """
    if a.ndim < 3 or not a.flags.c_contiguous:
        raise ValueError(f"diagonal view needs a C-contiguous (..., K, K) stack, got {a.shape}")
    return a.reshape(a.shape[:-2] + (-1,))[..., :: a.shape[-1] + 1]


def _leave_one_out(inv: np.ndarray, inv_cols: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Column j of (A_{-j,-j})^{-1} r_{-j} per system, from B = A^{-1}.

    The Schur downdate (A_{-j,-j})^{-1} = B_{-j,-j} - B_{-j,j} B_{j,-j} /
    B_jj gives every column at once: X = B R - B diag(diag(B R) /
    diag(B)), with ``inv_cols`` = B diag(B)^{-1}. With the diagonal of
    ``inv_cols`` set to exactly 1, entry j of column j is exactly 0.
    ``r`` may carry leading axes that ``inv`` broadcasts over.
    """
    z = inv @ r
    z -= inv_cols * np.diagonal(z, axis1=-2, axis2=-1)[..., None, :]
    return z


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


def _columns(spec, env, asm) -> tuple:
    """Which suppression columns each unit's pool holds: per (trial, unit,
    user) whether the unit holds that user's CSI and whether its pool has
    a column for that user; and each pair's column mask, (B, P, K), and
    its count of columns."""
    geo, k = env.geometry, env.num_users
    _, ant, sizes, _, pu, pk = asm
    is_csi = np.zeros((len(pu), sizes.size, k), dtype=bool)
    if spec.suppression in ("csi", "csi+nf"):
        # a unit holds a user's CSI when every one of its APs was granted it
        granted = np.broadcast_to(env.csi.granted, (len(pu), geo.num_aps, k))
        is_csi = ~_pad(~granted[:, geo.antenna_aps])[:, ant].any(axis=2)
    present = np.ones_like(is_csi) if spec.suppression in ("nf", "csi+nf") else is_csi
    mask = present[np.arange(len(pu))[:, None], pu] & (np.arange(k) != pk[:, None])
    return is_csi, present, mask, mask.sum(axis=-1)


def _pool(spec, env, alpha, asm, stack, nf, columns) -> tuple:
    """Every unit's suppression pool per trial and CSI estimate in
    ``stack``, the checks that choose how each pair is solved, and the
    unit Gram matrices the downdate inverts (see :func:`build_precoders`),
    given the pools' ``columns`` (:func:`_columns`).

    Arrays lead with the trial axis, then one slice per estimate, or one
    for a pool made from locations alone. Returns the pool and its Gram
    matrices; the pair failures known before projecting; the pairs
    projected and those solved on their own; which (trial, slice, unit)
    holds a directly solved pair; and per (trial, slice, unit) the
    matrix ``a`` the downdate inverts, its inverse, the identity where
    not held, and ``inv_cols`` (all None if none is held).
    """
    k = env.num_users
    _, ant, sizes, _, pu, pk = asm
    is_csi, present, mask, n = columns
    other = 0
    if spec.suppression in ("nf", "csi+nf"):
        other = _unit_columns(_pad(nf)[:, ant])[:, None]
    unit_of = pu[..., None] == np.arange(sizes.size)
    used = unit_of.any(axis=1)
    pool = other
    if spec.suppression != "nf":
        csi = _pad(env.csi.gather(env.csi.granted, stack))[:, :, ant]
        pool = np.where(is_csi[:, None, :, None, :], csi, other)
        if alpha is not None and spec.suppression == "csi+nf":
            # alpha acts on one scale: a unit pool that mixes CSI and
            # near-field columns has every nonzero column scaled to unit norm
            mixed = (is_csi.any(axis=-1) & ~is_csi.all(axis=-1))[:, None, :, None, None]
            norms = _norms(pool, -2)[..., None, :]
            pool /= np.where(mixed & (norms > 0), norms, 1)
    gram = pool.conj().swapaxes(-1, -2) @ pool
    code = np.zeros(pool.shape[:2] + pu.shape[1:], dtype=int)
    inv = None
    if alpha is None:
        n_pool = present.sum(axis=-1)
        screened = (used & (n_pool > 0) & (n_pool <= sizes))[:, None]
        screened = np.broadcast_to(screened, gram.shape[:3])
        a, inv, certified = _certify(gram, present, screened)
        deficient, conditioned = _rank_deficient(
            pool, present, sizes, pu, mask, n, screened, certified
        )
        code[deficient] = _RANK
        solve = ~deficient & (n > 0)[:, None]
        direct = solve & np.take_along_axis(conditioned, pu[:, None], axis=2)
    else:
        solve = np.broadcast_to((n > 0)[:, None], code.shape)
        # A >= alpha*I, and no eigenvalue of A exceeds alpha + trace(V^H V)
        bound = np.trace(gram, axis1=-2, axis2=-1).real <= (DOWNDATE_COND - 1) * alpha
        direct = solve & np.take_along_axis(bound, pu[:, None], axis=2)
    held = direct @ unit_of  # (trial, slice, unit) holding a directly solved pair
    if not held.any():
        return pool, gram, code, solve, solve & ~direct, held, None, None, None
    if inv is None:  # regularized, or the screen's inverse raised
        a = _padded(gram, held, alpha if alpha is not None else ~present[:, None])
        inv = np.linalg.inv(a)
    else:
        inv[~held] = np.eye(k)  # no step reads these slots
    inv_cols = inv / np.diagonal(inv, axis1=-2, axis2=-1)[..., None, :]
    _diagonal(inv_cols)[...] = 1  # each column's own entry cancels exactly
    return pool, gram, code, solve, solve & ~direct, held, a, inv, inv_cols


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
    built once per trial: W has one slice per trial. ``noise_var``
    supplies the weight of a regularized spec with ``alpha=None``.
    Missing information or weight raises for the whole batch.

    Column k of a slice is user k's base vector (MRT from CSI, or a
    steering vector from the UE location) orthogonalized against the
    other users' CSI and/or near-field columns, per assembly unit (all
    serving antennas, or each serving AP with scope "per-ap"): it equals
    ``orthogonalize`` (or ``orthogonalize_regularized``) of the user's
    base against its own suppression columns. README ("Library entry
    points") gives the construction, batched over units, users, trials
    and estimates.

    A suppressing spec runs over slabs of trials of at most
    ``BUILD_ENTRIES`` stack entries, each sharing ``env``'s location
    state (:meth:`InfoEnvironment.trial`); a batch that fits one slab is
    one call. Each slice's arithmetic is that of a build of its own,
    whatever batch or slab it is built in. A singular Gram matrix fails
    its slab, which is built again one (trial, estimate) at a time: only
    its own slice fails, with a RankDeficiencyError naming the spec.
    """
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
    ant = env.assembly(spec.scope)[1]  # derived once, and shared by every slab
    slices = 1 if stack is None else stack.shape[1]
    entries = slices * k * (ant.size + len(ant) * k)  # per trial
    size = batch if spec.suppression == "none" else min(batch, max(1, BUILD_ENTRIES // entries))
    w = errors = None  # filled slab by slab unless one call builds the batch
    queue = [(slice(t, t + size), slice(None)) for t in range(0, batch, size)]
    while queue:
        trials, estimates = queue.pop()
        whole = size == batch and estimates == slice(None)
        try:
            part = _build(spec, env if whole else env.trial(trials), alpha,
                          None if stack is None else stack[trials, estimates])
        except np.linalg.LinAlgError as exc:
            cells = [(slice(b, b + 1), slice(s, s + 1))
                     for b in range(batch)[trials] for s in range(slices)[estimates]]
            if len(cells) > 1:  # find the singular slices: build each on its own
                queue += cells
                continue
            part = np.nan, RankDeficiencyError(
                f"precoder {spec.name!r}: singular suppression Gram matrix ({exc})"
            )
            part[1].__cause__ = exc
        else:
            if whole:
                w, errors = part
                break
        if w is None:
            w = np.empty((batch, slices, geo.num_antennas, k), dtype=complex)
            errors = np.empty((batch, slices), dtype=object)
        w[trials, estimates], errors[trials, estimates] = part
    errors = tuple(map(tuple, errors))
    return (w, errors) if env.batch is not None else (w[0], errors[0])


def _build(spec, env, alpha, stack) -> tuple[np.ndarray, np.ndarray]:
    """One call of :func:`build_precoders` over every trial of ``env``,
    given the weight ``alpha`` (None when unregularized) and the (B, S, M,
    K) ``stack`` of estimates (None for a spec that reads no CSI): W and
    the (B, S) failures. A singular Gram matrix raises LinAlgError."""
    geo, k, batch = env.geometry, env.num_users, env.batch or 1
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
        for u, idx in enumerate(ant):  # one axis fit per unit, for all its pairs
            b, p = np.nonzero(pu == u)
            idx = idx[: sizes[u]]
            theta, ref = steering_angle(geo, points[b, pk[p]], idx)
            w[b[:, None], 0, idx, pk[p, None]] = far_field_weights(geo, theta, ref)[:, idx]
    if stack is not None and w.shape[1] < stack.shape[1]:  # a location base under CSI suppression
        w = np.repeat(w, stack.shape[1], axis=1)
    total = _norms(w, -2)
    w /= np.where(total > 0, total, 1.0)[..., None, :]

    n = np.zeros_like(pu)  # the columns each pair projects off
    code = np.zeros(w.shape[:2] + pk.shape, dtype=int)
    if spec.suppression != "none":
        columns = _columns(spec, env, asm)
        mask, n = columns[2:]
    if alpha is None and (n > sizes[pu]).all():
        # every pair has more columns than its unit has antennas: the
        # shapes decide the failures, with no pool
        code[...] = _RANK
    elif spec.suppression != "none":
        pool, gram, pool_code, solve, slow, held, a, inv, inv_cols = _pool(
            spec, env, alpha, asm, stack, nf, columns
        )
        code[...] = pool_code  # a location pool's codes hold for every estimate
        if solve.any():
            # every user's base on every unit; columns outside a pair never move
            b = _pad(w)[:, :, ant]
            del w
            # pairs solved one by one, per slice of the build
            sb, ss, sp = np.nonzero(np.broadcast_to(slow, code.shape))
            if sp.size:
                su, sk, sm = pu[sb, sp], pk[sp], mask[sb, sp]
                g = np.broadcast_to(gram, b.shape[:2] + gram.shape[2:])[sb, ss, su]
                g = g * (sm[:, :, None] & sm[:, None, :])
                _diagonal(g)[...] += alpha if alpha is not None else ~sm
            del gram
            for _ in range(1 if alpha is not None else 2):
                r = pool.conj().swapaxes(-1, -2) @ b
                if sp.size:
                    rhs = (r[sb, ss, su, :, sk] * sm)[:, :, None]
                step = np.zeros_like(r) if inv is None else _leave_one_out(inv, inv_cols, r)
                if inv is not None and alpha is not None:
                    r -= a @ step
                    step += _leave_one_out(inv, inv_cols, r)
                del r
                step[~np.broadcast_to(held, step.shape[:3])] = 0  # only slow pairs move these
                if sp.size:
                    step[sb, ss, su, :, sk] = sm * np.linalg.solve(g, rhs)[:, :, 0]
                b -= pool @ step
            del pool, a, inv, inv_cols, step
            if alpha is None:
                tb, ts, tp = np.nonzero(np.broadcast_to(solve, code.shape))
                tiny = _norms(b[tb, ts, pu[tb, tp], :, pk[tp]], 1) < FULL_SUPPRESSION_TOL
                code[tb[tiny], ts[tiny], tp[tiny]] = _SUPPRESSED
            w = np.zeros(b.shape[:2] + (geo.num_antennas + 1, k), dtype=complex)
            bi = np.arange(batch)[:, None]
            w[bi[..., None], :, ant[pu], pk[:, None]] = b[bi, :, pu, :, pk].swapaxes(-1, -2)
            w = w[:, :, :-1]

    norms = _norms(w, -2)
    failed = (total == 0) | (norms < FULL_SUPPRESSION_TOL)
    fb, fs, fp = np.nonzero(code)
    failed[fb, fs, pk[fp]] = True
    bad = failed.any(axis=-1)
    w /= np.where(failed, 1.0, norms)[..., None, :]
    w[bad] = np.nan
    errors = np.full(bad.shape, None, dtype=object)
    for b, s in zip(*np.nonzero(bad)):
        trial = n[b], pu[b], pk, total[b, s], code[b, s], failed[b, s]
        errors[b, s] = _failure(spec, units, sizes, *trial)
    return w, errors


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
