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

from dataclasses import dataclass, replace
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

    ``granted[ap, user]`` gates access to the rows of ``channel``
    belonging to that AP; reading an ungranted block raises
    InformationError so information constraints hold by construction.
    """

    geometry: ArrayGeometry
    channel: np.ndarray
    granted: np.ndarray

    def __post_init__(self):
        h = _as_matrix(self.channel)
        object.__setattr__(self, "channel", h)
        g = np.asarray(self.granted, dtype=bool)
        if h.shape[0] != self.geometry.num_antennas:
            raise ConfigError(
                f"channel has {h.shape[0]} rows, geometry has "
                f"{self.geometry.num_antennas} antennas"
            )
        if g.shape != (self.geometry.num_aps, h.shape[1]):
            raise ConfigError(
                f"granted mask must have shape (num_aps, K) = "
                f"({self.geometry.num_aps}, {h.shape[1]}), got {g.shape}"
            )
        object.__setattr__(self, "granted", g)

    @classmethod
    def full(cls, geometry: ArrayGeometry, channel) -> "ChannelAccess":
        h = _as_matrix(channel)
        return cls(geometry, h, np.ones((geometry.num_aps, h.shape[1]), dtype=bool))

    @property
    def num_users(self) -> int:
        return self.channel.shape[1]

    def gather(self, wanted: np.ndarray, channels=None) -> np.ndarray:
        """The (M, K) channel with every (AP, user) block outside ``wanted``
        zeroed; ``wanted`` is (num_aps, K) and must only ask for granted
        blocks. An (S, M, K) stack of ``channels`` read under the same
        grants stands in for the held channel and gives (S, M, K)."""
        denied = wanted & ~self.granted
        if denied.any():
            a, l = np.argwhere(denied)[0]
            raise InformationError(f"CSI for AP {a}, user {l} was not granted")
        h = self.channel if channels is None else channels
        return np.where(wanted[self.geometry.antenna_aps], h, 0)


@dataclass(frozen=True)
class InfoEnvironment:
    """Everything a transmitter may consult when building precoders.

    csi/ue_positions are None when that category of information is not
    granted at all. ``serving`` lists the AP indices that transmit to
    each user (None means all APs serve everyone).
    """

    geometry: ArrayGeometry
    num_users: int
    csi: ChannelAccess | None = None
    ue_positions: np.ndarray | None = None
    serving: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.ue_positions is not None:
            p = np.asarray(self.ue_positions, dtype=float)
            if p.shape != (self.num_users, 3):
                raise ConfigError(
                    f"ue_positions must have shape ({self.num_users}, 3), got {p.shape}"
                )
            object.__setattr__(self, "ue_positions", p)
        if self.csi is not None and self.csi.num_users != self.num_users:
            raise ConfigError("CSI access and environment disagree on K")
        if self.serving is not None:
            if len(self.serving) != self.num_users:
                raise ConfigError("serving must list AP indices for every user")
            num_aps = self.geometry.num_aps
            for user, aps in enumerate(self.serving):
                if not aps or len(set(aps)) != len(aps) or not all(
                    0 <= a < num_aps for a in aps
                ):
                    raise ConfigError(
                        f"serving APs of user {user} must be distinct indices in "
                        f"[0, {num_aps}) and at least one, got {tuple(aps)}"
                    )
        # location and assembly state that build_precoders derives once
        object.__setattr__(self, "_derived", {})

    def with_channel(self, channel) -> "InfoEnvironment":
        """This environment holding ``channel`` as its CSI, same grants.

        The copy shares the state :func:`build_precoders` derives from
        locations, grants and serving alone (the near-field matrix, the
        assembly units, the pool layouts and the pools made from
        locations), so the CSI variants of one trial derive it once.
        """
        env = replace(self, csi=ChannelAccess(self.geometry, channel, self.csi.granted))
        object.__setattr__(env, "_derived", self._derived)
        return env

    def serving_aps(self, user: int) -> tuple[int, ...]:
        if self.serving is None:
            return tuple(range(self.geometry.num_aps))
        return tuple(self.serving[user])


def _check_requirements(spec: PrecoderSpec, env: InfoEnvironment) -> InfoRequirements:
    req = spec.requirements()
    if (req.csi_intended or req.csi_unintended) and env.csi is None:
        raise InformationError(
            f"precoder {spec.name!r} requires CSI but none was granted"
        )
    if (req.location_intended or req.location_unintended) and env.ue_positions is None:
        raise InformationError(
            f"precoder {spec.name!r} requires UE locations but none were granted"
        )
    return req


def _derive(env: InfoEnvironment, key, make):
    """``make()``, computed once per environment and its CSI variants."""
    state = env._derived
    if key not in state:
        state[key] = make()
    return state[key]


def _assembly(env: InfoEnvironment, scope: str):
    """The assembly units of one build and the (unit, user) pairs they form.

    Returns the units (AP tuples, first-use order); their antenna rows,
    padded with M, the index of an appended zero row; their sizes; the
    (AP, user) serving mask; and the pairs' unit and user indices,
    user-major with each user's units in serving order, so the first
    failing pair is the lowest failing user's first failing unit.
    """
    geo, k = env.geometry, env.num_users
    serving = [env.serving_aps(user) for user in range(k)]
    flat = [a for aps in serving for a in aps]
    users = np.repeat(np.arange(k), [len(aps) for aps in serving])
    served = np.zeros((geo.num_aps, k), dtype=bool)
    served[flat, users] = True
    if scope == "centralized":
        unit_of, pair_user = serving, np.arange(k)
    else:
        unit_of, pair_user = [(a,) for a in flat], users
    index = {unit: u for u, unit in enumerate(dict.fromkeys(unit_of))}
    rows = [[i for a in unit for i in geo.ap_partition[a]] for unit in index]
    width = max(map(len, rows))
    antennas = np.array([r + [geo.num_antennas] * (width - len(r)) for r in rows])
    sizes = np.array([len(r) for r in rows])
    pair_unit = np.array([index[unit] for unit in unit_of])
    return list(index), antennas, sizes, served, pair_unit, pair_user


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


#: Exception class and message of each (unit, user) pair failure code.
_DEGENERATE, _RANK, _SUPPRESSED = 1, 2, 3
_PAIR_FAILURES = {
    _DEGENERATE: (DegenerateChannelError, "cannot normalize a zero column"),
    _RANK: (RankDeficiencyError,
            "suppression matrix ({ma}x{n}) is rank deficient; use the regularized projection"),
    _SUPPRESSED: (FullySuppressedError, "base vector lies in the suppression subspace"),
}

#: Largest condition number of a unit's Gram matrix whose inverse the
#: leave-one-out downdate may use; worse-conditioned units are solved
#: pair by pair.
DOWNDATE_COND = 1e8

#: Fewest pairs per unit, on average, and fewest pairs in all, for which
#: a regularized build inverts its units; below either the downdate and
#: its refinement step cost more than one solve per pair. Per-AP builds
#: on eight APs break even at 5-6 users, on two to four APs at 6-7, and
#: one-unit builds at 9-10. Unregularized builds, which solve each pair
#: twice, always invert.
DOWNDATE_PAIRS, DOWNDATE_MIN_PAIRS = 6, 10


def _rank_deficient(pool, present, sizes, pair_unit, mask, n):
    """Per pool slice and pair: do its n columns under ``mask`` lack full rank?

    ``pool`` is (S, U, Ma, K). The threshold is :func:`numerical_rank`'s,
    eps * sigma_max * max(Ma, n). By singular-value interlacing every
    column subset of a full-rank pool is full rank, so one SVD per unit
    pool clears all its pairs; only the pairs of a pool that fails, or
    that has more columns than antennas, get an SVD of their own. Also
    returns per slice and unit whether its pool is full rank with a Gram
    condition number (sigma_max / sigma_min)^2 of at most ``DOWNDATE_COND``.
    """
    eps = np.finfo(float).eps
    ma = sizes[pair_unit]
    deficient = np.repeat((n > ma)[None], len(pool), axis=0)
    n_pool = present.sum(axis=1)
    cleared = np.zeros((len(pool), sizes.size), dtype=bool)
    conditioned = np.zeros((len(pool), sizes.size), dtype=bool)
    check = np.flatnonzero((n_pool > 0) & (n_pool <= sizes))
    if check.size:
        s = np.linalg.svd(pool[:, check], compute_uv=False)
        tol = eps * s[..., :1] * np.maximum(sizes[check], n_pool[check])[:, None]
        cleared[:, check] = np.sum(s > tol, axis=-1) == n_pool[check]
        well = np.sum(s * s * DOWNDATE_COND >= s[..., :1] ** 2, axis=-1) == n_pool[check]
        conditioned[:, check] = cleared[:, check] & well
    si, check = np.nonzero(~cleared[:, pair_unit] & ~deficient & (n > 0))
    if check.size:
        s = np.linalg.svd(pool[si, pair_unit[check]] * mask[check, None, :], compute_uv=False)
        tol = eps * s[:, :1] * np.maximum(ma[check], n[check])[:, None]
        deficient[si, check] = np.sum(s > tol, axis=1) < n[check]
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


def _layout(env: InfoEnvironment, scope: str, suppression: str, nf):
    """What a suppression pool holds, fixed by grants, locations and
    serving: per unit, which users' columns are CSI (``is_csi``) and which
    are present; per pair, the columns it projects off (``mask``), their
    count and its unit as a one-hot row; and the units' unit-norm
    near-field columns (or None)."""
    geo, k = env.geometry, env.num_users
    _, ant, sizes, _, pu, pk = _derive(env, ("assembly", scope), lambda: _assembly(env, scope))
    is_csi = np.zeros((sizes.size, k), dtype=bool)
    if suppression in ("csi", "csi+nf"):
        # a unit holds a user's CSI when every one of its APs was granted it
        is_csi = ~_pad(~env.csi.granted[geo.antenna_aps])[ant].any(axis=1)
    present, cols = is_csi, None
    if suppression in ("nf", "csi+nf"):
        cols = _unit_columns(_pad(nf)[ant])
        present = np.ones_like(is_csi)
    mask = present[pu] & (np.arange(k) != pk[:, None])
    return is_csi, present, mask, mask.sum(axis=1), pu[:, None] == np.arange(sizes.size), cols


def _pool(spec, env, alpha, stack, nf) -> tuple:
    """Every unit's suppression pool for each CSI estimate in ``stack``,
    the checks that choose how each pair is solved, and the inverse of
    every unit Gram matrix the downdate uses (see :func:`build_precoders`).

    Arrays lead with one slice per estimate, or a single slice for a
    pool made from locations alone. Returns the pool, its conjugate
    transpose and Gram matrices; the pairs' column masks, counts and
    scales; the pair failures known before projecting; the pairs
    projected and those solved on their own; the (slice, unit) indices
    of the unit Gram matrices ``a`` inverted whole, the inverses and
    ``inv_cols`` (None without such units).
    """
    _, ant, sizes, _, pu, _ = _derive(
        env, ("assembly", spec.scope), lambda: _assembly(env, spec.scope)
    )
    is_csi, present, mask, n, unit_of, cols = _derive(
        env, ("layout", spec.scope, spec.suppression),
        lambda: _layout(env, spec.scope, spec.suppression, nf),
    )
    if spec.suppression == "nf":
        pool = cols[None]
    else:
        held = env.csi.gather(env.csi.granted, stack)
        other = 0 if cols is None else cols
        pool = np.where(is_csi[:, None, :], np.take(_pad(held), ant, axis=1), other)
    ph = pool.conj().swapaxes(-1, -2)
    gram = ph @ pool
    code = np.zeros((len(pool), pu.size), dtype=int)
    scale = mask[None].astype(float)  # one slice until mixed pairs rescale per pool slice
    if alpha is None:
        deficient, conditioned = _rank_deficient(pool, present, sizes, pu, mask, n)
        code[deficient] = _RANK
        solve = ~deficient & (n > 0)
        direct = solve & conditioned[:, pu]
    else:
        # alpha acts on one scale: a pair whose columns mix CSI and
        # near-field sources gets every column normalized to unit norm
        # and is solved on its own
        mixed = (mask & is_csi[pu]).any(axis=1) & (mask & ~is_csi[pu]).any(axis=1)
        if mixed.any():
            norms = _norms(pool, -2)[:, pu[mixed]]
            code[:, mixed] = np.where((mask[mixed] & (norms == 0)).any(axis=-1), _DEGENERATE, 0)
            scale = np.repeat(scale, len(pool), axis=0)
            scale[:, mixed] /= np.where(norms > 0, norms, 1.0)
        solve = np.repeat((n > 0)[None], len(pool), axis=0)
        direct = np.zeros_like(solve)
        if pu.size >= max(DOWNDATE_PAIRS * sizes.size, DOWNDATE_MIN_PAIRS):
            # A >= alpha*I, and no eigenvalue of A exceeds alpha + trace(V^H V)
            trace = np.trace(gram, axis1=-2, axis2=-1).real
            direct = solve & ~mixed & (trace <= (DOWNDATE_COND - 1) * alpha)[:, pu]
    inverted = np.nonzero(direct @ unit_of)  # (slice, unit) holding a directly solved pair
    a = inv = inv_cols = None
    if inverted[1].size:
        a = gram[inverted]
        _diagonal(a)[...] += alpha if alpha is not None else ~present[inverted[1]]
        inv = np.linalg.inv(a)
        inv_cols = inv / np.diagonal(inv, axis1=1, axis2=2)[:, None, :]
        _diagonal(inv_cols)[...] = 1  # each column's own entry cancels exactly
    return pool, ph, gram, mask, n, scale, code, solve, solve & ~direct, inverted, a, inv, inv_cols


def build_precoders(
    spec: PrecoderSpec,
    env: InfoEnvironment,
    channels=None,
    noise_var: float | None = None,
) -> tuple[np.ndarray, tuple[PrecodingError | None, ...]]:
    """Build one spec for a stack of S channel estimates in one pass.

    ``channels`` is an (S, M, K) stack that stands in for the channel
    ``env`` holds, under the same grants; None builds from that channel
    alone (S = 1). Returns ``(W, failures)``: W is (S, M, K), slice s the
    precoder :func:`build_precoder` returns for
    ``env.with_channel(channels[s])`` and NaN where that build fails, and
    ``failures[s]`` is the PrecodingError that build raises, or None. A
    spec that reads no CSI does not depend on the estimates: it is built
    once and W has one slice. Slices are independent builds that share
    what they derive from locations and serving, so a batch may hold
    any estimates of one environment's channel.

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
    else none. Pair (unit, u) projects off the pool without column u.
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
    their unit's pool is rank deficient, when the unit's Gram condition
    number may exceed ``DOWNDATE_COND``, or, regularized, when their
    columns mix CSI and near-field sources: alpha then acts on unit-norm
    columns, a scale the unit's other pairs do not share. A regularized
    build whose units average fewer than ``DOWNDATE_PAIRS`` pairs, or
    that has fewer than ``DOWNDATE_MIN_PAIRS`` pairs in all, solves every
    pair that way, since there one solve per pair is cheaper. Units
    are padded to the widest with zero rows, which change no Gram
    matrix, projection or norm. Specs without suppression skip all of
    this. Each of these choices is made per slice.

    Only the arrays read from CSI carry the S axis: the MRT bases, CSI
    pools, their Gram matrices, inverses and rank SVDs. Products with a
    shared operand broadcast it over the slices and take one slice at a
    time, so each slice's arithmetic is that of a build of its own. What
    depends only on locations, grants and serving is derived once per
    environment and shared with its :meth:`InfoEnvironment.with_channel`
    copies: the near-field matrix, the assembly units, which columns each
    unit's pool holds, and a pool made from locations alone (``nf_nf``,
    ``mrt_nf``, ``rmrt_nf``) with its rank SVD and unit inverses, once
    per regularization weight for every spec and slice that uses it.

    ``noise_var`` supplies the default regularization weight when the
    spec is regularized with ``alpha=None``. A singular Gram matrix, in
    a unit inverse or a pair's solve, fails its slice with a
    RankDeficiencyError naming the spec. Missing information or weight
    raises for the whole stack.
    """
    req = _check_requirements(spec, env)
    alpha = None
    if spec.regularized:
        alpha = spec.alpha if spec.alpha is not None else noise_var
        if alpha is None or not alpha > 0:
            raise ConfigError(
                f"regularized precoder {spec.name!r} needs alpha or noise_var > 0"
            )
    geo, k = env.geometry, env.num_users
    stack = None
    if req.csi_intended or req.csi_unintended:
        stack = env.csi.channel[None] if channels is None else np.asarray(channels, complex)
        if stack.ndim != 3 or stack.shape[1:] != env.csi.channel.shape:
            raise ValueError(f"channels must be (S, {geo.num_antennas}, {k}), got {stack.shape}")
    units, ant, sizes, served, pu, pk = _derive(
        env, ("assembly", spec.scope), lambda: _assembly(env, spec.scope)
    )
    nf = None
    if spec.base == "nf" or spec.suppression in ("nf", "csi+nf"):
        nf = _derive(env, "nf", lambda: distance_phasors(
            geo.antenna_positions, env.ue_positions, geo.wavelength)[1])
    if spec.base == "mrt":
        w = env.csi.gather(served, stack)
    elif spec.base == "nf":
        w = np.where(served[geo.antenna_aps], nf, 0)[None]
    else:
        w = np.zeros((1, geo.num_antennas, k), dtype=complex)
        for u, user in zip(pu, pk):
            idx = ant[u, : sizes[u]]
            theta, ref = steering_angle(geo, env.ue_positions[user], idx)
            w[0, idx, user] = far_field_weights(geo, theta, ref)[idx]
    if stack is not None and len(w) < len(stack):  # a location base under CSI suppression
        w = np.repeat(w, len(stack), axis=0)
    total = _norms(w, 1)
    w /= np.where(total > 0, total, 1.0)[:, None, :]

    n = None
    code = np.zeros((len(w), pu.size), dtype=int)
    if spec.suppression != "none":
        try:
            if spec.suppression == "nf":  # made from locations: once per environment
                state = _derive(env, ("pool", spec.scope, alpha),
                                lambda: _pool(spec, env, alpha, None, nf))
            else:
                state = _pool(spec, env, alpha, stack, nf)
            pool, ph, gram, mask, n, scale, pool_code, solve, slow, inverted, a, inv, inv_cols = state
            code[...] = pool_code  # slices that share one pool share its codes
            if solve.any():
                # every user's base on every unit; columns outside a pair never move
                b = np.take(_pad(w), ant, axis=1)
                step = np.zeros(b.shape[:2] + (k, k), dtype=complex)
                sel = inverted if len(pool) == len(b) else (slice(None), inverted[1])
                # pairs solved one by one, per slice of the build
                sl_s, sl_p = np.nonzero(np.repeat(slow, len(b) // len(slow), axis=0))
                if sl_p.size:
                    su, sk, ss = pu[sl_p], pk[sl_p], scale[sl_s % len(scale), sl_p]
                    g = gram[sl_s % len(pool), su] * (ss[:, :, None] * ss[:, None, :])
                    _diagonal(g)[...] += alpha if alpha is not None else ~mask[sl_p]
                for _ in range(1 if alpha is not None else 2):
                    r = ph @ b
                    if inv is not None:
                        rs = r[sel]
                        x = _leave_one_out(inv, inv_cols, rs)
                        if alpha is not None:
                            x += _leave_one_out(inv, inv_cols, rs - a @ x)
                        step[sel] = x
                    if sl_p.size:
                        rhs = (r[sl_s, su, :, sk] * ss)[:, :, None]
                        step[sl_s, su, :, sk] = ss * np.linalg.solve(g, rhs)[:, :, 0]
                    b -= pool @ step
                if alpha is None:
                    ts, tp = np.nonzero(np.repeat(solve, len(b) // len(solve), axis=0))
                    tiny = _norms(b[ts, pu[tp], :, pk[tp]], 1) < FULL_SUPPRESSION_TOL
                    code[ts[tiny], tp[tiny]] = _SUPPRESSED
                w = np.zeros((len(b), geo.num_antennas + 1, k), dtype=complex)
                w[:, ant[pu], pk[:, None]] = b.swapaxes(-1, -2)[:, pu, pk]
                w = w[:, :-1]
        except np.linalg.LinAlgError as exc:
            if len(w) > 1:  # find the singular slices: build each on its own
                builds = [build_precoders(spec, env, h[None], noise_var) for h in stack]
                return np.concatenate([b[0] for b in builds]), sum((b[1] for b in builds), ())
            error = RankDeficiencyError(
                f"precoder {spec.name!r}: singular suppression Gram matrix ({exc})"
            )
            error.__cause__ = exc
            return np.full(w.shape, np.nan, dtype=complex), (error,)

    norms = _norms(w, 1)
    failed = (total == 0) | (norms < FULL_SUPPRESSION_TOL)
    fs, fp = np.nonzero(code)
    failed[fs, pk[fp]] = True
    if not failed.any():
        return w / norms[:, None, :], (None,) * len(w)
    bad = failed.any(axis=1)
    w = w / np.where(failed, 1.0, norms)[:, None, :]
    w[bad] = np.nan
    return w, tuple(
        _failure(spec, units, sizes, n, pu, pk, total[s], code[s], failed[s]) if bad[s] else None
        for s in range(len(w))
    )


def build_precoder(
    spec: PrecoderSpec,
    env: InfoEnvironment,
    noise_var: float | None = None,
) -> np.ndarray:
    """Assemble the (M, K) precoding matrix, one unit-norm column per user.

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
