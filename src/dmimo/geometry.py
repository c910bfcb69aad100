"""Antenna/UE geometry and the free-space line-of-sight channel model.

Conventions used throughout the package:
  * all coordinates and the carrier wavelength are in meters,
  * a wave travelling a path of length d accumulates phase -2*pi*d/lambda,
  * channels are column vectors over the base-station antennas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, PlacementError

#: Amplitude models for the LoS channel. "unit" keeps every element on the
#: unit circle; "free-space" applies the lambda/(4*pi*d) spherical-spreading law.
AMPLITUDE_MODELS = ("unit", "free-space")

#: Rejections allowed while drawing spaced UE positions before giving up.
DEFAULT_RETRY_BUDGET = 10_000


def _as_positions(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise GeometryError(f"positions must have shape (n, 3), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise GeometryError("positions must be finite")
    return p


@dataclass(frozen=True)
class ArrayGeometry:
    """Base-station antenna positions grouped into access points.

    antenna_positions : (M, 3) float array, meters
    ap_partition      : tuple of index tuples; each antenna belongs to
                        exactly one AP
    wavelength        : carrier wavelength in meters
    """

    antenna_positions: np.ndarray
    ap_partition: tuple[tuple[int, ...], ...]
    wavelength: float

    def __post_init__(self):
        pos = _as_positions(self.antenna_positions)
        object.__setattr__(self, "antenna_positions", pos)
        part = tuple(tuple(int(i) for i in ap) for ap in self.ap_partition)
        object.__setattr__(self, "ap_partition", part)
        if not self.wavelength > 0:
            raise GeometryError(f"wavelength must be > 0, got {self.wavelength}")
        flat = [i for ap in part for i in ap]
        if sorted(flat) != list(range(len(pos))):
            raise GeometryError(
                "ap_partition must cover every antenna index exactly once"
            )

    @property
    def num_antennas(self) -> int:
        return self.antenna_positions.shape[0]

    @property
    def num_aps(self) -> int:
        return len(self.ap_partition)

    def ap_indices(self, ap: int) -> np.ndarray:
        return np.asarray(self.ap_partition[ap], dtype=int)

    def unit_indices(self, aps) -> np.ndarray:
        """Antenna indices of the APs ``aps``, AP by AP; worked out once
        per AP tuple and geometry (read-only)."""
        aps = tuple(aps)
        if aps not in self._units:
            idx = np.concatenate([self.ap_indices(a) for a in aps])
            idx.flags.writeable = False
            self._units[aps] = idx
        return self._units[aps]

    @cached_property
    def _units(self) -> dict:
        return {}

    @cached_property
    def antenna_aps(self) -> np.ndarray:
        """AP index of every antenna, shape (M,)."""
        aps = np.empty(self.num_antennas, dtype=int)
        for a, idx in enumerate(self.ap_partition):
            aps[list(idx)] = a
        return aps


@dataclass(frozen=True)
class Box:
    """Axis-aligned 3D box; degenerate extents (lo == hi) are allowed."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GeometryError("box bounds must be finite")
        if np.any(hi < lo):
            raise GeometryError("box must satisfy lo <= hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class UePlacement:
    """UE positions with a pairwise minimum-spacing guarantee."""

    positions: np.ndarray
    min_spacing: float

    def __post_init__(self):
        pos = _as_positions(self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) > 1 and self.min_spacing > 0:
            d = pairwise_distances(pos, pos)
            np.fill_diagonal(d, np.inf)
            if d.min() < self.min_spacing:
                raise GeometryError(
                    f"pairwise spacing {d.min():.4g} m below minimum "
                    f"{self.min_spacing:.4g} m"
                )

    @property
    def num_ues(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class LosChannelParams:
    """Amplitude law and wavelength for the theoretical LoS channel."""

    wavelength: float
    amplitude_model: str = "free-space"
    reference_gain: float = 1.0

    def __post_init__(self):
        if not self.wavelength > 0:
            raise GeometryError(f"wavelength must be > 0, got {self.wavelength}")
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise GeometryError(
                f"amplitude_model must be one of {AMPLITUDE_MODELS}, "
                f"got {self.amplitude_model!r}"
            )
        if not 0 < self.reference_gain < np.inf:
            raise GeometryError(
                f"reference_gain must be finite and > 0, got {self.reference_gain}"
            )

    def amplitude(self, distance) -> np.ndarray:
        """Channel magnitude at the given distance(s)."""
        d = np.asarray(distance, dtype=float)
        if self.amplitude_model == "unit":
            return np.ones_like(d)
        return self.reference_gain * self.wavelength / (4.0 * np.pi * d)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``a`` (m, 3) and ``b`` (n, 3), (m, n).

    Bit for bit ``np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)``,
    one coordinate at a time: the squared differences summed as
    (dx^2 + dy^2) + dz^2, numpy's order for a length-3 reduction, then the
    square root in place. It holds two (m, n) arrays, not two (m, n, 3)
    difference stacks.
    """
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    for axis in (1, 2):
        e = np.subtract.outer(a[:, axis], b[:, axis])
        e *= e
        d += e
    return np.sqrt(d, out=d)


def los_phase(distance, wavelength: float):
    """Phase -2*pi*d/lambda accumulated over a path of length d (radians).

    The value is not reduced modulo 2*pi. Accepts scalars or arrays of
    distances; all distances and the wavelength must be strictly positive.
    """
    d = np.asarray(distance, dtype=float)
    if not wavelength > 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("distance must be finite and > 0")
    out = -2.0 * np.pi * d / wavelength
    return float(out) if np.isscalar(distance) else out


def distance_phasors(
    antenna_positions: np.ndarray, points: np.ndarray, wavelength: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distances d from antennas to points and the phasors exp(-j*2*pi*d/lambda).

    Both results have shape (antennas, points). A point on an antenna is a
    GeometryError.
    """
    d = pairwise_distances(antenna_positions, points)
    if np.any(d == 0):
        raise GeometryError("UE position coincides with an antenna position")
    return d, np.exp(1j * los_phase(d, wavelength))


def los_channel(
    geometry: ArrayGeometry, positions, params: LosChannelParams
) -> np.ndarray:
    """Theoretical LoS channel from all antennas to one or K UEs.

    One position (3,) gives shape (M,); K positions (K, 3) give the
    channel matrix (M, K). Element (i, k) is amplitude(d_ik) *
    exp(j * los_phase(d_ik)) with d_ik the distance from antenna i to UE k.
    """
    p = np.asarray(positions, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise GeometryError(f"positions must have shape (3,) or (K, 3), got {p.shape}")
    d, phasors = distance_phasors(
        geometry.antenna_positions, p.reshape(-1, 3), params.wavelength
    )
    h = params.amplitude(d) * phasors
    return h[:, 0] if p.ndim == 1 else h


def place_ues(
    roi: Box,
    k: int,
    min_spacing: float,
    rng_seed,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
) -> UePlacement:
    """Draw k positions uniformly over ``roi`` with pairwise spacing.

    Rejection sampling: a candidate closer than ``min_spacing`` to an
    already-accepted point is discarded and counted against
    ``retry_budget``. Deterministic for a given seed.

    Candidates are drawn in blocks of exactly as many as are still needed
    and judged in draw order, so the positions and the generator's state
    afterwards equal those of drawing one candidate at a time.
    """
    return UePlacement(_draw_ues(roi, k, min_spacing, rng_seed, retry_budget), min_spacing)


def _draw_ues(
    roi: Box, k: int, min_spacing: float, rng_seed, retry_budget: int = DEFAULT_RETRY_BUDGET
) -> np.ndarray:
    """The (k, 3) positions of :func:`place_ues`, without the
    :class:`UePlacement` that checks their spacing again."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(rng_seed)
    if not min_spacing > 0:
        return rng.uniform(roi.lo, roi.hi, size=(k, 3))
    points = np.empty((k, 3))  # accepted points, then the current block
    n = rejections = 0
    while n < k:
        points[n:] = rng.uniform(roi.lo, roi.hi, size=(k - n, 3))
        # UePlacement's own distances, so the two agree at the boundary; they
        # are symmetric, so a close pair of candidates shows off the diagonal
        # (each candidate is at 0 from itself)
        close = pairwise_distances(points[n:], points) < min_spacing
        if np.count_nonzero(close) == k - n:
            break
        keep = np.zeros(k - n, dtype=bool)
        for i, row in enumerate(close):
            if row[:n].any() or row[n : n + i][keep[:i]].any():
                rejections += 1
                if rejections >= retry_budget:
                    raise PlacementError(
                        f"could not place {k} points with spacing {min_spacing} m "
                        f"after {rejections} rejections"
                    )
            else:
                keep[i] = True
        kept = points[n:][keep]
        points[n : n + len(kept)] = kept
        n += len(kept)
    return points


def perimeter_geometry(
    wavelength: float = 0.115,
    side: float = 6.0,
    n_aps: int = 8,
    antennas_per_ap: int = 8,
    height: float = 1.25,
) -> ArrayGeometry:
    """Default deployment: linear APs spread along the perimeter of a square.

    AP j is centred at perimeter fraction (j + 1/2)/n_aps of the square
    [0, side] x [0, side] at the given height, with its antennas on a
    half-wavelength-spaced line along the wall. All numeric defaults
    (wavelength, side, height) are configuration choices, not measured
    values.
    """
    if n_aps < 1 or antennas_per_ap < 1:
        raise GeometryError("need at least one AP and one antenna per AP")
    spacing = wavelength / 2.0
    positions = []
    partition = []
    idx = 0
    for j in range(n_aps):
        t = (j + 0.5) / n_aps * 4.0 * side
        s = int(t // side) % 4
        u = t - s * side
        if s == 0:
            center = np.array([u, 0.0, height])
            direction = np.array([1.0, 0.0, 0.0])
        elif s == 1:
            center = np.array([side, u, height])
            direction = np.array([0.0, 1.0, 0.0])
        elif s == 2:
            center = np.array([side - u, side, height])
            direction = np.array([-1.0, 0.0, 0.0])
        else:
            center = np.array([0.0, side - u, height])
            direction = np.array([0.0, -1.0, 0.0])
        offsets = (np.arange(antennas_per_ap) - (antennas_per_ap - 1) / 2.0) * spacing
        positions.extend(center + o * direction for o in offsets)
        partition.append(tuple(range(idx, idx + antennas_per_ap)))
        idx += antennas_per_ap
    return ArrayGeometry(
        antenna_positions=np.array(positions),
        ap_partition=tuple(partition),
        wavelength=wavelength,
    )


def default_roi(side: float = 6.0, inset: float = 1.25, z: float = 0.0) -> Box:
    """UE region paired with :func:`perimeter_geometry`: the inner square."""
    return Box(lo=np.array([inset, inset, z]), hi=np.array([side - inset, side - inset, z]))
