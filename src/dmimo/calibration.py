"""Per-antenna-pair hardware phase offset estimation and compensation.

Measured CSI contains a hardware-induced phase offset per (tx, rx)
antenna pair on top of the propagation phase. The compensation factor
for a pair is the phase that minimizes the mean squared error between
unit phasors of the theoretical LoS channel and the compensated
measurement over all grid positions; its closed form is the angle of

    sum_{m,n} exp(j*angle(los[m,n])) * exp(-j*angle(emp[m,n])),

equivalent (by the conjugate-phase identity) to using exp(j*angle(emp*)).
Estimation uses phases only, so CSI magnitudes never affect the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csidata import CsiGrid
from .errors import CoverageError, DatasetFormatError, NoDataError, UnidentifiableError
from .geometry import los_phase

OFFSETS_CSV_HEADER = "tx,rx,offset_radians"

#: |phasor sum| below this multiple of the point count is unidentifiable.
_SUM_MAGNITUDE_TOL = 1e-12


@dataclass(frozen=True)
class PhaseOffsetTable:
    """Compensation phase per (tx, rx) antenna pair, in (-pi, pi]."""

    offsets: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=float)
        if off.ndim != 2:
            raise ValueError(f"offsets must be 2D (T, R), got shape {off.shape}")
        if not np.all(np.isfinite(off)):
            raise ValueError("offsets must be finite")
        object.__setattr__(self, "offsets", off)

    @property
    def tx_count(self) -> int:
        return self.offsets.shape[0]

    @property
    def rx_count(self) -> int:
        return self.offsets.shape[1]

    def rotate(self, csi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``csi`` times exp(j*offset[t, r]) for each (tx, rx) pair, as a
        (T, R, GM, GN) array: a new one, or ``out`` when given (``csi``
        itself to rotate in place). ``csi`` is (T, R, GM, GN), or
        (R, GM, GN) for one channel shared by every tx."""
        return np.multiply(csi, np.exp(1j * self.offsets)[:, :, None, None], out=out)

    def negated(self) -> "PhaseOffsetTable":
        return PhaseOffsetTable(wrap_phase(-self.offsets))

    def to_csv(self, path) -> None:
        out = Path(path)
        with open(out, "w") as fh:
            fh.write(OFFSETS_CSV_HEADER + "\n")
            for t in range(self.tx_count):
                for r in range(self.rx_count):
                    fh.write(f"{t},{r},{repr(float(self.offsets[t, r]))}\n")

    @classmethod
    def from_csv(cls, path) -> "PhaseOffsetTable":
        entries = {}
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != OFFSETS_CSV_HEADER:
                raise DatasetFormatError(
                    f"{path}: expected header {OFFSETS_CSV_HEADER!r}, got {header!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: expected 3 fields"
                    )
                try:
                    entries[(int(parts[0]), int(parts[1]))] = float(parts[2])
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not entries:
            raise DatasetFormatError(f"{path}: no offset entries")
        t_count = max(t for t, _ in entries) + 1
        r_count = max(r for _, r in entries) + 1
        if len(entries) != t_count * r_count:
            raise DatasetFormatError(f"{path}: offset table is not a full T x R grid")
        off = np.empty((t_count, r_count))
        for (t, r), v in entries.items():
            off[t, r] = v
        return cls(off)


def wrap_phase(phi):
    """Reduce angles to the interval (-pi, pi]."""
    out = np.angle(np.exp(1j * np.asarray(phi, dtype=float)))
    out = np.where(out == -np.pi, np.pi, out)
    return float(out) if np.isscalar(phi) else out


def estimate_phase_offset(emp, los, present=None) -> float:
    """Compensation phase for one antenna pair from two grid slices.

    ``emp`` and ``los`` are complex arrays over the same grid positions;
    ``present`` optionally masks missing points (missing points are
    skipped, not zero-filled). Returns the phase in (-pi, pi] such that
    exp(j*phi) * emp aligns with los in phase.
    """
    emp = np.asarray(emp, dtype=complex)
    los = np.asarray(los, dtype=complex)
    if emp.shape != los.shape:
        raise ValueError(f"slice shapes differ: {emp.shape} vs {los.shape}")
    if present is None:
        present = np.ones(emp.shape, dtype=bool)
    else:
        present = np.asarray(present, dtype=bool)
    n = int(present.sum())
    if n == 0:
        raise NoDataError("no grid points available for this antenna pair")
    s = np.sum(np.exp(1j * (np.angle(los[present]) - np.angle(emp[present]))))
    if np.abs(s) < _SUM_MAGNITUDE_TOL * n:
        raise UnidentifiableError(
            "phasor sum has zero magnitude; offset is unidentifiable"
        )
    return wrap_phase(float(np.angle(s)))


def theoretical_los_phases(rx_positions, grid_positions, wavelength: float) -> np.ndarray:
    """LoS phase -2*pi*d/lambda per (rx antenna, m, n), shape (R, GM, GN)."""
    rx = np.asarray(rx_positions, dtype=float)
    grid = np.asarray(grid_positions, dtype=float)
    flat = grid.reshape(-1, 3)
    # one rx antenna at a time: no (R, GM*GN, 3) difference stack
    d = np.empty((rx.shape[0], flat.shape[0]))
    for r, p in enumerate(rx):
        d[r] = np.linalg.norm(flat - p, axis=1)
    return los_phase(d, wavelength).reshape(rx.shape[0], *grid.shape[:2])


def estimate_phase_offsets(
    grid: CsiGrid, rx_positions, wavelength: float
) -> PhaseOffsetTable:
    """Estimate the compensation table for every (tx, rx) pair of a grid.

    Raises UnidentifiableError (with a ``pairs`` attribute listing the
    offenders) if any pair has no data or a zero-magnitude phasor sum.
    """
    los = np.exp(1j * theoretical_los_phases(rx_positions, grid.positions, wavelength))
    offsets = np.zeros((grid.tx_count, grid.rx_count))
    bad: list[tuple[int, int, str]] = []
    for t in range(grid.tx_count):
        for r in range(grid.rx_count):
            try:
                offsets[t, r] = estimate_phase_offset(
                    grid.csi[t, r], los[r], grid.present[t, r]
                )
            except (NoDataError, UnidentifiableError) as exc:
                bad.append((t, r, str(exc)))
    if bad:
        err = UnidentifiableError(
            f"{len(bad)} antenna pair(s) could not be calibrated: "
            + "; ".join(f"(tx={t}, rx={r}): {msg}" for t, r, msg in bad[:8])
            + (" ..." if len(bad) > 8 else "")
        )
        err.pairs = [(t, r) for t, r, _ in bad]
        raise err
    return PhaseOffsetTable(offsets)


def apply_calibration(grid: CsiGrid, table: PhaseOffsetTable) -> CsiGrid:
    """Multiply every CSI value of pair (t, r) by exp(j*offset[t, r]).

    Magnitudes are unchanged. The table must cover every antenna pair of
    the grid.
    """
    if table.offsets.shape != (grid.tx_count, grid.rx_count):
        raise CoverageError(
            f"offset table shape {table.offsets.shape} does not cover "
            f"grid pairs ({grid.tx_count}, {grid.rx_count})"
        )
    return CsiGrid(
        csi=table.rotate(grid.csi),
        present=grid.present,
        positions=grid.positions,
    )


def random_phase_offsets(rng_seed, tx_count: int, rx_count: int) -> PhaseOffsetTable:
    """One phase per (tx, rx) pair, uniform on (-pi, pi], deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    return PhaseOffsetTable(np.pi - rng.uniform(0.0, 2.0 * np.pi, size=(tx_count, rx_count)))


def inject_hardware_offsets(grid: CsiGrid, rng_seed) -> tuple[CsiGrid, PhaseOffsetTable]:
    """Multiply CSI by one random phase per (tx, rx) pair; return ground truth.

    Offsets are uniform on (-pi, pi], deterministic per seed; CSI
    magnitudes are unchanged.
    """
    table = random_phase_offsets(rng_seed, grid.tx_count, grid.rx_count)
    return apply_calibration(grid, table), table


def mean_phase_residual(grid: CsiGrid, rx_positions, wavelength: float) -> float:
    """Mean |wrapped phase error| of the grid's present values against the
    theoretical LoS.

    The errors are computed one (tx, rx) pair at a time into one vector,
    in the order of the whole grid's present values, so the temporaries
    stay a pair's size and the mean is that of the whole-grid
    expression, bit for bit.
    """
    los = theoretical_los_phases(rx_positions, grid.positions, wavelength)
    wrapped = np.empty(np.count_nonzero(grid.present))
    if wrapped.size == 0:
        raise NoDataError("grid has no present CSI values")
    end = 0
    for csi_t, present_t in zip(grid.csi, grid.present):
        for csi, present, los_r in zip(csi_t, present_t, los):
            block = np.abs(wrap_phase(np.angle(csi) - los_r)[present])
            wrapped[end : end + block.size] = block
            end += block.size
    return float(wrapped.mean())
