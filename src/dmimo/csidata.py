"""CSI-grid dataset format: read/write and synthetic generation.

A dataset is a directory with two files and, when dmimo wrote it, a
third derived from them:

``manifest.json``
    format_version, wavelength (m), tx_count, rx_count, rx_positions
    (list of [x, y, z] in meters) and grid (list of [m, n, x, y, z]
    covering a full rectangle of measurement positions).

``csi.csv``
    header ``tx,rx,m,n,re,im``; one row per available complex CSI value,
    ordered by (tx, rx, m, n). Indices are 0-based plain decimal
    integers; real/imag are written as Python ``repr``, the shortest
    string that reads back to the same double. Missing (tx, rx, m, n)
    triples are simply omitted and flagged missing on read.

``csi.cache`` (derived, optional)
    the SHA-256 digest of the ``csi.csv`` bytes, then the ``csi`` and
    ``present`` arrays as ``.npy`` payloads. Only :func:`write_dataset`
    creates it. :func:`read_dataset` uses it in place of parsing
    ``csi.csv`` when the digest matches that file and both payloads have
    the manifest's shape; otherwise it parses. Deleting it is always safe.

The tx index plays the role of a UE-side antenna measured over the grid;
the rx index is a base-station antenna. All tx antennas of a synthetic
dataset share the same ideal LoS channel and differ only through
injected hardware offsets.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import DatasetFormatError, GeometryError
from .geometry import ArrayGeometry, LosChannelParams, los_channel

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
CSI_NAME = "csi.csv"
CACHE_NAME = "csi.cache"
CSV_HEADER = "tx,rx,m,n,re,im"
#: UE-side antennas per grid position when a generation config gives none.
DEFAULT_TX_COUNT = 4
#: Data lines parsed per ``np.loadtxt`` call by ``read_dataset``. Larger
#: chunks barely read faster but hold more lines in memory at once.
CHUNK = 1024
#: Bytes of ``csi.csv`` hashed per read when checking ``csi.cache``.
DIGEST_BLOCK = 1 << 16
_ROW_DTYPE = np.dtype(
    [("t", np.int64), ("r", np.int64), ("m", np.int64), ("n", np.int64),
     ("re", np.float64), ("im", np.float64)]
)


@dataclass(frozen=True)
class CsiGrid:
    """Complex CSI indexed by (tx antenna, rx antenna, grid position).

    csi       : (T, R, GM, GN) complex
    present   : (T, R, GM, GN) bool, False where a value is missing
    positions : (GM, GN, 3) float, meters
    """

    csi: np.ndarray
    present: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        csi = np.asarray(self.csi, dtype=complex)
        present = np.asarray(self.present, dtype=bool)
        positions = np.asarray(self.positions, dtype=float)
        if csi.ndim != 4:
            raise DatasetFormatError(f"csi must be 4D (T,R,GM,GN), got {csi.shape}")
        if present.shape != csi.shape:
            raise DatasetFormatError("present mask must match csi shape")
        if positions.shape != (csi.shape[2], csi.shape[3], 3):
            raise DatasetFormatError(
                f"positions must have shape (GM, GN, 3) = "
                f"{(csi.shape[2], csi.shape[3], 3)}, got {positions.shape}"
            )
        if not np.all(np.isfinite(positions)):
            raise DatasetFormatError("grid positions must be finite")
        if not np.isfinite(csi).all(where=present):
            raise DatasetFormatError("present CSI values must be finite")
        object.__setattr__(self, "csi", csi)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "positions", positions)

    @property
    def tx_count(self) -> int:
        return self.csi.shape[0]

    @property
    def rx_count(self) -> int:
        return self.csi.shape[1]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.csi.shape[2], self.csi.shape[3]


@dataclass(frozen=True)
class DatasetManifest:
    """Dimensions and geometry of one CSI grid dataset."""

    wavelength: float
    tx_count: int
    rx_count: int
    rx_positions: np.ndarray
    grid_positions: np.ndarray
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        rx = np.asarray(self.rx_positions, dtype=float)
        grid = np.asarray(self.grid_positions, dtype=float)
        if not self.wavelength > 0:
            raise DatasetFormatError(f"wavelength must be > 0, got {self.wavelength}")
        if rx.ndim != 2 or rx.shape[1] != 3:
            raise DatasetFormatError(f"rx_positions must be (R, 3), got {rx.shape}")
        if rx.shape[0] != self.rx_count:
            raise DatasetFormatError(
                f"rx_positions has {rx.shape[0]} rows but rx_count is {self.rx_count}"
            )
        if self.tx_count < 1:
            raise DatasetFormatError(f"tx_count must be >= 1, got {self.tx_count}")
        if grid.ndim != 3 or grid.shape[2] != 3:
            raise DatasetFormatError(
                f"grid_positions must be (GM, GN, 3), got {grid.shape}"
            )
        object.__setattr__(self, "rx_positions", rx)
        object.__setattr__(self, "grid_positions", grid)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of measurement positions at a fixed height."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise GeometryError("grid needs nx >= 1 and ny >= 1")

    def positions(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.nx)
        y = np.linspace(self.y_min, self.y_max, self.ny)
        out = np.empty((self.nx, self.ny, 3))
        out[:, :, 0] = x[:, None]
        out[:, :, 1] = y[None, :]
        out[:, :, 2] = self.z
        return out


def write_dataset(grid: CsiGrid, manifest: DatasetManifest, path) -> None:
    """Write manifest.json, csi.csv and csi.cache into the directory ``path``.

    csi.cache holds the digest of the csi.csv bytes written here and the
    grid's ``csi`` and ``present`` arrays, which :func:`read_dataset`
    returns in place of parsing csi.csv while the two still match.
    """
    import hashlib

    if manifest.tx_count != grid.tx_count or manifest.rx_count != grid.rx_count:
        raise DatasetFormatError("manifest and grid disagree on antenna counts")
    if manifest.grid_positions.shape != grid.positions.shape or not np.array_equal(
        manifest.grid_positions, grid.positions
    ):
        raise DatasetFormatError("manifest and grid disagree on grid positions")
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        gm, gn = grid.grid_shape
        doc = {
            "format_version": manifest.format_version,
            "wavelength": manifest.wavelength,
            "tx_count": manifest.tx_count,
            "rx_count": manifest.rx_count,
            "rx_positions": [[float(v) for v in p] for p in manifest.rx_positions],
            "grid": [
                [m, n] + [float(v) for v in manifest.grid_positions[m, n]]
                for m in range(gm)
                for n in range(gn)
            ],
        }
        with open(out / MANIFEST_NAME, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        digest = hashlib.sha256()
        cells = [f"{m},{n}," for m in range(gm) for n in range(gn)]
        with open(out / CSI_NAME, "wb") as fh:

            def emit(text: str) -> None:
                data = text.encode()
                fh.write(data)
                digest.update(data)

            emit(CSV_HEADER + "\n")
            # One (tx, rx) block per write keeps the formatted text small.
            # Its rows share the "t,r," prefix, which the join puts in.
            for t in range(grid.tx_count):
                for r in range(grid.rx_count):
                    k = np.flatnonzero(grid.present[t, r])
                    z = grid.csi[t, r].reshape(-1)[k]
                    rows = [
                        f"{cells[i]}{re!r},{im!r}"
                        for i, re, im in zip(k.tolist(), z.real.tolist(), z.imag.tolist())
                    ]
                    if rows:
                        prefix = f"{t},{r},"
                        emit(prefix + f"\n{prefix}".join(rows) + "\n")
        with open(out / CACHE_NAME, "wb") as fh:
            fh.write(digest.digest())
            np.save(fh, grid.csi, allow_pickle=False)
            np.save(fh, grid.present, allow_pickle=False)
    except OSError as exc:
        raise DatasetFormatError(f"cannot write dataset at {out}: {exc}") from exc


def _read_manifest(path: Path) -> DatasetManifest:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"malformed manifest {path}: {exc}") from exc
    required = {
        "format_version",
        "wavelength",
        "tx_count",
        "rx_count",
        "rx_positions",
        "grid",
    }
    missing = required - set(doc)
    if missing:
        raise DatasetFormatError(f"manifest {path} missing keys: {sorted(missing)}")
    version = doc["format_version"]
    if version != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format_version {version} (supported: {FORMAT_VERSION})"
        )
    rows = doc["grid"]
    if not rows:
        raise DatasetFormatError(f"manifest {path} has an empty grid")
    seen = {}
    for row in rows:
        if len(row) != 5:
            raise DatasetFormatError(f"grid rows must be [m, n, x, y, z], got {row}")
        m, n = int(row[0]), int(row[1])
        if (m, n) in seen:
            raise DatasetFormatError(f"duplicate grid entry for (m, n) = ({m}, {n})")
        seen[(m, n)] = [float(v) for v in row[2:]]
    gm = max(m for m, _ in seen) + 1
    gn = max(n for _, n in seen) + 1
    if len(seen) != gm * gn or any(m < 0 or n < 0 for m, n in seen):
        raise DatasetFormatError(
            f"grid must cover the full rectangle 0..{gm - 1} x 0..{gn - 1}"
        )
    positions = np.empty((gm, gn, 3))
    for (m, n), xyz in seen.items():
        positions[m, n] = xyz
    return DatasetManifest(
        wavelength=float(doc["wavelength"]),
        tx_count=int(doc["tx_count"]),
        rx_count=int(doc["rx_count"]),
        rx_positions=np.asarray(doc["rx_positions"], dtype=float),
        grid_positions=positions,
        format_version=int(version),
    )


def _parse_rows(lines: list[str]) -> np.ndarray:
    """Parse ``csi.csv`` data lines into ``_ROW_DTYPE`` rows.

    Empty lines yield no row. Raises ValueError on a malformed line.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
        # numpy 1.x reads "1.0" into an integer field with this warning;
        # as an error it becomes the ValueError that numpy 2 raises.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(
            lines, delimiter=",", dtype=_ROW_DTYPE, comments=None, ndmin=1
        )


def _chunk_flat_index(rows: np.ndarray, present: np.ndarray) -> np.ndarray | None:
    """Flat indices of parsed rows into ``present``.

    None when a row is out of range, repeats a row of the chunk, or
    repeats one already marked present.
    """
    index = np.stack([rows["t"], rows["r"], rows["m"], rows["n"]])
    if not np.all((index >= 0) & (index < np.array(present.shape)[:, None])):
        return None
    flat = np.ravel_multi_index(index, present.shape)
    ordered = np.sort(flat)
    if np.any(ordered[1:] == ordered[:-1]) or present.reshape(-1)[flat].any():
        return None
    return flat


def _raise_first_bad_line(csv_path, lines, first_lineno, present) -> NoReturn:
    """Name the first line of a rejected chunk that fails validation.

    ``present`` holds the rows of earlier chunks; it is updated in place,
    so it is only valid until the error this raises.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        text = line.rstrip("\n")
        if not text:
            continue
        fields = text.count(",") + 1
        if fields != 6:
            raise DatasetFormatError(
                f"{csv_path}: line {lineno}: expected 6 fields, got {fields}"
            )
        try:
            (row,) = _parse_rows([line]).tolist()
        except ValueError as exc:
            # numpy's "at row 0, column c" counts within this one line
            reason = str(exc).split(" at row ")[0]
            raise DatasetFormatError(f"{csv_path}: line {lineno}: {reason}") from exc
        index = row[:4]
        label = ",".join(map(str, index))
        if not all(0 <= i < size for i, size in zip(index, present.shape)):
            raise DatasetFormatError(
                f"{csv_path}: line {lineno}: index ({label}) out of range"
            )
        if present[index]:
            raise DatasetFormatError(
                f"{csv_path}: line {lineno}: duplicate entry ({label})"
            )
        present[index] = True
    raise DatasetFormatError(
        f"{csv_path}: lines {first_lineno}-{first_lineno + len(lines) - 1}: "
        "malformed rows"
    )


def _read_payload(fh, shape: tuple, dtype: np.dtype) -> np.ndarray | None:
    """The next ``.npy`` array in ``fh`` if it is a C-order array of this
    shape and dtype, else None. Raises ValueError on a malformed header
    or a short payload."""
    if np.lib.format.read_magic(fh) != (1, 0):
        return None
    if np.lib.format.read_array_header_1_0(fh) != (shape, False, dtype):
        return None
    return np.fromfile(fh, dtype=dtype, count=int(np.prod(shape))).reshape(shape)


def _read_cache(base: Path, shape: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """(csi, present) as parsing ``csi.csv`` into ``shape`` would give
    them, from ``csi.cache``; None unless the cache holds the digest of
    the current ``csi.csv`` and two payloads of that shape."""
    import hashlib

    try:
        with open(base / CACHE_NAME, "rb") as cache:
            digest = hashlib.sha256()
            expected = cache.read(digest.digest_size)
            with open(base / CSI_NAME, "rb") as fh:
                while block := fh.read(DIGEST_BLOCK):
                    digest.update(block)
            if digest.digest() != expected:
                return None
            csi = _read_payload(cache, shape, np.dtype(complex))
            present = None if csi is None else _read_payload(cache, shape, np.dtype(bool))
    except (OSError, ValueError):
        return None
    if present is None:
        return None
    csi[~present] = 0
    return csi, present


def _parse_csv(csv_path: Path, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(csi, present) of ``shape`` from the rows of ``csi.csv``."""
    csi = np.zeros(shape, dtype=complex)
    present = np.zeros(shape, dtype=bool)
    csi_flat, present_flat = csi.reshape(-1), present.reshape(-1)
    try:
        fh = open(csv_path)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read CSI file {csv_path}: {exc}") from exc
    with fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise DatasetFormatError(
                f"{csv_path}: line 1: expected header {CSV_HEADER!r}, got {header!r}"
            )
        lineno = 2
        while lines := list(itertools.islice(fh, CHUNK)):
            try:
                rows = _parse_rows(lines)
            except ValueError:
                rows = None
            flat = None if rows is None else _chunk_flat_index(rows, present)
            if flat is None:
                _raise_first_bad_line(csv_path, lines, lineno, present)
            csi_flat.real[flat] = rows["re"]
            csi_flat.imag[flat] = rows["im"]
            present_flat[flat] = True
            lineno += len(lines)
    return csi, present


def read_dataset(path) -> tuple[CsiGrid, DatasetManifest]:
    """Read a dataset directory; validates dimensions and consistency.

    The manifest is always read and validated. The CSI comes from
    ``csi.cache`` when that file holds the digest of the current
    ``csi.csv`` and arrays of the manifest's shape, and is parsed from
    ``csi.csv`` otherwise; both give the same arrays bit for bit, and
    both pass the same checks. Nothing is written.
    """
    base = Path(path)
    manifest = _read_manifest(base / MANIFEST_NAME)
    gm, gn = manifest.grid_positions.shape[:2]
    t_count, r_count = manifest.tx_count, manifest.rx_count
    shape = (t_count, r_count, gm, gn)
    csi, present = _read_cache(base, shape) or _parse_csv(base / CSI_NAME, shape)
    distinct_rx = int(np.any(present, axis=(0, 2, 3)).sum())
    if distinct_rx != r_count:
        raise DatasetFormatError(
            f"manifest rx_count {r_count} != {distinct_rx} distinct rx values in CSV"
        )
    distinct_tx = int(np.any(present, axis=(1, 2, 3)).sum())
    if distinct_tx != t_count:
        raise DatasetFormatError(
            f"manifest tx_count {t_count} != {distinct_tx} distinct tx values in CSV"
        )
    grid = CsiGrid(csi=csi, present=present, positions=manifest.grid_positions)
    return grid, manifest


def generate_synthetic_dataset(
    geometry: ArrayGeometry,
    grid_spec: GridSpec,
    params: LosChannelParams,
    tx_count: int = DEFAULT_TX_COUNT,
    offsets_seed=None,
):
    """Exact LoS CSI over a position grid, optionally with hardware offsets.

    Every tx antenna carries the same ideal LoS channel between the grid
    position and each rx (base-station) antenna; when ``offsets_seed`` is
    given, one phase offset per (tx, rx) pair is injected and the
    ground-truth table returned for closed-loop validation. The offsets
    are drawn as :func:`~dmimo.calibration.inject_hardware_offsets` draws
    them and multiply the ideal channel directly, so the returned CSI is
    the only array of the grid's full size that is built.

    Returns (CsiGrid, DatasetManifest, PhaseOffsetTable or None).
    """
    positions = grid_spec.positions()
    rx_positions = geometry.antenna_positions
    # a grid position on an antenna raises GeometryError
    ideal = los_channel(geometry, positions.reshape(-1, 3), params)
    ideal = ideal.reshape(rx_positions.shape[0], *positions.shape[:2])
    table = None
    if offsets_seed is None:
        csi = np.broadcast_to(ideal, (tx_count, *ideal.shape)).copy()
    else:
        from .calibration import random_phase_offsets

        table = random_phase_offsets(offsets_seed, tx_count, rx_positions.shape[0])
        csi = table.rotate(ideal)
    grid = CsiGrid(
        csi=csi,
        present=np.ones(csi.shape, dtype=bool),
        positions=positions,
    )
    manifest = DatasetManifest(
        wavelength=params.wavelength,
        tx_count=tx_count,
        rx_count=rx_positions.shape[0],
        rx_positions=rx_positions,
        grid_positions=positions,
    )
    return grid, manifest, table
