import hashlib
import json
import warnings

import numpy as np
import pytest

from conftest import crandn
from dmimo import (
    CsiGrid,
    DatasetManifest,
    GridSpec,
    LosChannelParams,
    generate_synthetic_dataset,
    los_channel,
    perimeter_geometry,
    read_dataset,
    write_dataset,
)
from dmimo import csidata
from dmimo.calibration import estimate_phase_offsets, theoretical_los_phases, wrap_phase
from dmimo.errors import DatasetFormatError, GeometryError


def random_dataset(rng, tx=2, rx=4, gm=3, gn=5):
    geometry = perimeter_geometry(n_aps=2, antennas_per_ap=rx // 2)
    positions = np.empty((gm, gn, 3))
    positions[:, :, 0] = np.linspace(1, 4, gm)[:, None]
    positions[:, :, 1] = np.linspace(1, 4, gn)[None, :]
    positions[:, :, 2] = 0.0
    csi = crandn(rng, tx, rx, gm, gn) * rng.uniform(0.1, 10, (tx, rx, gm, gn))
    present = np.ones(csi.shape, dtype=bool)
    grid = CsiGrid(csi=csi, present=present, positions=positions)
    manifest = DatasetManifest(
        wavelength=0.115,
        tx_count=tx,
        rx_count=rx,
        rx_positions=geometry.antenna_positions[:rx],
        grid_positions=positions,
    )
    return grid, manifest


class TestRoundTrip:
    def test_lossless(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        loaded, loaded_manifest = read_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.csi, grid.csi)
        np.testing.assert_array_equal(loaded.present, grid.present)
        np.testing.assert_array_equal(loaded.positions, grid.positions)
        assert loaded_manifest.wavelength == manifest.wavelength
        np.testing.assert_array_equal(
            loaded_manifest.rx_positions, manifest.rx_positions
        )

    def test_missing_triples_flagged(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        present = grid.present.copy()
        present[1, 2, 0, 3] = False
        present[0, 0, 1, 1] = False
        grid = CsiGrid(csi=grid.csi, present=present, positions=grid.positions)
        write_dataset(grid, manifest, tmp_path)
        loaded, _ = read_dataset(tmp_path)
        assert not loaded.present[1, 2, 0, 3]
        assert not loaded.present[0, 0, 1, 1]
        assert loaded.present.sum() == grid.present.sum()

    def test_write_rerun_byte_identical(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(grid, manifest, a)
        write_dataset(grid, manifest, b)
        assert (a / "csi.csv").read_bytes() == (b / "csi.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_row_count(self, tmp_path):
        # 4 tx x 64 rx over a 20x20 grid: 102,400 data rows
        geometry = perimeter_geometry()
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=20, ny=20, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, manifest, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=4)
        write_dataset(grid, manifest, tmp_path)
        lines = (tmp_path / "csi.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 102_400

    def test_small_counting(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=1)
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=2, ny=2, x_min=1.0, x_max=2.0, y_min=1.0, y_max=2.0)
        grid, _, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=1)
        assert grid.csi.size == 8  # 1 tx x 2 rx x 2 x 2 grid


def reference_csv(grid) -> bytes:
    """csi.csv as the row-by-row writer formats it: the byte-format oracle."""
    out = ["tx,rx,m,n,re,im\n"]
    tx, rx, gm, gn = grid.csi.shape
    for t in range(tx):
        for r in range(rx):
            for m in range(gm):
                for n in range(gn):
                    if not grid.present[t, r, m, n]:
                        continue
                    z = grid.csi[t, r, m, n]
                    out.append(
                        f"{t},{r},{m},{n},{repr(float(z.real))},{repr(float(z.imag))}\n"
                    )
    return "".join(out).encode()


def special_dataset(seed):
    """A partial grid with special values and nonzero CSI where absent."""
    rng = np.random.default_rng(seed)
    grid, manifest = random_dataset(rng, tx=3, rx=4, gm=5, gn=7)
    csi = grid.csi.copy()
    special = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.0]
    parts = csi.view(np.float64).reshape(-1)
    parts[: len(special)] = special
    parts[len(special):] *= 10.0 ** rng.integers(-300, 300, parts.size - len(special))
    present = rng.random(csi.shape) > 0.2
    present[:, :, 0, 0] = True  # every tx and rx keeps a value
    assert np.all(csi[~present] != 0)
    return CsiGrid(csi=csi, present=present, positions=grid.positions), manifest


@pytest.fixture
def no_parse(monkeypatch):
    """Make parsing csi.csv fail, so a read that succeeds used csi.cache."""

    def parse(*args):
        raise AssertionError("csi.csv was parsed")

    monkeypatch.setattr(csidata, "_parse_csv", parse)


def assert_bitwise(loaded, grid):
    np.testing.assert_array_equal(loaded.present, grid.present)
    expected = np.ascontiguousarray(np.where(grid.present, grid.csi, 0))
    np.testing.assert_array_equal(loaded.csi.view(np.uint64), expected.view(np.uint64))


class TestByteFormat:
    @pytest.mark.parametrize("cache", ["kept", "deleted"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_row_writer_and_reads_back_bitwise(
        self, seed, cache, tmp_path, request
    ):
        grid, manifest = special_dataset(seed)
        write_dataset(grid, manifest, tmp_path)
        assert (tmp_path / "csi.csv").read_bytes() == reference_csv(grid)
        if cache == "kept":
            request.getfixturevalue("no_parse")
        else:
            (tmp_path / "csi.cache").unlink()
        loaded, _ = read_dataset(tmp_path)
        assert_bitwise(loaded, grid)


def parsed(path, dest):
    """read_dataset of ``path``'s manifest and csi.csv without csi.cache."""
    dest.mkdir()
    for name in ("manifest.json", "csi.csv"):
        (dest / name).write_bytes((path / name).read_bytes())
    return read_dataset(dest)


def file_state(path):
    return {p.name: p.stat().st_mtime_ns for p in path.iterdir()}


class TestCsiCache:
    def test_hit_is_bitwise_the_parse(self, tmp_path, request):
        grid, manifest = special_dataset(3)
        write_dataset(grid, manifest, tmp_path / "d")
        reference, _ = parsed(tmp_path / "d", tmp_path / "p")
        request.getfixturevalue("no_parse")
        loaded, loaded_manifest = read_dataset(tmp_path / "d")
        np.testing.assert_array_equal(loaded.present, reference.present)
        np.testing.assert_array_equal(
            loaded.csi.view(np.uint64), reference.csi.view(np.uint64)
        )
        np.testing.assert_array_equal(loaded.positions, reference.positions)
        assert loaded_manifest.wavelength == manifest.wavelength

    def test_rewritten_csv_value_is_read(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        t, r, m, n, _, im = lines[7].split(",")
        lines[7] = ",".join([t, r, m, n, "0.5", im])
        path.write_text("\n".join(lines) + "\n")
        loaded, _ = read_dataset(tmp_path)
        index = tuple(int(i) for i in (t, r, m, n))
        assert loaded.csi[index] == complex(0.5, float(im))
        assert loaded.csi[index] != grid.csi[index]

    @pytest.mark.parametrize(
        "damage",
        ["empty", "digest-only", "mid-header", "mid-csi", "last-byte-cut", "garbage",
         "wrong-digest", "wrong-dtype", "no-present", "wrong-shape"],
    )
    def test_bad_cache_falls_back_to_parse(self, tmp_path, damage):
        grid, manifest = special_dataset(4)
        base = tmp_path / "d"
        write_dataset(grid, manifest, base)
        cache = base / "csi.cache"
        data = cache.read_bytes()
        # the digest, then a version 1.0 .npy header: magic, version and
        # header length in 10 bytes, then the header text
        csi_start = 32 + 10 + int.from_bytes(data[40:42], "little")
        damaged = {
            "empty": b"",
            "digest-only": data[:32],
            "mid-header": data[:40],
            "mid-csi": data[: csi_start + 100],
            "last-byte-cut": data[:-1],
            "garbage": bytes(np.random.default_rng(0).integers(0, 256, len(data), np.uint8)),
            "wrong-digest": bytes([data[0] ^ 1]) + data[1:],
            "wrong-dtype": data.replace(b"'<c16'", b"'<f16'", 1),
            "no-present": data[: csi_start + grid.csi.nbytes],
        }
        if damage == "wrong-shape":
            # one more grid row: csi.csv stays valid and in range
            doc = json.loads((base / "manifest.json").read_text())
            gn = grid.grid_shape[1]
            doc["grid"] += [[grid.grid_shape[0], n, 9.0, float(n), 0.0] for n in range(gn)]
            (base / "manifest.json").write_text(json.dumps(doc))
        else:
            assert damaged[damage] != data
            cache.write_bytes(damaged[damage])
        reference, _ = parsed(base, tmp_path / "p")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, _ = read_dataset(base)
        np.testing.assert_array_equal(loaded.present, reference.present)
        np.testing.assert_array_equal(
            loaded.csi.view(np.uint64), reference.csi.view(np.uint64)
        )
        if damage == "wrong-shape":
            assert loaded.grid_shape == (grid.grid_shape[0] + 1, grid.grid_shape[1])
            assert not loaded.present[:, :, -1].any()

    def test_fortran_ordered_grid_reads_back_bitwise(self, tmp_path):
        grid, manifest = special_dataset(6)
        grid = CsiGrid(
            csi=np.asfortranarray(grid.csi),
            present=np.asfortranarray(grid.present),
            positions=grid.positions,
        )
        write_dataset(grid, manifest, tmp_path)
        loaded, _ = read_dataset(tmp_path)
        assert_bitwise(loaded, grid)

    def test_transposed_grid_is_parsed(self, rng, tmp_path):
        # same element count as the cache's payloads, other shape: the
        # parse rejects the rows beyond the manifest's grid
        grid, manifest = random_dataset(rng, gm=3, gn=5)
        write_dataset(grid, manifest, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["grid"] = [[n, m, *xyz] for m, n, *xyz in doc["grid"]]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match="out of range"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("cache", ["kept", "deleted"])
    def test_read_only_directory_is_left_unchanged(self, tmp_path, request, cache):
        grid, manifest = special_dataset(5)
        base = tmp_path / "d"
        write_dataset(grid, manifest, base)
        if cache == "kept":
            request.getfixturevalue("no_parse")
        else:
            (base / "csi.cache").unlink()
        before = file_state(base)
        base.chmod(0o555)
        try:
            loaded, _ = read_dataset(base)
        finally:
            base.chmod(0o755)
        assert_bitwise(loaded, grid)
        assert file_state(base) == before


def offsets_dataset():
    geometry = perimeter_geometry()
    spec = GridSpec(nx=24, ny=24, x_min=1.25, x_max=4.75, y_min=1.25, y_max=4.75)
    grid, manifest, _ = generate_synthetic_dataset(
        geometry, spec, LosChannelParams(wavelength=geometry.wavelength), offsets_seed=5
    )
    return grid, manifest


def block_gaps_dataset():
    """A partial grid whose absent entries sit at the edges of the writer's
    (tx, rx) blocks: the last row of one block, the first row of the next,
    and one block with no row at all."""
    grid, manifest = random_dataset(np.random.default_rng(8), tx=3, rx=12, gm=4, gn=4)
    present = grid.present.copy()
    flat = present.reshape(grid.tx_count * grid.rx_count, -1)
    flat[:-1, -1] = False
    flat[1:, 0] = False
    flat[5] = False
    assert present.any(axis=(0, 2, 3)).all() and present.any(axis=(1, 2, 3)).all()
    return CsiGrid(csi=grid.csi, present=present, positions=grid.positions), manifest


class TestBlockWriter:
    @pytest.mark.parametrize("dataset", [offsets_dataset, block_gaps_dataset])
    def test_matches_row_writer(self, dataset, tmp_path, request):
        grid, manifest = dataset()
        write_dataset(grid, manifest, tmp_path)
        assert (tmp_path / "csi.csv").read_bytes() == reference_csv(grid)
        request.getfixturevalue("no_parse")
        loaded, _ = read_dataset(tmp_path)
        assert_bitwise(loaded, grid)

    def test_cache_digest_is_the_written_csv(self, tmp_path):
        grid, manifest = block_gaps_dataset()
        write_dataset(grid, manifest, tmp_path)
        digest = hashlib.sha256((tmp_path / "csi.csv").read_bytes()).digest()
        assert (tmp_path / "csi.cache").read_bytes()[: len(digest)] == digest


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    """A dataset over more than two read chunks, with blank lines inserted.

    Returns (directory with the manifest, csi.csv lines without newlines,
    grid). Line i of the list is file line i + 1.
    """
    chunk = csidata.CHUNK
    side = int(np.ceil(np.sqrt(2.5 * chunk / 8)))
    grid, manifest = random_dataset(np.random.default_rng(5), tx=2, rx=4, gm=side, gn=side)
    base = tmp_path_factory.mktemp("long")
    write_dataset(grid, manifest, base)
    lines = (base / "csi.csv").read_text().splitlines()
    for at in (5, 100, chunk - 1, chunk + 50, 2 * chunk + 3):  # ascending
        lines.insert(at, "")
    assert len(lines) > 2 * chunk + 1
    return base, lines, grid


def write_lines(base, lines, dest, newline="\n"):
    """A dataset of ``lines``; it keeps base's csi.cache, stale for them."""
    dest.mkdir()
    for name in ("manifest.json", "csi.cache"):
        (dest / name).write_bytes((base / name).read_bytes())
    (dest / "csi.csv").write_bytes((newline.join(lines) + newline).encode())
    return dest


class TestChunkedRead:
    def test_blank_lines_across_chunks_read_bitwise(self, long_csv, tmp_path):
        base, lines, grid = long_csv
        loaded, _ = read_dataset(write_lines(base, lines, tmp_path / "d"))
        np.testing.assert_array_equal(loaded.present, grid.present)
        np.testing.assert_array_equal(
            loaded.csi.view(np.uint64), grid.csi.view(np.uint64)
        )

    def test_crlf_reads_identically(self, long_csv, tmp_path):
        base, lines, grid = long_csv
        loaded, _ = read_dataset(write_lines(base, lines, tmp_path / "d", "\r\n"))
        np.testing.assert_array_equal(loaded.present, grid.present)
        np.testing.assert_array_equal(
            loaded.csi.view(np.uint64), grid.csi.view(np.uint64)
        )

    @pytest.mark.parametrize(
        "bad, fields", [("0,0,0", 3), ("   ", 1), ("0,0,0,0,1.0,2.0,3.0", 7)]
    )
    def test_field_count_names_line(self, long_csv, tmp_path, bad, fields):
        base, lines, _ = long_csv
        lines = list(lines)
        at = csidata.CHUNK + 20
        lines[at] = bad
        with pytest.raises(
            DatasetFormatError, match=f"line {at + 1}: expected 6 fields, got {fields}$"
        ):
            read_dataset(write_lines(base, lines, tmp_path / "d"))

    @pytest.mark.parametrize(
        "field, value",
        [
            (5, "not_a_number"),
            (4, ""),
            (0, "1.0"),
            (0, "1_0"),  # Python's int() took this spelling
            (2, "99999999999999999999"),  # too large for int64
        ],
    )
    def test_unparsable_field_names_line(self, long_csv, tmp_path, field, value):
        base, lines, _ = long_csv
        lines = list(lines)
        at = 2 * csidata.CHUNK + 12
        parts = lines[at].split(",")
        parts[field] = value
        lines[at] = ",".join(parts)
        with pytest.raises(DatasetFormatError, match=f"line {at + 1}: "):
            read_dataset(write_lines(base, lines, tmp_path / "d"))

    def test_out_of_range_names_line(self, long_csv, tmp_path):
        base, lines, _ = long_csv
        lines = list(lines)
        at = csidata.CHUNK + 9
        lines[at] = "0,4," + lines[at].split(",", 2)[2]
        with pytest.raises(
            DatasetFormatError, match=rf"line {at + 1}: index \(0,4,.*\) out of range"
        ):
            read_dataset(write_lines(base, lines, tmp_path / "d"))

    def test_duplicate_across_chunk_boundary_names_line(self, long_csv, tmp_path):
        base, lines, _ = long_csv
        lines = list(lines)
        last, first = csidata.CHUNK, csidata.CHUNK + 1  # last of chunk 1, first of 2
        assert lines[last] and lines[first]
        lines[first] = lines[last]
        with pytest.raises(
            DatasetFormatError, match=f"line {first + 1}: duplicate entry"
        ):
            read_dataset(write_lines(base, lines, tmp_path / "d"))

    def test_duplicate_within_chunk_names_second_line(self, long_csv, tmp_path):
        base, lines, _ = long_csv
        lines = list(lines)
        lines[csidata.CHUNK + 30] = lines[csidata.CHUNK + 10]
        with pytest.raises(
            DatasetFormatError, match=f"line {csidata.CHUNK + 31}: duplicate entry"
        ):
            read_dataset(write_lines(base, lines, tmp_path / "d"))

    @pytest.mark.parametrize("body", ["", "\n\n\n"])
    def test_header_only_csv_raises_without_warning(self, rng, tmp_path, body):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        (tmp_path / "csi.csv").write_text("tx,rx,m,n,re,im\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="rx_count"):
                read_dataset(tmp_path)


class TestReadValidation:
    def test_non_numeric_field_names_line(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",not_a_number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            read_dataset(tmp_path)

    def test_wrong_field_count(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        lines[1] = "0,0,0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(tmp_path)

    def test_bad_header(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        lines[0] = "tx,rx,re,im"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="header"):
            read_dataset(tmp_path)

    def test_version_mismatch(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match="format_version"):
            read_dataset(tmp_path)

    def test_rx_count_consistency(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        present = grid.present.copy()
        present[:, 3, :, :] = False  # drop one rx antenna entirely
        grid = CsiGrid(csi=grid.csi, present=present, positions=grid.positions)
        write_dataset(grid, manifest, tmp_path)
        with pytest.raises(DatasetFormatError, match="rx_count"):
            read_dataset(tmp_path)

    def test_duplicate_row(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="duplicate"):
            read_dataset(tmp_path)

    def test_out_of_range_index(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        path = tmp_path / "csi.csv"
        lines = path.read_text().splitlines()
        lines[1] = "9," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="out of range"):
            read_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            read_dataset(tmp_path)

    def test_manifest_grid_not_rectangular(self, rng, tmp_path):
        grid, manifest = random_dataset(rng)
        write_dataset(grid, manifest, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["grid"] = doc["grid"][:-1]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match="rectangle"):
            read_dataset(tmp_path)


class TestSyntheticGeneration:
    def test_clean_dataset_has_zero_offsets(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=4)
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=5, ny=5, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, manifest, table = generate_synthetic_dataset(geometry, spec, params)
        assert table is None
        est = estimate_phase_offsets(grid, manifest.rx_positions, manifest.wavelength)
        np.testing.assert_allclose(est.offsets, 0.0, atol=1e-9)

    def test_phases_match_los(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=4)
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=4, ny=3, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, manifest, _ = generate_synthetic_dataset(geometry, spec, params)
        los = theoretical_los_phases(
            manifest.rx_positions, grid.positions, manifest.wavelength
        )
        diff = wrap_phase(np.angle(grid.csi) - los[None, :, :, :])
        assert np.abs(diff).max() < 1e-12

    def test_free_space_amplitudes(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=4)
        params = LosChannelParams(
            wavelength=geometry.wavelength, amplitude_model="free-space"
        )
        spec = GridSpec(nx=3, ny=3, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, manifest, _ = generate_synthetic_dataset(geometry, spec, params)
        d = np.linalg.norm(
            grid.positions.reshape(-1, 3)[None, :, :]
            - manifest.rx_positions[:, None, :],
            axis=2,
        ).reshape(manifest.rx_count, 3, 3)
        np.testing.assert_allclose(
            np.abs(grid.csi[0]), params.wavelength / (4 * np.pi * d), atol=1e-15
        )

    def test_ideal_csi_is_the_los_channel(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=4)
        params = LosChannelParams(wavelength=geometry.wavelength)
        spec = GridSpec(nx=4, ny=3, x_min=1.0, x_max=5.0, y_min=1.0, y_max=5.0)
        grid, _, _ = generate_synthetic_dataset(geometry, spec, params, tx_count=2)
        expected = los_channel(geometry, grid.positions.reshape(-1, 3), params)
        for tx in range(2):
            np.testing.assert_array_equal(grid.csi[tx].reshape(expected.shape), expected)

    def test_grid_point_on_antenna(self):
        geometry = perimeter_geometry(n_aps=2, antennas_per_ap=4)
        x, y, z = geometry.antenna_positions[5]
        spec = GridSpec(nx=2, ny=1, x_min=x, x_max=x + 1.0, y_min=y, y_max=y, z=z)
        params = LosChannelParams(wavelength=geometry.wavelength)
        with pytest.raises(GeometryError, match="coincides"):
            generate_synthetic_dataset(geometry, spec, params)

    def test_grid_spec_positions(self):
        spec = GridSpec(nx=3, ny=2, x_min=0.0, x_max=2.0, y_min=5.0, y_max=6.0, z=1.5)
        pos = spec.positions()
        assert pos.shape == (3, 2, 3)
        np.testing.assert_array_equal(pos[:, 0, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(pos[0, :, 1], [5.0, 6.0])
        assert np.all(pos[:, :, 2] == 1.5)
