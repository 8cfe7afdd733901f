import os
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dynact import formats
from dynact.elastic import DisplacementHistory
from dynact.errors import MismatchError, MissingInputError
from dynact.grid import NodeKind, stored_nodes
from dynact.motion import identity_motion
from dynact.phantom import Ellipse, PhantomSpec
from dynact.projection import ScanGeometry, simulate_scan
from dynact.reconstruct import Image, ImageSpec


@pytest.fixture
def sino_small():
    spec = PhantomSpec([Ellipse(center=(0.1, 0), semi_axes=(0.4, 0.3), density=1.0)])
    return simulate_scan(spec, identity_motion(), ScanGeometry(num_angles=12, num_detectors=31))


class TestSinogramFormat:
    def test_roundtrip(self, tmp_path, sino_small):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        back = formats.read_sinogram(p)
        assert np.array_equal(back.values, sino_small.values)
        g0, g1 = sino_small.geometry, back.geometry
        assert (g0.num_angles, g0.num_detectors) == (g1.num_angles, g1.num_detectors)
        assert (g0.angle_start, g0.angle_end) == (g1.angle_start, g1.angle_end)

    def test_time_map_is_stored(self, tmp_path):
        spec = PhantomSpec([Ellipse(center=(0.1, 0), semi_axes=(0.4, 0.3), density=1.0)])
        geometry = ScanGeometry(num_angles=12, num_detectors=31, time_offset=0.3, time_scale=1.0 / 3.0)
        sino = simulate_scan(spec, identity_motion(), geometry)
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino)
        assert formats.read_sinogram(p).geometry == geometry

    def test_bitwise_stable(self, tmp_path, sino_small):
        p1, p2 = str(tmp_path / "a.sino"), str(tmp_path / "b.sino")
        formats.write_sinogram(p1, sino_small)
        formats.write_sinogram(p2, sino_small)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_header_is_ascii_line(self, tmp_path, sino_small):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        with open(p, "rb") as f:
            first = f.readline().decode("ascii")
        assert first.startswith("DYNACT-SINO v3 num_angles=12 num_detectors=31 ")
        assert len(first.split(" ")) == 10  # magic, version and 8 keys

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            formats.read_sinogram(str(tmp_path / "nope.sino"))

    def test_truncated_payload(self, tmp_path, sino_small):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        Path(p).write_bytes(Path(p).read_bytes()[:-8])
        with pytest.raises(MismatchError):
            formats.read_sinogram(p)

    def test_long_payload(self, tmp_path, sino_small):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        Path(p).write_bytes(Path(p).read_bytes() + bytes(8))
        with pytest.raises(MismatchError):
            formats.read_sinogram(p)

    @pytest.mark.parametrize(
        "head, found",
        [
            (b"forty 31", "'forty'"),
            (b"-2 -3", "non-positive count -2"),
            (b"0 31", "non-positive count 0"),
            (b"12 31.5", "'31.5'"),
            # a number that is not finite read as a config error or a mismatch
            (b"12 31 0.0 nan", "non-finite value nan"),
            (b"12 31 0.0 inf", "non-finite value inf"),
            (b"12 31 0.0 3.0 -1.0 1.0 -inf", "non-finite value -inf"),
            (b"12 31 0.0 3.0 -1.0 1.0 0.0 nan", "non-finite value nan"),
            # numbers that describe no scan geometry
            (b"12 31 0.0 3.0 1.0 1.0", "detector_min must be < detector_max"),
            (b"12 31 0.0 0.0", "angle range must be increasing"),
        ],
    )
    def test_malformed_header_is_missing_input(self, tmp_path, sino_small, head, found):
        # ``head`` replaces the values of the first header keys
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        parts = line.split(b" ")
        for i, value in enumerate(head.split(b" "), start=2):
            parts[i] = parts[i].split(b"=")[0] + b"=" + value
        Path(p).write_bytes(b" ".join(parts) + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-SINO v3' header: .*{found}"):
            formats.read_sinogram(p)

    @pytest.mark.parametrize(
        "edit, found",
        [
            (lambda keys: keys[:-1], "missing key 'time_scale'"),
            (lambda keys: keys[:1] + keys[2:], "missing key 'num_detectors'"),
            (lambda keys: keys + [b"extra=1"], "unknown key 'extra'"),
            (lambda keys: keys + keys[:1], "repeated key 'num_angles'"),
            (lambda keys: keys[1::-1] + keys[2:], "keys out of order: num_detectors num_angles angle_start"),
            # a token without "=" is a key without a value
            (lambda keys: [b"12"] + keys[1:], "unknown key '12'"),
            (lambda keys: [b"num_angles"] + keys[1:], "num_angles: invalid literal for int.*''"),
        ],
        ids=["missing-last", "missing-second", "unknown", "repeated", "reordered", "no-equals", "no-value"],
    )
    def test_keys_must_be_the_geometry_fields_in_order(self, tmp_path, sino_small, edit, found):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        magic, version, *keys = line.split(b" ")
        Path(p).write_bytes(b" ".join([magic, version, *edit(keys)]) + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-SINO v3' header: {found}"):
            formats.read_sinogram(p)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.sino")
        Path(p).write_bytes(b"NOPE v9 1 2 3\n")
        with pytest.raises(MissingInputError, match="expected a 'DYNACT-SINO v3' header, found 'NOPE v9'$"):
            formats.read_sinogram(p)

    def test_older_version_is_rejected(self, tmp_path, sino_small):
        # v1 had no time map; v1 and v2 headers were positional
        p = str(tmp_path / "a.sino")
        for header in (
            b"DYNACT-SINO v1 12 31 0.0 3.141592653589793 -1.0 1.0\n",
            b"DYNACT-SINO v2 12 31 0.0 3.141592653589793 -1.0 1.0 0.0 1.0\n",
        ):
            Path(p).write_bytes(header + sino_small.values.astype("<f8").tobytes())
            with pytest.raises(MissingInputError, match=f"found '{header[:14].decode()}'$"):
                formats.read_sinogram(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_missing_input(self, tmp_path, sino_small, value):
        # a NaN in one row would otherwise spread through the filter into
        # most pixels of every image reconstructed from it
        sino_small.values[4, 7] = value
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        with pytest.raises(MissingInputError, match="corrupt sinogram, 1 of 372 values are not finite"):
            formats.read_sinogram(p)

    def test_header_without_line_end_is_read_to_a_limit(self, tmp_path):
        # a 10 MB file with no "\n" (the whole line was read and quoted in
        # the message before: a 50 MB one peaked at 101.5 MB)
        p = tmp_path / "huge.sino"
        p.write_bytes(b"x" * 10_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(MissingInputError, match="corrupt header") as exc:
                formats.read_sinogram(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(exc.value)) < 300
        assert peak < 1 << 20

    def test_long_magic_is_cut_in_the_message(self, tmp_path):
        p = tmp_path / "long.sino"
        p.write_bytes(b"x" * 4000 + b"\n")
        with pytest.raises(MissingInputError, match="found 'x{40}'$") as exc:
            formats.read_sinogram(str(p))
        assert len(str(exc.value)) < 300


class TestFieldFormat:
    @staticmethod
    def lattice(grid):
        return np.random.default_rng(1).uniform(-1, 1, (3,) + grid.shape + (2,))

    @classmethod
    def history(cls, grid):
        times = np.array([0.0, 1.5, 3.0])
        return DisplacementHistory(times=times, fields=cls.lattice(grid), grid=grid, dt=0.1, num_steps=30)

    def test_roundtrip(self, tmp_path, ellipse_grid_65):
        # v3 stores no exterior or ghost values: the stored nodes (interior
        # and boundary) come back bit-exactly, the others as 0
        g = ellipse_grid_65
        hist = self.history(g)
        p = str(tmp_path / "f.field")
        formats.write_field(p, hist)
        x, y, kind, t_back, f_back = formats.read_field(p)
        assert np.array_equal(x, g.x_coords)
        assert np.array_equal(y, g.y_coords)
        assert np.array_equal(kind, g.kind)
        assert np.array_equal(t_back, hist.times)
        stored = (g.kind == int(NodeKind.INTERIOR)) | (g.kind == int(NodeKind.BOUNDARY))
        assert np.array_equal(f_back[:, stored], self.lattice(g)[:, stored])
        assert np.all(f_back[:, ~stored] == 0.0)
        with formats.FieldFile(p) as field:
            values = np.stack([field.read(k, np.empty((field.n_stored, 2))) for k in range(3)])
        assert np.array_equal(values, hist.fields)
        assert np.array_equal(values, self.lattice(g).reshape(3, -1, 2)[:, stored_nodes(g.kind)])

    def test_stores_only_the_interior_and_boundary_nodes(self, tmp_path, ellipse_grid_65):
        g = ellipse_grid_65
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(g))
        n_stored = int(np.count_nonzero((g.kind == int(NodeKind.INTERIOR)) | (g.kind == int(NodeKind.BOUNDARY))))
        header = f"DYNACT-FIELD v4 nx=65 ny=65 num_snapshots=3 n_stored={n_stored}\n".encode("ascii")
        raw = Path(p).read_bytes()
        assert raw.startswith(header)
        assert len(raw) == len(header) + (65 + 65) * 8 + 65 * 65 + 3 * 8 + 3 * n_stored * 2 * 8

    def test_failed_header_write_leaves_no_file(self, tmp_path, ellipse_grid_65, monkeypatch):
        # x coordinates that are not numbers fail the header write after the
        # header line: the writer closes its file and removes it, leaving
        # neither the cut file nor the field it replaced
        p = tmp_path / "f.field"
        formats.write_field(str(p), self.history(ellipse_grid_65))
        opened = []
        monkeypatch.setattr(formats, "open", lambda *a: opened.append(open(*a)) or opened[-1], raising=False)
        grid = replace(ellipse_grid_65, x_coords=np.array(["x"] * 65, dtype=object))
        with pytest.raises(ValueError):
            formats.FieldWriter(str(p), grid, [0.0])
        assert len(opened) == 1 and opened[0].closed
        assert not p.exists()

    def test_wrong_payload_size(self, tmp_path, ellipse_grid_65):
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(ellipse_grid_65))
        raw = Path(p).read_bytes()
        for bad in (raw[:-8], raw + bytes(1)):
            Path(p).write_bytes(bad)
            with pytest.raises(MismatchError):
                formats.read_field(p)

    @pytest.mark.parametrize("header, found", [
        # v1: every lattice node stored, no stored-node count
        (b"DYNACT-FIELD v1 65 65 3", "'DYNACT-FIELD v1'"),
        # v2: the ghost nodes stored too
        (b"DYNACT-FIELD v2 65 65 3 1441", "'DYNACT-FIELD v2'"),
        # v3: this payload, under a positional header
        (b"DYNACT-FIELD v3 65 65 3 1441", "'DYNACT-FIELD v3'"),
    ], ids=["v1", "v2", "v3"])
    def test_older_version_is_rejected(self, tmp_path, ellipse_grid_65, header, found):
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(ellipse_grid_65))
        rest = Path(p).read_bytes().split(b"\n", 1)[1]
        Path(p).write_bytes(header + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"found {found}"):
            formats.FieldFile(p)

    @pytest.mark.parametrize("field, found", [(2, "'three'"), (3, "non-positive count 0")])
    def test_malformed_header_is_missing_input(self, tmp_path, ellipse_grid_65, field, found):
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(ellipse_grid_65))
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        parts = line.split(b" ")
        # ``field`` indexes the keys nx, ny, num_snapshots, n_stored
        parts[2 + field] = parts[2 + field].split(b"=")[0] + (b"=three" if field == 2 else b"=0")
        Path(p).write_bytes(b" ".join(parts) + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-FIELD v4' header: .*{found}"):
            formats.FieldFile(p)

    def test_stored_count_must_match_the_classification(self, tmp_path, ellipse_grid_65):
        g = ellipse_grid_65
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(g))
        # one more stored node in the header, and its payload
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        *head, n = line.split(b" ")
        Path(p).write_bytes(b" ".join(head + [b"n_stored=%d" % (int(n.split(b"=")[1]) + 1)]) + b"\n" + rest + bytes(3 * 16))
        with pytest.raises(MismatchError, match="classification"):
            formats.FieldFile(p)

    def test_whole_readers_return_every_snapshot(self, tmp_path, ellipse_grid_65):
        # each snapshot is read into an array of its own, not into one
        # buffer that the next read overwrites
        g = ellipse_grid_65
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(g))
        fields = formats.read_field(p)[4]
        for k in range(3):
            for j in range(k):
                assert not np.array_equal(fields[j], fields[k])
        assert np.array_equal(fields.reshape(3, -1, 2)[:, stored_nodes(g.kind)], self.history(g).fields)

    def test_read_field_holds_no_history(self, tmp_path, ellipse_grid_65):
        # the lattice result is filled one snapshot at a time through one
        # (n_stored, 2) buffer: no (K, n_stored, 2) history is held next
        # to it (reading the history whole peaked about 11 snapshots above
        # the result, this reader about 2)
        g = ellipse_grid_65
        times = np.linspace(0.0, 4.0, 9)
        n_stored = len(stored_nodes(g.kind))
        fields = np.random.default_rng(4).uniform(-1, 1, (len(times), n_stored, 2))
        p = str(tmp_path / "f.field")
        formats.write_field(p, DisplacementHistory(times=times, fields=fields, grid=g, dt=0.0, num_steps=0))
        del fields
        tracemalloc.start()
        try:
            lattice = formats.read_field(p)[4]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lattice.shape == (len(times), 65, 65, 2)
        assert peak <= lattice.nbytes + 3 * n_stored * 16

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshot_is_missing_input(self, tmp_path, ellipse_grid_65, value):
        # a NaN in a stored row reaches every pixel that reads the row
        g = ellipse_grid_65
        n_stored = len(stored_nodes(g.kind))
        rows = np.ones((n_stored, 2))
        p = str(tmp_path / "f.field")
        with formats.FieldWriter(p, g, [0.0, 1.0]) as out:
            out.write(0, rows)
            rows[5, 1] = value
            out.write(1, rows)
        with formats.FieldFile(p, g) as field:
            snapshot = np.empty((n_stored, 2))
            assert np.array_equal(field.read(0, snapshot), np.ones((n_stored, 2)))
            with pytest.raises(MissingInputError, match=f"f.field: corrupt field snapshot 1, 1 of {2 * n_stored} values are not finite"):
                field.read(1, snapshot)

    def test_file_cut_after_open_fails_on_the_read(self, tmp_path, ellipse_grid_65):
        g = ellipse_grid_65
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(g))
        with formats.FieldFile(p, g) as field:
            out = np.empty((field.n_stored, 2))
            os.truncate(p, os.path.getsize(p) - 8)
            # snapshots before the cut still read
            assert np.array_equal(field.read(1, out), self.history(g).fields[1])
            with pytest.raises(MismatchError, match="payload ends before the end of snapshot 2"):
                field.read(2, out)


class TestImageFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image(ImageSpec(17, 23), rng.uniform(-1, 1, (17, 23)))
        p = str(tmp_path / "i.img")
        formats.write_image(p, img)
        back = formats.read_image(p)
        assert np.array_equal(back.values, img.values)
        assert (back.spec.nx, back.spec.ny) == (17, 23)

    def test_truncated_payload(self, tmp_path):
        img = Image(ImageSpec(5, 4), np.ones((5, 4)))
        p = str(tmp_path / "i.img")
        formats.write_image(p, img)
        Path(p).write_bytes(Path(p).read_bytes()[:-1])
        with pytest.raises(MismatchError):
            formats.read_image(p)

    @pytest.mark.parametrize("header, found", [(b"nx=5 ny=one", "'one'"), (b"nx=5 ny=-4", "non-positive count -4")])
    def test_malformed_header_is_missing_input(self, tmp_path, header, found):
        p = str(tmp_path / "i.img")
        formats.write_image(p, Image(ImageSpec(5, 4), np.ones((5, 4))))
        rest = Path(p).read_bytes().split(b"\n", 1)[1]
        Path(p).write_bytes(b"DYNACT-IMG v2 " + header + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-IMG v2' header: ny: .*{found}"):
            formats.read_image(p)

    def test_older_version_is_rejected(self, tmp_path):
        # v1 also carried the extent, which was always [-1, 1]^2
        p = tmp_path / "i.img"
        p.write_bytes(b"DYNACT-IMG v1 5 4 -1.0 1.0 -1.0 1.0\n" + np.ones((5, 4)).tobytes())
        with pytest.raises(MissingInputError, match="expected a 'DYNACT-IMG v2' header, found 'DYNACT-IMG v1'$"):
            formats.read_image(str(p))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_missing_input(self, tmp_path, value):
        values = np.ones((5, 4))
        values[2, 1] = value
        p = str(tmp_path / "i.img")
        formats.write_image(p, Image(ImageSpec(5, 4), values))
        with pytest.raises(MissingInputError, match="corrupt image, 1 of 20 values are not finite"):
            formats.read_image(p)

    def test_pgm_window_comment(self, tmp_path):
        img = Image(ImageSpec(9, 9), np.linspace(0, 1, 81).reshape(9, 9))
        p = str(tmp_path / "i.pgm")
        formats.write_pgm(p, img)
        raw = Path(p).read_bytes()
        assert raw.startswith(b"P5\n# window 0.0 1.0\n9 9\n65535\n")
        pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert pix.min() == 0 and pix.max() == 65535


def test_each_header_holds_its_dataclass_fields_in_order(tmp_path, sino_small, ellipse_grid_65):
    sino, field, img = (str(tmp_path / name) for name in ("a.sino", "f.field", "i.img"))
    formats.write_sinogram(sino, sino_small)
    formats.write_field(field, TestFieldFormat.history(ellipse_grid_65))
    formats.write_image(img, Image(ImageSpec(5, 4), np.ones((5, 4))))
    for path, cls in ((sino, ScanGeometry), (field, formats._FieldHeader), (img, ImageSpec)):
        with open(path, "rb") as file:
            keys = [token.split("=")[0] for token in file.readline().decode("ascii").split()[2:]]
        assert keys == [f.name for f in fields(cls)]
