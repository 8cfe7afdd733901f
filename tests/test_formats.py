import os
import tracemalloc
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
        assert first.startswith("DYNACT-SINO v2 12 31 ")
        assert len(first.split(" ")) == 10  # magic, version and 8 fields

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
        "counts, found",
        [
            (b"forty 31", "'forty'"),
            (b"-2 -3", "non-positive count -2"),
            (b"0 31", "non-positive count 0"),
            (b"12 31.5", "'31.5'"),
        ],
    )
    def test_malformed_header_is_missing_input(self, tmp_path, sino_small, counts, found):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        Path(p).write_bytes(b"DYNACT-SINO v2 " + counts + b" " + b" ".join(line.split(b" ")[4:]) + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-SINO v2' header: .*{found}"):
            formats.read_sinogram(p)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.sino")
        Path(p).write_bytes(b"NOPE v9 1 2 3\n")
        with pytest.raises(MissingInputError, match="found 'NOPE v9' with 3"):
            formats.read_sinogram(p)

    def test_older_version_is_rejected(self, tmp_path, sino_small):
        # a v1 header, with no time map
        p = str(tmp_path / "a.sino")
        header = b"DYNACT-SINO v1 12 31 0.0 3.141592653589793 -1.0 1.0\n"
        Path(p).write_bytes(header + sino_small.values.astype("<f8").tobytes())
        with pytest.raises(MissingInputError, match="found 'DYNACT-SINO v1' with 6"):
            formats.read_sinogram(p)


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
        header = f"DYNACT-FIELD v3 65 65 3 {n_stored}\n".encode("ascii")
        raw = Path(p).read_bytes()
        assert raw.startswith(header)
        assert len(raw) == len(header) + (65 + 65) * 8 + 65 * 65 + 3 * 8 + 3 * n_stored * 2 * 8

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
        (b"DYNACT-FIELD v1 65 65 3", "'DYNACT-FIELD v1' with 3"),
        # v2: the ghost nodes stored too
        (b"DYNACT-FIELD v2 65 65 3 1441", "'DYNACT-FIELD v2' with 4"),
    ], ids=["v1", "v2"])
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
        parts[2 + field] = b"three" if field == 2 else b"0"
        Path(p).write_bytes(b" ".join(parts) + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-FIELD v3' header: .*{found}"):
            formats.FieldFile(p)

    def test_stored_count_must_match_the_classification(self, tmp_path, ellipse_grid_65):
        g = ellipse_grid_65
        p = str(tmp_path / "f.field")
        formats.write_field(p, self.history(g))
        # one more stored node in the header, and its payload
        line, rest = Path(p).read_bytes().split(b"\n", 1)
        *head, n = line.split(b" ")
        Path(p).write_bytes(b" ".join(head + [b"%d" % (int(n) + 1)]) + b"\n" + rest + bytes(3 * 16))
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

    @pytest.mark.parametrize("header, found", [(b"5 4 -1.0 one -1.0 1.0", "'one'"), (b"5 -4 -1.0 1.0 -1.0 1.0", "-4")])
    def test_malformed_header_is_missing_input(self, tmp_path, header, found):
        p = str(tmp_path / "i.img")
        formats.write_image(p, Image(ImageSpec(5, 4), np.ones((5, 4))))
        rest = Path(p).read_bytes().split(b"\n", 1)[1]
        Path(p).write_bytes(b"DYNACT-IMG v1 " + header + b"\n" + rest)
        with pytest.raises(MissingInputError, match=f"malformed 'DYNACT-IMG v1' header: .*{found}"):
            formats.read_image(p)

    def test_pgm_window_comment(self, tmp_path):
        img = Image(ImageSpec(9, 9), np.linspace(0, 1, 81).reshape(9, 9))
        p = str(tmp_path / "i.pgm")
        formats.write_pgm(p, img)
        raw = Path(p).read_bytes()
        assert raw.startswith(b"P5\n# window 0.0 1.0\n9 9\n65535\n")
        pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert pix.min() == 0 and pix.max() == 65535
