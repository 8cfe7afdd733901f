from pathlib import Path

import numpy as np
import pytest

from dynact import formats
from dynact.elastic import DisplacementHistory
from dynact.errors import MismatchError, MissingInputError
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
        back = formats.read_sinogram(p, time_offset=0.0, time_scale=sino_small.geometry.time_scale)
        assert np.array_equal(back.values, sino_small.values)
        g0, g1 = sino_small.geometry, back.geometry
        assert (g0.num_angles, g0.num_detectors) == (g1.num_angles, g1.num_detectors)
        assert (g0.angle_start, g0.angle_end) == (g1.angle_start, g1.angle_end)

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
        assert first.startswith("DYNACT-SINO v1 12 31 ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            formats.read_sinogram(str(tmp_path / "nope.sino"), time_offset=0.0, time_scale=1.0)

    def test_truncated_payload(self, tmp_path, sino_small):
        p = str(tmp_path / "a.sino")
        formats.write_sinogram(p, sino_small)
        Path(p).write_bytes(Path(p).read_bytes()[:-8])
        with pytest.raises(MismatchError):
            formats.read_sinogram(p, time_offset=0.0, time_scale=1.0)

    def test_bad_magic(self, tmp_path):
        p = str(tmp_path / "bad.sino")
        Path(p).write_bytes(b"NOPE v9 1 2 3\n")
        with pytest.raises(MissingInputError):
            formats.read_sinogram(p, time_offset=0.0, time_scale=1.0)


class TestFieldFormat:
    def test_roundtrip(self, tmp_path, ellipse_grid_65):
        g = ellipse_grid_65
        times = np.array([0.0, 1.5, 3.0])
        rng = np.random.default_rng(1)
        fields = rng.uniform(-1, 1, (3,) + g.shape + (2,))
        hist = DisplacementHistory(times=times, fields=fields, grid=g, dt=0.1, num_steps=30)
        p = str(tmp_path / "f.field")
        formats.write_field(p, hist)
        x, y, kind, t_back, f_back = formats.read_field(p)
        assert np.array_equal(x, g.x_coords)
        assert np.array_equal(y, g.y_coords)
        assert np.array_equal(kind, g.kind)
        assert np.array_equal(t_back, times)
        assert np.array_equal(f_back, fields)


class TestImageFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image(ImageSpec(17, 23), rng.uniform(-1, 1, (17, 23)))
        p = str(tmp_path / "i.img")
        formats.write_image(p, img)
        back = formats.read_image(p)
        assert np.array_equal(back.values, img.values)
        assert (back.spec.nx, back.spec.ny) == (17, 23)

    def test_pgm_window_comment(self, tmp_path):
        img = Image(ImageSpec(9, 9), np.linspace(0, 1, 81).reshape(9, 9))
        p = str(tmp_path / "i.pgm")
        formats.write_pgm(p, img)
        raw = Path(p).read_bytes()
        assert raw.startswith(b"P5\n# window 0.0 1.0\n9 9\n65535\n")
        pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2")
        assert pix.min() == 0 and pix.max() == 65535
