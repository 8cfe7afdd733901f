import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from dynact.deformation import AnalyticDeformation, FieldDeformation
from dynact.elastic import DisplacementHistory
from dynact.errors import ConfigError, MotionError
from dynact.motion import AffineMotion, identity_motion
from dynact.phantom import Ellipse, PhantomSpec
from dynact.projection import ScanGeometry, Sinogram, simulate_scan
from dynact.reconstruct import (
    FilterSpec,
    ImageSpec,
    backproject,
    backproject_static,
    filter_sinogram,
    reconstruct,
    static_fbp,
)

# the package re-exports the function reconstruct(), hiding the module
recon_module = sys.modules["dynact.reconstruct"]

GEO_SMALL = ScanGeometry(num_angles=60, num_detectors=101)


def small_filter(geometry=GEO_SMALL, **kw):
    return FilterSpec.for_geometry(geometry, **kw)


def filter_one_view(row, geometry, filter_spec):
    """``row`` filtered as the one view of a sinogram on ``geometry``'s detector."""
    return filter_sinogram(Sinogram(replace(geometry, num_angles=1), row[None, :]), filter_spec)[0]


class TestFilterProjection:
    def test_zero_row(self):
        fs = small_filter()
        out = filter_one_view(np.zeros(101), GEO_SMALL, fs)
        assert np.all(out == 0.0)

    def test_constant_row_dc_annihilated(self):
        # DC of the padded transform is multiplied by |0| = 0, so the mean
        # of the full padded output vanishes (the truncated window keeps
        # zero-padding edge leakage by construction)
        fs = small_filter()
        spacing = 2.0 / 100
        padded = np.zeros(fs.dft_size)
        padded[:101] = 1.0
        sigma = 2.0 * np.pi * np.fft.fftfreq(fs.dft_size, d=spacing)
        mult = np.abs(sigma) * np.exp(-0.5 * (fs.gamma * sigma) ** 2)
        full = np.fft.ifft(np.fft.fft(padded) * mult).real
        assert abs(full.mean()) < 1e-12

    def test_impulse_matches_kernel_quadrature(self):
        # oracle: direct midpoint quadrature of the band-limited
        # ramp-Gaussian kernel (1/2pi) * int |s| exp(-(gamma s)^2/2) e^{i s d} ds
        # over |s| <= pi/h; large dft_size removes periodization weight
        geo = ScanGeometry(num_angles=4, num_detectors=101)
        h = 2.0 / 100
        fs = FilterSpec(gamma=h, dft_size=16384)
        row = np.zeros(101)
        row[50] = 1.0
        out = filter_one_view(row, geo, fs) / h

        sig_max = np.pi / h
        m = 400000
        sig = -sig_max + (np.arange(m) + 0.5) * (2 * sig_max / m)
        weight = np.abs(sig) * np.exp(-0.5 * (fs.gamma * sig) ** 2)
        dists = (np.arange(101) - 50) * h
        kernel = np.array(
            [np.sum(weight * np.cos(sig * d)) * (2 * sig_max / m) for d in dists]
        ) / (2 * np.pi)
        peak = np.abs(kernel).max()
        assert np.abs(out - kernel).max() / peak < 1e-6

    def test_symmetric_row_stays_symmetric(self):
        rng = np.random.default_rng(3)
        half = rng.uniform(0, 1, 50)
        row = np.concatenate([half, [0.7], half[::-1]])
        out = filter_one_view(row, GEO_SMALL, small_filter())
        np.testing.assert_allclose(out, out[::-1], rtol=0, atol=1e-12)

    def test_monotone_regularization(self):
        rng = np.random.default_rng(4)
        row = rng.uniform(0, 1, 101)
        spacing = 2.0 / 100
        energies = []
        for gamma in (0.5 * spacing, spacing, 2 * spacing, 4 * spacing):
            fs = FilterSpec(gamma=gamma, dft_size=1024)
            padded = np.zeros(fs.dft_size)
            padded[:101] = row
            sigma = 2.0 * np.pi * np.fft.fftfreq(fs.dft_size, d=spacing)
            mult = np.abs(sigma) * np.exp(-0.5 * (gamma * sigma) ** 2)
            spec = np.fft.fft(padded) * mult
            upper = np.abs(spec[fs.dft_size // 4 : fs.dft_size // 2])
            energies.append(upper.sum())
        assert all(energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1))

    def test_rejects_small_dft(self):
        with pytest.raises(ConfigError):
            FilterSpec(gamma=0.01, dft_size=128).validate(101)
        with pytest.raises(ConfigError):
            FilterSpec(gamma=0.01, dft_size=300).validate(101)  # not a power of two

    def test_filter_sinogram_matches_per_row(self):
        spec = PhantomSpec([Ellipse(center=(0.1, 0), semi_axes=(0.5, 0.3), density=1.0)])
        sino = simulate_scan(spec, identity_motion(), GEO_SMALL)
        fs = small_filter()
        batched = filter_sinogram(sino, fs)
        # reference: the full complex DFT of each zero-padded row
        spacing = (GEO_SMALL.detector_max - GEO_SMALL.detector_min) / (GEO_SMALL.num_detectors - 1)
        sigma = 2.0 * np.pi * np.fft.fftfreq(fs.dft_size, d=spacing)
        multiplier = np.abs(sigma) * np.exp(-0.5 * (fs.gamma * sigma) ** 2)
        for n in (0, 17, 59):
            reference = np.fft.ifft(np.fft.fft(sino.values[n], n=fs.dft_size) * multiplier)
            assert np.abs(reference.imag).max() < 1e-10
            np.testing.assert_allclose(batched[n], reference.real[: GEO_SMALL.num_detectors], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                batched[n], filter_one_view(sino.values[n], GEO_SMALL, fs), rtol=0, atol=1e-12
            )


class TestReconstruct:
    def _disk_sino(self, geometry=None):
        geometry = geometry or ScanGeometry(num_angles=120, num_detectors=151)
        spec = PhantomSpec([Ellipse(center=(0, 0), semi_axes=(0.6, 0.6), density=1.0)])
        return simulate_scan(spec, identity_motion(), geometry)

    def test_zero_sinogram_zero_image(self):
        sino = Sinogram(GEO_SMALL, np.zeros((60, 101)))
        img = reconstruct(sino, AnalyticDeformation(identity_motion()), small_filter(), ImageSpec(33, 33))
        assert np.all(img.values == 0.0)

    def test_identity_provider_equals_static_path(self):
        sino = self._disk_sino()
        fs = FilterSpec.for_geometry(sino.geometry)
        ispec = ImageSpec(65, 65)
        dyn = reconstruct(sino, AnalyticDeformation(identity_motion()), fs, ispec)
        stat = static_fbp(sino, fs, ispec)
        assert np.abs(dyn.values - stat.values).max() < 1e-12

    def test_linearity(self):
        g = ScanGeometry(num_angles=40, num_detectors=81)
        e1 = PhantomSpec([Ellipse(center=(0.2, 0), semi_axes=(0.3, 0.2), density=1.0)])
        e2 = PhantomSpec([Ellipse(center=(-0.1, 0.1), semi_axes=(0.2, 0.4), density=0.5)])
        motion = AffineMotion()
        s1 = simulate_scan(e1, motion, g)
        s2 = simulate_scan(e2, motion, g)
        s12 = Sinogram(g, s1.values + s2.values)
        fs = FilterSpec.for_geometry(g)
        ispec = ImageSpec(49, 49)
        prov = AnalyticDeformation(motion)
        r12 = reconstruct(s12, prov, fs, ispec)
        r1 = reconstruct(s1, prov, fs, ispec)
        r2 = reconstruct(s2, prov, fs, ispec)
        assert np.abs(r12.values - (r1.values + r2.values)).max() < 1e-10

    def test_static_disk_interior_mean(self):
        sino = self._disk_sino(ScanGeometry())
        fs = FilterSpec.for_geometry(sino.geometry)
        ispec = ImageSpec(129, 129)
        img = static_fbp(sino, fs, ispec)
        pts = ispec.pixel_points()
        r = np.hypot(pts[..., 0], pts[..., 1])
        interior = r <= 0.6 - 3 * (2.0 / 128)
        assert img.values[interior].mean() == pytest.approx(1.0, abs=0.02)

    def test_static_phantom_edge_position(self):
        # reconstructed disk boundary sits within one pixel of the true edge
        sino = self._disk_sino(ScanGeometry())
        fs = FilterSpec.for_geometry(sino.geometry)
        ispec = ImageSpec(257, 257)
        img = static_fbp(sino, fs, ispec)
        x = ispec.x
        profile = img.values[:, 128]  # y = 0 row through the center
        above = np.nonzero(profile > 0.5)[0]
        pix = x[1] - x[0]
        assert abs(x[above[0]] - (-0.6)) <= pix
        assert abs(x[above[-1]] - 0.6) <= pix

    def test_determinism(self):
        sino = self._disk_sino()
        fs = FilterSpec.for_geometry(sino.geometry)
        ispec = ImageSpec(65, 65)
        prov = AnalyticDeformation(AffineMotion())
        a = reconstruct(sino, prov, fs, ispec)
        b = reconstruct(sino, prov, fs, ispec)
        assert np.array_equal(a.values, b.values)


class TestViewBlocks:
    """Views are split into a constant number of blocks, summed in block
    order: the images do not depend on how many threads run the blocks."""

    GEO = ScanGeometry(num_angles=61, num_detectors=81)

    @classmethod
    def filtered(cls):
        return np.random.default_rng(5).standard_normal((cls.GEO.num_angles, cls.GEO.num_detectors))

    @classmethod
    def field_provider(cls, grid):
        # snapshots spanning the scan, so the blocks walk different ones
        times = np.linspace(0.0, cls.GEO.view_times[-1], 7)
        fields = 0.05 * np.random.default_rng(6).standard_normal((len(times),) + grid.shape + (2,))
        return FieldDeformation(DisplacementHistory(times=times, fields=fields, grid=grid, dt=0.0, num_steps=0))

    def images(self, monkeypatch, make_image) -> list[bytes]:
        out = []
        for workers in (1, 2):
            monkeypatch.setattr(recon_module, "WORKERS", workers)
            out.append(make_image().values.tobytes())
        return out

    def test_static_bytes_independent_of_workers(self, monkeypatch):
        one, two = self.images(monkeypatch, lambda: backproject_static(self.filtered(), self.GEO, ImageSpec(33, 33)))
        assert one == two

    def test_analytic_bytes_independent_of_workers(self, monkeypatch):
        prov = AnalyticDeformation(AffineMotion(amplitude=0.2, frequency=0.05))
        one, two = self.images(monkeypatch, lambda: backproject(self.filtered(), self.GEO, prov, ImageSpec(33, 33)))
        assert one == two

    def test_field_bytes_independent_of_workers(self, monkeypatch, ellipse_grid_65):
        prov = self.field_provider(ellipse_grid_65)
        one, two = self.images(monkeypatch, lambda: backproject(self.filtered(), self.GEO, prov, ImageSpec(33, 33)))
        assert one == two

    def test_blocks_partition_the_views(self, monkeypatch):
        # one block holding every view gives the same image up to the
        # rounding of the block sum
        prov = AnalyticDeformation(AffineMotion())
        blocked = backproject(self.filtered(), self.GEO, prov, ImageSpec(33, 33))
        monkeypatch.setattr(recon_module, "BLOCKS", 1)
        whole = backproject(self.filtered(), self.GEO, prov, ImageSpec(33, 33))
        assert np.abs(blocked.values - whole.values).max() <= 1e-12 * np.abs(whole.values).max()

    def test_error_in_second_block_reaches_caller(self):
        # the scale s(t) = cos(f t) + 1 vanishes at the last view only, so
        # the first block runs through and the second raises on its thread
        times = self.GEO.view_times
        motion = AffineMotion(amplitude=1.0, frequency=np.pi / times[-1], offset=1.0, drift_coeff=0.0)
        assert motion.scale_factor(times[-1]) == 0.0
        assert np.all(motion.scale_factor(times[: len(times) // 2]) > 0.0)
        running = threading.active_count()
        with pytest.raises(MotionError, match="vanishes"):
            backproject(self.filtered(), self.GEO, AnalyticDeformation(motion), ImageSpec(17, 17))
        assert threading.active_count() == running

    def test_other_providers_called_one_block_at_a_time(self, ellipse_grid_65):
        # a wrapper that records its calls, as a timing proxy does: every
        # view goes through its eval, never two at once, and the image is
        # the wrapped provider's
        class Recording:
            def __init__(self, inner):
                self.inner = inner
                self.times = []
                self.active = 0
                self.overlapped = False

            def bind(self, points):
                return self.inner.bind(points)

            def eval(self, t, points):
                self.active += 1
                self.overlapped |= self.active > 1
                time.sleep(1e-3)  # lets the other block run, were it not waiting
                out = self.inner.eval(t, points)
                self.times.append(t)
                self.active -= 1
                return out

        prov = self.field_provider(ellipse_grid_65)
        rec = Recording(prov)
        img = backproject(self.filtered(), self.GEO, rec, ImageSpec(33, 33))
        assert not rec.overlapped
        assert sorted(rec.times) == list(self.GEO.view_times)
        plain = backproject(self.filtered(), self.GEO, prov, ImageSpec(33, 33))
        assert img.values.tobytes() == plain.values.tobytes()
