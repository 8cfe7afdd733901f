import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dynact.errors import MismatchError
from dynact.metrics import evaluate
from dynact.phantom import Ellipse, PhantomSpec
from dynact.reconstruct import Image, ImageSpec


def img(values, nx=8, ny=8):
    return Image(ImageSpec(nx=nx, ny=ny), np.asarray(values, dtype=float))


def test_identical_images():
    a = img(np.random.default_rng(0).uniform(0, 1, (8, 8)))
    rep = evaluate(a, a)
    assert rep.rmse == 0.0
    assert np.isposinf(rep.psnr)
    assert rep.to_dict()["psnr"] == "inf"


def test_constant_vs_zero():
    a = img(np.full((8, 8), 0.3))
    b = img(np.zeros((8, 8)))
    rep = evaluate(a, b)
    assert rep.rmse == pytest.approx(0.3, abs=1e-15)
    assert rep.relative_l2 == float("inf")


def test_overflowing_metrics_are_strings():
    # finite images whose sums overflow give inf and NaN metrics; the report
    # is strict JSON, which has neither
    a = img(np.full((8, 8), 1e300))
    b = img(np.full((8, 8), -1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        d = evaluate(a, b).to_dict()
    assert (d["rmse"], d["relative_l2"], d["psnr"]) == ("inf", "nan", "-inf")
    json.dumps(d, allow_nan=False)


def test_checkerboard_rmse_one():
    v = np.indices((8, 8)).sum(axis=0) % 2
    a = img(np.where(v, 1.0, -1.0))
    b = img(np.zeros((8, 8)))
    assert evaluate(a, b).rmse == pytest.approx(1.0, abs=1e-15)


def test_psnr_value():
    b = np.zeros((8, 8))
    b[0, 0] = 2.0  # range 2
    a = b + 0.1
    rep = evaluate(img(a), img(b))
    assert rep.psnr == pytest.approx(20 * np.log10(2.0 / 0.1), abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(MismatchError):
        evaluate(img(np.zeros((8, 8))), img(np.zeros((9, 9)), nx=9, ny=9))


def test_region_rmse_uses_labels():
    phantom = PhantomSpec(
        [
            Ellipse(center=(0, 0), semi_axes=(0.9, 0.9), density=1.0, label="body"),
            Ellipse(center=(0.3, 0.3), semi_axes=(0.2, 0.2), density=0.5, label="tumour"),
            Ellipse(center=(-0.4, 0.0), semi_axes=(0.2, 0.3), density=-0.5, label="lung"),
            Ellipse(center=(0.4, -0.4), semi_axes=(0.1, 0.1), density=-0.5, label="lung"),
        ]
    )
    spec = ImageSpec(nx=65, ny=65)
    b = Image(spec, np.zeros((65, 65)))
    vals = np.zeros((65, 65))
    pts = spec.pixel_points()
    tum = phantom.ellipses[1].contains(pts)
    vals[tum] = 0.2
    rep = evaluate(Image(spec, vals), b, phantom)
    assert set(rep.region_rmse) == {"tumour", "lung"}
    assert rep.region_rmse["tumour"] == pytest.approx(0.2, abs=1e-12)
    assert rep.region_rmse["lung"] == 0.0



# a 257^2 recon and reference (the shipped image size), evaluated and
# printed with every digit; run with numpy's BLAS thread count set by the
# environment
_EVALUATE_257 = """
import numpy as np
from dynact.metrics import evaluate
from dynact.reconstruct import Image, ImageSpec
rng = np.random.default_rng(5)
spec = ImageSpec(nx=257, ny=257)
ref = rng.uniform(0.0, 1.0, (257, 257))
rep = evaluate(Image(spec, ref + rng.normal(0.0, 0.1, ref.shape)), Image(spec, ref))
print(repr(rep.to_dict()))
"""


def test_evaluate_independent_of_blas_threads():
    # above about 1e4 elements a BLAS dot product splits its sum across
    # threads, so a norm taken through it changes in the last digits with
    # the thread count; the count is read when numpy is imported
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

    def run(threads: str) -> bytes:
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        return subprocess.run([sys.executable, "-c", _EVALUATE_257], env=env, check=True, capture_output=True).stdout

    one = run("1")
    assert b"relative_l2" in one
    assert run("2") == one
