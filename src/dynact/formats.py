"""Bit-exact binary artifact formats.

All payloads are little-endian IEEE float64 (classification is raw
bytes); headers are single ASCII lines with shortest round-trip float
formatting, so identical data always produces identical bytes.

  DYNACT-SINO v1  <num_angles> <num_detectors> <angle_start> <angle_end> <det_min> <det_max>
  DYNACT-FIELD v1 <nx> <ny> <num_snapshots>
  DYNACT-IMG v1   <nx> <ny> <xmin> <xmax> <ymin> <ymax>
"""

from __future__ import annotations

import os

import numpy as np

from .elastic import DisplacementHistory
from .errors import MismatchError, MissingInputError
from .projection import ScanGeometry, Sinogram
from .reconstruct import Image, ImageSpec

_F8 = np.dtype("<f8")


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_header(path: str, magic: str, n_fields: int) -> tuple[list[str], bytes]:
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise MissingInputError(f"cannot open {path}: {exc}") from exc
    with f:
        line = f.readline()
        rest = f.read()
    try:
        text = line.decode("ascii").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise MissingInputError(f"{path}: corrupt header") from exc
    parts = text.split(" ")
    if parts[:2] != magic.split(" ") or len(parts) != 2 + n_fields:
        raise MissingInputError(f"{path}: expected '{magic}' header with {n_fields} fields")
    return parts[2:], rest


def write_sinogram(path: str, sino: Sinogram) -> None:
    g = sino.geometry
    header = (
        f"DYNACT-SINO v1 {g.num_angles} {g.num_detectors} "
        f"{_fmt(g.angle_start)} {_fmt(g.angle_end)} {_fmt(g.detector_min)} {_fmt(g.detector_max)}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(sino.values, dtype=_F8).tobytes())


def read_sinogram(path: str, time_offset: float = 0.0, time_scale: float | None = None) -> Sinogram:
    """Load a sinogram; the time map is not part of the file and must be
    supplied (defaults to one breathing period over the views)."""
    fields, payload = _read_header(path, "DYNACT-SINO v1", 6)
    num_angles, num_detectors = int(fields[0]), int(fields[1])
    angle_start, angle_end, det_min, det_max = (float(v) for v in fields[2:])
    expected = num_angles * num_detectors * 8
    if len(payload) != expected:
        raise MismatchError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    if time_scale is None:
        time_scale = (2.0 * np.pi / 0.04) / num_angles
    geometry = ScanGeometry(
        num_angles=num_angles,
        angle_start=angle_start,
        angle_end=angle_end,
        num_detectors=num_detectors,
        detector_min=det_min,
        detector_max=det_max,
        time_offset=time_offset,
        time_scale=time_scale,
    )
    values = np.frombuffer(payload, dtype=_F8).reshape(num_angles, num_detectors).copy()
    return Sinogram(geometry, values)


def write_field(path: str, history: DisplacementHistory) -> None:
    grid = history.grid
    nx, ny = grid.shape
    k = len(history.times)
    with open(path, "wb") as f:
        f.write(f"DYNACT-FIELD v1 {nx} {ny} {k}\n".encode("ascii"))
        f.write(np.ascontiguousarray(grid.x_coords, dtype=_F8).tobytes())
        f.write(np.ascontiguousarray(grid.y_coords, dtype=_F8).tobytes())
        f.write(np.ascontiguousarray(grid.kind, dtype=np.uint8).tobytes())
        for i in range(k):
            f.write(np.asarray(history.times[i], dtype=_F8).tobytes())
            f.write(np.ascontiguousarray(history.fields[i, :, :, 0], dtype=_F8).tobytes())
            f.write(np.ascontiguousarray(history.fields[i, :, :, 1], dtype=_F8).tobytes())


def read_field(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (x_coords, y_coords, kind, times, fields[K, nx, ny, 2])."""
    fields_hdr, payload = _read_header(path, "DYNACT-FIELD v1", 3)
    nx, ny, k = (int(v) for v in fields_hdr)
    expected = (nx + ny) * 8 + nx * ny + k * (8 + 2 * nx * ny * 8)
    if len(payload) != expected:
        raise MismatchError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    off = 0
    x = np.frombuffer(payload, dtype=_F8, count=nx, offset=off).copy()
    off += nx * 8
    y = np.frombuffer(payload, dtype=_F8, count=ny, offset=off).copy()
    off += ny * 8
    kind = np.frombuffer(payload, dtype=np.uint8, count=nx * ny, offset=off).reshape(nx, ny).copy()
    off += nx * ny
    # one record per snapshot: its time, then the x and y components
    record = np.dtype([("t", _F8), ("u", _F8, (2, nx, ny))])
    snapshots = np.frombuffer(payload, dtype=record, count=k, offset=off)
    return x, y, kind, snapshots["t"].copy(), np.moveaxis(snapshots["u"], 1, -1).copy()


def write_image(path: str, img: Image) -> None:
    nx, ny = img.values.shape
    header = f"DYNACT-IMG v1 {nx} {ny} {_fmt(-1.0)} {_fmt(1.0)} {_fmt(-1.0)} {_fmt(1.0)}\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(img.values, dtype=_F8).tobytes())


def read_image(path: str) -> Image:
    fields, payload = _read_header(path, "DYNACT-IMG v1", 6)
    nx, ny = int(fields[0]), int(fields[1])
    extent = tuple(float(v) for v in fields[2:])
    if extent != (-1.0, 1.0, -1.0, 1.0):
        raise MismatchError(f"{path}: unsupported image extent {extent}")
    expected = nx * ny * 8
    if len(payload) != expected:
        raise MismatchError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype=_F8).reshape(nx, ny).copy()
    return Image(ImageSpec(nx=nx, ny=ny), values)


def write_pgm(path: str, img: Image, window: tuple[float, float] | None = None) -> None:
    """16-bit PGM with the min/max window recorded in the comment line."""
    vals = img.values
    lo, hi = window if window is not None else (float(vals.min()), float(vals.max()))
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    pix = np.round(scaled * 65535.0).astype(">u2")
    # PGM rows run top to bottom: row r shows y = y_max - r
    raster = pix[:, ::-1].T
    with open(path, "wb") as f:
        f.write(f"P5\n# window {_fmt(lo)} {_fmt(hi)}\n{raster.shape[1]} {raster.shape[0]}\n65535\n".encode("ascii"))
        f.write(raster.tobytes())


def require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise MissingInputError(f"required input file is missing: {path}")
    return path
