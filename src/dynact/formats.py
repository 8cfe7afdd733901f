"""Bit-exact binary artifact formats.

All payloads are little-endian IEEE float64 (classification is raw
bytes); headers are single ASCII lines with shortest round-trip float
formatting, so identical data always produces identical bytes.

  DYNACT-SINO v2  <num_angles> <num_detectors> <angle_start> <angle_end> <det_min> <det_max> <time_offset> <time_scale>
  DYNACT-FIELD v3 <nx> <ny> <num_snapshots> <n_stored>
  DYNACT-IMG v1   <nx> <ny> <xmin> <xmax> <ymin> <ymax>

A sinogram's payload is its (num_angles, num_detectors) values; its
header carries the view-to-time map, so a stage can tell a sinogram
simulated under another one. A field's payload is x (nx), y (ny), the
node classification (nx * ny bytes), the K snapshot times and then one
(K, n_stored, 2) block, a history's fields as they are: the
displacement of every stored node (interior and boundary,
`grid.stored_nodes`) in flat lattice order. Exterior and ghost nodes are
not stored; ``read_field`` returns them as zero. `FieldWriter` writes a
field's header arrays at open and one (n_stored, 2) snapshot per ``write``,
at its offset and in any order; `FieldFile` reads them the same way, so
neither holds a history. An image's payload is its (nx, ny) values.

A file with any other header, an older version of the same format
included (a v2 field stored the ghosts too), a header line that is not
ASCII or does not end within ``HEADER_BYTES``, a header field that is
not a finite number or a count that is not positive, or a sinogram
header that describes no scan geometry, is a MissingInputError, and so
is a sinogram, an image or a field snapshot whose payload holds a value
that is not finite.
Every reader checks the payload size against the header before reading,
and a read that comes back short (a file cut after it was opened) is a
MismatchError. Every artifact is written through `open_artifact`: a file
that cannot be opened or written is a ConfigError.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .elastic import DisplacementHistory
from .errors import ConfigError, MismatchError, MissingInputError
from .grid import stored_nodes
from .projection import ScanGeometry, Sinogram
from .reconstruct import Image, ImageSpec

_F8 = np.dtype("<f8")
# a header is one ASCII line ending in "\n" within this many bytes (the
# longest one written is under 250)
HEADER_BYTES = 4096


def _fmt(x: float) -> str:
    return repr(float(x))


def _open(path: str, magic: str, converters: tuple):
    """(header fields, file positioned after the header line); the header
    must be ``magic`` followed by one field per converter: ``int`` for a
    count, which must be positive, or ``float``, which must be finite."""
    count = len(converters)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise MissingInputError(f"cannot open {path}: {exc}") from exc
    line = f.readline(HEADER_BYTES)
    if not line.endswith(b"\n") or not line.isascii():
        f.close()
        raise MissingInputError(f"{path}: corrupt header")
    parts = line[:-1].decode("ascii").split(" ")
    found = " ".join(parts[:2])
    if found != magic or len(parts) - 2 != count:
        f.close()
        # a prefix names the file's format; the rest may be a whole header line
        raise MissingInputError(
            f"{path}: expected a '{magic}' header with {count} fields, found '{found[:40]}' with {len(parts) - 2}"
        )
    try:
        fields = [convert(v) for convert, v in zip(converters, parts[2:])]
        bad = [v for convert, v in zip(converters, fields) if convert is int and v <= 0]
        if bad:
            raise ValueError(f"non-positive count {bad[0]}")
        bad = [v for v in fields if not np.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite value {bad[0]}")
    except ValueError as exc:
        f.close()
        raise MissingInputError(f"{path}: malformed '{magic}' header: {exc}") from exc
    return fields, f


def _check_payload(f, expected: int) -> None:
    """MismatchError unless exactly ``expected`` bytes follow the header."""
    size = os.fstat(f.fileno()).st_size - f.tell()
    if size != expected:
        raise MismatchError(f"{f.name}: payload is {size} bytes, expected {expected}")


def _fill(f, out: np.ndarray) -> np.ndarray:
    """Read the next ``out.nbytes`` bytes of ``f`` into ``out``."""
    if f.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise MismatchError(f"{f.name}: payload ends early")
    return out


def _check_finite(path: str, kind: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        bad = np.count_nonzero(~np.isfinite(values))
        raise MissingInputError(f"{path}: corrupt {kind}, {bad} of {values.size} values are not finite")


@contextlib.contextmanager
def open_artifact(path: str):
    """``path`` opened to write an artifact, for the ``with`` block; an
    OSError in the block, its open included, is a ConfigError naming the
    path and the OS reason."""
    try:
        with open(path, "wb") as f:
            yield f
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def write_sinogram(path: str, sino: Sinogram) -> None:
    g = sino.geometry
    header = (
        f"DYNACT-SINO v2 {g.num_angles} {g.num_detectors} "
        f"{_fmt(g.angle_start)} {_fmt(g.angle_end)} {_fmt(g.detector_min)} {_fmt(g.detector_max)} "
        f"{_fmt(g.time_offset)} {_fmt(g.time_scale)}\n"
    )
    with open_artifact(path) as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(sino.values, dtype=_F8).tobytes())


def read_sinogram(path: str) -> Sinogram:
    hdr, f = _open(path, "DYNACT-SINO v2", (int,) * 2 + (float,) * 6)
    with f:
        num_angles, num_detectors, angle_start, angle_end, det_min, det_max, time_offset, time_scale = hdr
        _check_payload(f, num_angles * num_detectors * 8)
        values = _fill(f, np.empty((num_angles, num_detectors), _F8))
    _check_finite(path, "sinogram", values)
    try:
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
    except ConfigError as exc:
        raise MissingInputError(f"{path}: malformed 'DYNACT-SINO v2' header: {exc}") from exc
    return Sinogram(geometry, values)


class FieldWriter:
    """The v3 file of a field on ``grid`` at ``times``, written a snapshot per
    ``write``; it carries ``times`` and ``num_steps``, as a history does. A
    ``with`` block that raises, or a header write that fails, deletes the
    file: no partial or stale field. The file is an `open_artifact`, so an
    OSError in the block is a ConfigError."""

    def __init__(self, path: str, grid, times):
        self.times = np.asarray(times, dtype=_F8)
        self.num_steps = len(self.times)
        self.artifact = open_artifact(path)
        self.file = self.artifact.__enter__()
        try:
            self.file.write("DYNACT-FIELD v3 {} {} {} {}\n".format(*grid.shape, self.num_steps, len(stored_nodes(grid.kind))).encode("ascii"))
            for values, dtype in ((grid.x_coords, _F8), (grid.y_coords, _F8), (grid.kind, np.uint8), (self.times, _F8)):
                self.file.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
            self.file.flush()
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        self.offset = self.file.tell()

    def write(self, k: int, rows: np.ndarray) -> None:
        """Snapshot k, (n_stored, 2) float64, written where `FieldFile.read` reads it."""
        buf = memoryview(np.ascontiguousarray(rows, dtype=_F8)).cast("B")
        if os.pwrite(self.file.fileno(), buf, self.offset + k * buf.nbytes) != buf.nbytes:
            raise OSError(f"{self.file.name}: short write of snapshot {k}")

    def __enter__(self) -> "FieldWriter":
        return self

    def __exit__(self, failed, *exc) -> None:
        try:
            self.artifact.__exit__(failed, *exc)  # closes the file
        finally:
            if failed is not None:
                os.remove(self.file.name)


def write_field(path: str, history: DisplacementHistory) -> None:
    """The v3 file of ``history``, whose fields are in stored-node form."""
    with FieldWriter(path, history.grid, history.times) as out:
        for k, rows in enumerate(history.fields):
            out.write(k, rows)


class FieldFile:
    """An open field file: the header arrays ``x``, ``y``, ``kind`` and
    ``times``, read at open, and ``read`` for the snapshots. With ``grid``,
    the file must be on that lattice and classification (MismatchError).
    """

    def __init__(self, path: str, grid=None):
        hdr, self.file = _open(path, "DYNACT-FIELD v3", (int,) * 4)
        nx, ny, k, self.n_stored = hdr
        try:
            _check_payload(self.file, (nx + ny) * 8 + nx * ny + k * (8 + 16 * self.n_stored))
            self.x = _fill(self.file, np.empty(nx, _F8))
            self.y = _fill(self.file, np.empty(ny, _F8))
            self.kind = _fill(self.file, np.empty((nx, ny), np.uint8))
            classified = len(stored_nodes(self.kind))
            if classified != self.n_stored:
                raise MismatchError(f"{path}: header stores {self.n_stored} nodes, the classification {classified}")
            if grid is not None and not all(map(np.array_equal, (self.x, self.y, self.kind), (grid.x_coords, grid.y_coords, grid.kind))):
                raise MismatchError(f"{path}: lattice {nx}x{ny} or its node classification does not match the solver grid")
            self.times = _fill(self.file, np.empty(k, _F8))
        except BaseException:
            self.file.close()
            raise
        self.grid = grid
        self.offset = self.file.tell()

    def read(self, k: int, out: np.ndarray) -> np.ndarray:
        """Snapshot k read into ``out``, a C-contiguous (n_stored, 2) float64
        array that the next read into it overwrites, and returned. The read
        is positional, so threads with buffers of their own read at once."""
        buf = memoryview(out).cast("B")
        if os.preadv(self.file.fileno(), [buf], self.offset + k * buf.nbytes) != buf.nbytes:
            raise MismatchError(f"{self.file.name}: payload ends before the end of snapshot {k}")
        _check_finite(self.file.name, f"field snapshot {k}", out)
        return out

    def __enter__(self) -> "FieldFile":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()


def read_field(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (x_coords, y_coords, kind, times, fields[K, nx, ny, 2]): the
    stored values on the whole lattice, with 0 at the exterior and ghost
    nodes. Each snapshot is read through one (n_stored, 2) buffer."""
    with FieldFile(path) as field:
        snapshot = np.empty((field.n_stored, 2), _F8)
        rows = stored_nodes(field.kind)
        fields = np.zeros((len(field.times), field.kind.size, 2))
        for k, lattice in enumerate(fields):
            lattice[rows] = field.read(k, snapshot)
    return field.x, field.y, field.kind, field.times, fields.reshape(len(field.times), *field.kind.shape, 2)


def write_image(path: str, img: Image) -> None:
    nx, ny = img.values.shape
    header = f"DYNACT-IMG v1 {nx} {ny} {_fmt(-1.0)} {_fmt(1.0)} {_fmt(-1.0)} {_fmt(1.0)}\n"
    with open_artifact(path) as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(img.values, dtype=_F8).tobytes())


def read_image(path: str) -> Image:
    hdr, f = _open(path, "DYNACT-IMG v1", (int,) * 2 + (float,) * 4)
    with f:
        nx, ny, *extent = hdr
        if extent != [-1.0, 1.0, -1.0, 1.0]:
            raise MismatchError(f"{path}: unsupported image extent {extent}")
        _check_payload(f, nx * ny * 8)
        values = _fill(f, np.empty((nx, ny), _F8))
    _check_finite(path, "image", values)
    return Image(ImageSpec(nx=nx, ny=ny), values)


def write_pgm(path: str, img: Image) -> None:
    """16-bit PGM with the min/max window recorded in the comment line."""
    vals = img.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    pix = np.round(scaled * 65535.0).astype(">u2")
    # PGM rows run top to bottom: row r shows y = y_max - r
    raster = pix[:, ::-1].T
    with open_artifact(path) as f:
        f.write(f"P5\n# window {_fmt(lo)} {_fmt(hi)}\n{raster.shape[1]} {raster.shape[0]}\n65535\n".encode("ascii"))
        f.write(raster.tobytes())


def require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise MissingInputError(f"required input file is missing: {path}")
    return path
