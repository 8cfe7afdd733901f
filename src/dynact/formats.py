"""Bit-exact binary artifact formats.

All payloads are little-endian IEEE float64 (classification is raw
bytes). A header is one ASCII line, ``<magic> key=value ...``, whose keys
are the fields of the dataclass the artifact carries, in order, and whose
floats are in shortest round-trip form, so identical data always produces
identical bytes: ``DYNACT-SINO v3`` carries a `ScanGeometry`,
``DYNACT-FIELD v4`` a `_FieldHeader` and ``DYNACT-IMG v2`` an `ImageSpec`.

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

A file with another magic or version (older versions had positional
headers), a header line that is not ASCII or does not end within
``HEADER_BYTES``, a header `_open` rejects, or a sinogram, an image or a
field snapshot with a value that is not finite is a MissingInputError.
Every reader checks the payload size against the header before reading,
and a read that comes back short (a file cut after it was opened) is a
MismatchError. Every artifact is written through `open_artifact`: a file
that cannot be opened or written is a ConfigError.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .elastic import DisplacementHistory
from .errors import ConfigError, MismatchError, MissingInputError
from .grid import stored_nodes
from .projection import ScanGeometry, Sinogram
from .reconstruct import Image, ImageSpec

_F8 = np.dtype("<f8")
# a header is one ASCII line ending in "\n" within this many bytes; a
# sinogram's is the longest: 174 at the shipped config, under 300 at worst
HEADER_BYTES = 4096
SINO, FIELD, IMG = "DYNACT-SINO v3", "DYNACT-FIELD v4", "DYNACT-IMG v2"


@dataclass(frozen=True)
class _FieldHeader:
    nx: int
    ny: int
    num_snapshots: int
    n_stored: int


@functools.cache
def _keys(cls) -> dict:
    """Field name -> ``int`` or ``float`` of the dataclass ``cls``, in order."""
    return {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}


def _header(magic: str, spec) -> bytes:
    """The header line of ``spec``, a dataclass of int and float fields."""
    items = (f"{name}={convert(getattr(spec, name))!r}" for name, convert in _keys(type(spec)).items())
    return " ".join((magic, *items)).encode("ascii") + b"\n"


def _values(tokens: list[str], types: dict) -> dict:
    """The ``key=value`` tokens as a dict. The keys must be those of
    ``types`` in order, a count positive and a float finite; the
    ValueError names the first key that is not (a token without ``=`` is
    a key without a value)."""
    pairs = [token.partition("=")[::2] for token in tokens]
    names = [name for name, _ in pairs]
    for key in [*names, *types]:
        if key not in types or names.count(key) != 1:
            raise ValueError(f"{'unknown' if key not in types else 'missing' if key not in names else 'repeated'} key {key!r}")
    if names != list(types):
        raise ValueError(f"keys out of order: {' '.join(names)}")
    values = {}
    for name, text in pairs:
        try:
            v = values[name] = types[name](text)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if types[name] is int and v <= 0:
            raise ValueError(f"{name}: non-positive count {v}")
        if types[name] is float and not np.isfinite(v):
            raise ValueError(f"{name}: non-finite value {v}")
    return values


def _open(path: str, magic: str, cls):
    """(``cls(**header values)``, file positioned after the header line);
    the keys must be the fields of ``cls`` (`_values`)."""
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
    if found != magic:
        f.close()
        # a prefix names the file's format; the rest may be a whole header line
        raise MissingInputError(f"{path}: expected a '{magic}' header, found '{found[:40]}'")
    try:
        spec = cls(**_values(parts[2:], _keys(cls)))
    except (ValueError, ConfigError) as exc:
        f.close()
        raise MissingInputError(f"{path}: malformed '{magic}' header: {exc}") from exc
    return spec, f


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
    with open_artifact(path) as f:
        f.write(_header(SINO, sino.geometry))
        f.write(np.ascontiguousarray(sino.values, dtype=_F8).tobytes())


def read_sinogram(path: str) -> Sinogram:
    geometry, f = _open(path, SINO, ScanGeometry)
    with f:
        _check_payload(f, geometry.num_angles * geometry.num_detectors * 8)
        values = _fill(f, np.empty((geometry.num_angles, geometry.num_detectors), _F8))
    _check_finite(path, "sinogram", values)
    return Sinogram(geometry, values)


class FieldWriter(contextlib.AbstractContextManager):
    """The v4 file of a field on ``grid`` at ``times``, written a snapshot per
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
            self.file.write(_header(FIELD, _FieldHeader(*grid.shape, self.num_steps, len(stored_nodes(grid.kind)))))
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

    def __exit__(self, failed, *exc) -> None:
        try:
            self.artifact.__exit__(failed, *exc)  # closes the file
        finally:
            if failed is not None:
                os.remove(self.file.name)


def write_field(path: str, history: DisplacementHistory) -> None:
    """The v4 file of ``history``, whose fields are in stored-node form."""
    with FieldWriter(path, history.grid, history.times) as out:
        for k, rows in enumerate(history.fields):
            out.write(k, rows)


class FieldFile(contextlib.AbstractContextManager):
    """An open field file: the header arrays ``x``, ``y``, ``kind`` and
    ``times``, read at open, and ``read`` for the snapshots. With ``grid``,
    the file must be on that lattice and classification (MismatchError).
    """

    def __init__(self, path: str, grid=None):
        header, self.file = _open(path, FIELD, _FieldHeader)
        nx, ny, k, self.n_stored = astuple(header)
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
    with open_artifact(path) as f:
        f.write(_header(IMG, img.spec))
        f.write(np.ascontiguousarray(img.values, dtype=_F8).tobytes())


def read_image(path: str) -> Image:
    spec, f = _open(path, IMG, ImageSpec)
    with f:
        _check_payload(f, spec.nx * spec.ny * 8)
        values = _fill(f, np.empty((spec.nx, spec.ny), _F8))
    _check_finite(path, "image", values)
    return Image(spec, values)


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
        f.write(f"P5\n# window {lo!r} {hi!r}\n{raster.shape[1]} {raster.shape[0]}\n65535\n".encode("ascii"))
        f.write(raster.tobytes())


def require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise MissingInputError(f"required input file is missing: {path}")
    return path
