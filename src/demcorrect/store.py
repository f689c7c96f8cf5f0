"""The grid store: ``out/grids/v1/<sha256>.npy`` holds the parsed values
of any ESRI ASCII file with that sha256 (laid out as :func:`_npy_header`
says), and ``<sha256>.sha256`` the copy's own sha256. Deleting them is
always safe. :func:`read_grid` is the steps' one read of an ASCII grid,
and :class:`GridWriter` their one write of one, with its copy."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np

from .grid import (GridGeometry, GridParseError, _naming, _read_header, ascii_header,
                   ascii_rows, load_grid)

COPIES = Path("grids", "v1")


def sha256_file(path: Path) -> str:
    """The sha256 of the file ``path``, read 1 MiB at a time into one buffer."""
    digest = hashlib.sha256()
    chunk = memoryview(bytearray(1 << 20))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            digest.update(chunk[:size])
    return digest.hexdigest()


class PartialFiles(contextlib.AbstractContextManager):
    """Files written under temporary ``<name>.partial`` names, which take
    their own names when the ``with`` block ends without an exception and
    are removed otherwise. So a refused write leaves no new file, and an
    earlier run's files stay as they were. Files written under their own
    names may be :meth:`adopt` ed, to be removed with the others."""

    def __init__(self):
        self._opened: list = []  # [path, its temporary path, file]
        self._adopted: list = []

    def open(self, path: Path, *args, **kwargs):
        """``open`` the temporary file that is to take the name ``path``."""
        partial = path.with_name(path.name + ".partial")
        self._opened.append([path, partial, open(partial, *args, **kwargs)])
        return self._opened[-1][2]

    def rename(self, fh, path: Path) -> None:
        """Have the file that ``fh`` writes take the name ``path`` instead."""
        next(entry for entry in self._opened if entry[2] is fh)[0] = path

    def adopt(self, *paths: Path) -> None:
        """Have the files ``paths``, written under their own names, removed
        if the temporary files are."""
        self._adopted.extend(paths)

    def __exit__(self, exc_type, *exc) -> None:
        for *_, fh in self._opened:
            fh.close()
        named = False
        try:
            if exc_type is None:
                for path, partial, _ in self._opened:
                    os.replace(partial, path)
                named = True
        finally:  # after a refused write, or a name that cannot be replaced
            for _, partial, _ in self._opened:
                partial.unlink(missing_ok=True)
            for path in self._adopted if not named else ():
                path.unlink(missing_ok=True)


def _npy_header(shape: tuple) -> bytes:
    """The .npy (version 1.0) header of a little-endian float64 C-order
    array of ``shape``, the layout of every binary copy."""
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return fh.getvalue()


class CopyWriter:
    """One binary copy under ``out/grids/v1``, written into ``files``
    (:class:`PartialFiles`) as ``<stem>.npy``: the header of ``shape``,
    then each block of rows, top to bottom, exactly as given, hashed as it
    is written. :meth:`finish` names it, and its record, by the sha256 of
    the ASCII file it copies."""

    def __init__(self, files: PartialFiles, out: Path, stem: str, shape: tuple):
        self._files, self._dir, self._stem = files, out / COPIES, stem
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fh = files.open(self._dir / f"{stem}.npy", "wb")
        self._fh.write(header := _npy_header(shape))
        self._digest = hashlib.sha256(header)

    def write(self, rows: np.ndarray) -> None:
        data = np.ascontiguousarray(rows, dtype="<f8").data
        self._fh.write(data)
        self._digest.update(data)

    def finish(self, sha256: str) -> None:
        npy = self._dir / f"{sha256}.npy"
        record = self._files.open(self._dir / f"{self._stem}.sha256", "w")
        record.write(self._digest.hexdigest() + "\n")
        self._files.rename(self._fh, npy)
        self._files.rename(record, npy.with_suffix(".sha256"))


class GridWriter:
    """The ESRI ASCII file ``path`` of ``geometry`` and ``nodata``, written
    into ``files`` (:class:`PartialFiles`, which holds no writer) a block of
    rows at a time, top to bottom, and hashed as written: ``sha256`` once
    the last row is in. Given ``copy``, the file's binary copy in the store
    beside it (:class:`CopyWriter`) is written from the same blocks and
    named by that sha256."""

    def __init__(self, files: PartialFiles, path: Path, geometry: GridGeometry,
                 nodata: float, copy: bool = False):
        self._fh = files.open(path, "wb")
        self._fh.write(header := ascii_header(geometry, nodata).encode())
        self._digest = hashlib.sha256(header)
        self._left, self.sha256 = geometry.nrows, None
        self._copy = CopyWriter(files, path.parent, path.stem,
                                (geometry.nrows, geometry.ncols)) if copy else None

    def write(self, rows: np.ndarray) -> None:
        if self._copy is not None:
            # -0.0 is written as "0", which parses to 0.0; a block without
            # one, as most are, is copied without a temporary
            self._copy.write(rows + 0.0 if (np.signbit(rows) & (rows == 0)).any() else rows)
        self._fh.write(text := ascii_rows(rows))
        self._digest.update(text)
        self._left -= len(rows)
        if not self._left:
            self.sha256 = self._digest.hexdigest()
            if self._copy is not None:
                self._copy.finish(self.sha256)


def _npy_start(path: Path, shape: tuple) -> int | None:
    """Where the data of the binary copy ``path`` start, or None unless it
    has the sha256 recorded beside it and holds the header of ``shape``
    (:func:`_npy_header`), then that shape's float64 values, and no more."""
    header = _npy_header(shape)
    try:
        recorded = path.with_suffix(".sha256").read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):  # no record, or none that was written here
        return None
    if not path.is_file() or path.stat().st_size != len(header) + 8 * math.prod(shape) \
            or sha256_file(path) != recorded:
        return None
    with open(path, "rb") as fh:
        return len(header) if fh.read(len(header)) == header else None


class Slab:
    """A checked binary copy (:func:`_npy_start`), read a block of rows at
    a time (a :class:`~demcorrect.grid.GridRows`). ``rows`` reads the block
    into a buffer that the next call reuses, which ``GridRows`` does not
    allow: no caller of a ``Slab`` keeps a block past the next call. The
    file is not mapped: ``ru_maxrss`` counts every page a map touches."""

    def __init__(self, path: Path, offset: int, geometry: GridGeometry, nodata: float):
        self.path, self._offset, self.geometry, self.nodata = path, offset, geometry, nodata
        self.ncols, self.nrows, self.xll, self.yll, self.cellsize = \
            geometry.ncols, geometry.nrows, geometry.xll, geometry.yll, geometry.cellsize
        self._buffer = np.empty(0, dtype="<f8")

    def rows(self, start: int, stop: int) -> np.ndarray:
        size = (stop - start) * self.ncols
        if self._buffer.size < size:
            self._buffer = np.empty(size, dtype="<f8")
        block = self._buffer[:size]
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + start * self.ncols * 8)
            if fh.readinto(block) != block.nbytes:
                raise GridParseError(None, "changed while it was read", self.path)
        return block.reshape(stop - start, self.ncols)


def read_header(path: Path) -> tuple[GridGeometry, float]:
    """The geometry and nodata sentinel of the ESRI ASCII file ``path``,
    from its header alone; refusals name the file."""
    with _naming(path), open(path, "r", encoding="ascii") as fh:
        return _read_header(fh)


def read_grid(path: Path, out: Path, copies: PartialFiles | None = None) -> Slab:
    """The grid of the ESRI ASCII file ``path``, bit-identical to parsing
    it, as a :class:`Slab`: of the copy named by its sha256 if that passes
    :func:`_npy_start`, or else of the copy written as the file is parsed a
    block of rows at a time, unless its sha256 changed meanwhile. The
    geometry, the nodata sentinel and every refusal come from the file; a
    refused file gets no copy. Given ``copies``, a copy written here is
    :meth:`~PartialFiles.adopt` ed by it, and so removed if its files are."""
    digest = sha256_file(path)
    geometry, nodata = read_header(path)
    shape = (geometry.nrows, geometry.ncols)
    npy = out / COPIES / f"{digest}.npy"
    start = _npy_start(npy, shape)
    if start is None:
        with PartialFiles() as written:
            copy = CopyWriter(written, out, digest, shape)
            load_grid(path, lambda first, rows: copy.write(rows))
            if sha256_file(path) != digest:
                raise GridParseError(None, "changed while it was read", path)
            copy.finish(digest)
        if copies is not None:
            copies.adopt(npy, npy.with_suffix(".sha256"))
        start = len(_npy_header(shape))
    return Slab(npy, start, geometry, nodata)
