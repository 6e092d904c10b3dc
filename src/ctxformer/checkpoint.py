"""Flat binary array container with a plain-text sidecar manifest.

File layout (version 2, little-endian): 4-byte magic, uint32 format version,
uint32 record count, then one record per array: uint32 name length, utf-8
name, uint32 dtype code (0 float32, 1 float64, 2 int64), uint32 rank, uint32
extents, raw data in that dtype; then the uint32 CRC-32 of every byte before
it. Records keep their dtype; `save_arrays` refuses any other. The manifest
(`<path>.manifest`) lists `name dtype dim0xdim1x...` per line so checkpoints
can be inspected without this library.

Both files are written to `.NAME.PID.tmp` in the same directory and then
renamed over the target, so a write that fails midway leaves the previous
file in place. The rename is atomic, but nothing is fsynced: a power loss
can still lose the newest write. A killed write leaves its temporary file
behind; nothing reads it.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

MAGIC = b"CTXF"
VERSION = 2
DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("<i8"))  # indexed by a record's dtype code


@contextmanager
def _replacing(path: Path):
    """A binary file that replaces `path` when the block exits cleanly.

    On an exception before the rename the temporary file is removed and
    `path` is untouched; one raised after it (an interrupt) propagates as it
    is.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = open(tmp, "wb")
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, named: dict[str, np.ndarray]) -> None:
    path = Path(path)
    manifest_lines = []
    with _replacing(path) as out:
        chunk = MAGIC + struct.pack("<II", VERSION, len(named))
        out.write(chunk)
        crc = zlib.crc32(chunk)
        for name, arr in named.items():
            arr = np.asarray(arr)
            dtype = arr.dtype.newbyteorder("<")
            if dtype not in DTYPES:
                raise DataError(f"{path}: {name} is {arr.dtype}, not float32, float64 or int64")
            name_bytes = name.encode("utf-8")
            header = struct.pack(f"<I{len(name_bytes)}sII{arr.ndim}I", len(name_bytes),
                                 name_bytes, DTYPES.index(dtype), arr.ndim, *arr.shape)
            for chunk in (header, np.require(arr, dtype, "C")):  # C-ordered data goes out uncopied
                out.write(chunk)
                crc = zlib.crc32(chunk, crc)
            manifest_lines.append(f"{name} {dtype.name} {'x'.join(str(e) for e in arr.shape)}")
        out.write(struct.pack("<I", crc))
    with _replacing(Path(str(path) + ".manifest")) as out:
        out.write(("\n".join(manifest_lines) + "\n").encode("utf-8"))


SKIP_CHUNK = 1 << 20  # bytes of a skipped record read at a time


def load_arrays(path, skip: Optional[str] = None) -> dict[str, np.ndarray]:
    """Read a container; an unreadable, truncated, malformed or corrupt one
    raises DataError, and so does one that names a record twice.

    Every extent is checked against the file's size before it is read, and
    each record's data is read straight into its own array, so a load holds
    the file's contents once. Records whose names start with `skip` are left
    out: their data is read through the checksum in chunks of `SKIP_CHUNK`
    bytes and not kept, so a corrupt skipped record still raises.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read_records(path, f, skip)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_records(path: Path, f, skip: Optional[str]) -> dict[str, np.ndarray]:
    size = os.fstat(f.fileno()).st_size
    offset = 0
    crc = 0

    def need(n: int, what: str) -> None:
        if n > size - offset:
            raise DataError(
                f"{path}: truncated container: {what} needs {n} bytes at offset "
                f"{offset}, {size - offset} left"
            )

    def advance(n: int, got: int) -> None:
        nonlocal offset
        if got != n:
            raise DataError(f"{path}: truncated container: the file shrank while it was read")
        offset += n

    def take(n: int, what: str) -> bytes:
        nonlocal crc
        need(n, what)  # before reading what a corrupt length asks for
        chunk = f.read(n)
        advance(n, len(chunk))
        crc = zlib.crc32(chunk, crc)
        return chunk

    if take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a checkpoint container (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    out: dict[str, np.ndarray] = {}
    names = set()  # kept and skipped
    chunk = None  # the buffer skipped records are read through
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        start = offset
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: record name at offset {start} is not utf-8") from exc
        if name in names:
            raise DataError(f"{path}: record {name} appears twice")
        names.add(name)
        code, rank = struct.unpack("<II", take(8, f"dtype and rank of {name}"))
        if code >= len(DTYPES):
            raise DataError(f"{path}: record {name} has unknown dtype code {code}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name}"))
        n = DTYPES[code].itemsize * math.prod(shape)  # Python ints: corrupt extents cannot wrap
        need(n, f"data of {name}")  # before allocating, as in `take`
        if skip is not None and name.startswith(skip):
            if chunk is None:
                chunk = memoryview(bytearray(SKIP_CHUNK))
            for done in range(0, n, SKIP_CHUNK):
                part = chunk[: min(SKIP_CHUNK, n - done)]
                advance(len(part), f.readinto(part))
                crc = zlib.crc32(part, crc)
            continue
        try:
            arr = np.empty(shape, dtype=DTYPES[code])
        except ValueError as exc:  # too many axes, or a zero extent beside huge ones
            raise DataError(f"{path}: record {name} has an impossible shape {shape}") from exc
        advance(n, f.readinto(arr))
        crc = zlib.crc32(arr, crc)
        out[name] = arr
    expected = crc
    (stored,) = struct.unpack("<I", take(4, "checksum"))
    if offset != size:
        raise DataError(f"{path}: trailing bytes after the checksum")
    if stored != expected:
        raise DataError(f"{path}: checksum mismatch: the container is corrupt")
    return out
