"""Flat binary tensor container with a plain-text sidecar manifest.

File layout: 4-byte magic, uint32 format version, uint32 record count,
then one record per tensor: uint32 name length, utf-8 name, uint32 rank,
uint32 extents, raw little-endian float32 data. The manifest (written next
to the container as `<path>.manifest`) lists `name dim0xdim1x...` per line
so checkpoints can be inspected without this library.

Both files are written to a temporary file in the same directory and then
renamed over the target, so a write that fails midway leaves the previous
file in place. The rename is atomic, but nothing is fsynced: a power loss
can still lose the newest write.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"CTXF"
VERSION = 1


@contextmanager
def _replacing(path: Path):
    """A binary file that replaces `path` when the block exits cleanly.

    On an exception the temporary file is removed and `path` is untouched.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = open(tmp, "wb")
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_arrays(path, named: dict[str, np.ndarray]) -> None:
    path = Path(path)
    manifest_lines = []
    with _replacing(path) as out:
        out.write(MAGIC + struct.pack("<II", VERSION, len(named)))
        for name, arr in named.items():
            arr32 = np.asarray(arr, dtype="<f4")  # keeps a 0-d array 0-d
            name_bytes = name.encode("utf-8")
            header = struct.pack(f"<I{len(name_bytes)}sI{arr32.ndim}I", len(name_bytes),
                                 name_bytes, arr32.ndim, *arr32.shape)
            out.write(header + arr32.tobytes())
            manifest_lines.append(f"{name} {'x'.join(str(e) for e in arr32.shape)}")
    with _replacing(Path(str(path) + ".manifest")) as out:
        out.write(("\n".join(manifest_lines) + "\n").encode("utf-8"))


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a container; an unreadable, truncated or malformed one raises
    DataError.

    Every extent is checked against the file's size before it is read, and
    each record's data is read straight into its own array, so a load holds
    the file's contents once.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read_records(path, f)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_records(path: Path, f) -> dict[str, np.ndarray]:
    size = os.fstat(f.fileno()).st_size
    offset = 0

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
        need(n, what)  # before reading what a corrupt length asks for
        chunk = f.read(n)
        advance(n, len(chunk))
        return chunk

    if take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a checkpoint container (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        start = offset
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: record name at offset {start} is not utf-8") from exc
        (rank,) = struct.unpack("<I", take(4, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name}"))
        n = math.prod(shape)  # a Python int: corrupt extents cannot wrap around
        need(4 * n, f"data of {name}")  # before allocating, as in `take`
        arr = np.empty(shape, dtype="<f4")
        advance(4 * n, f.readinto(arr))
        out[name] = arr
    if offset != size:
        raise DataError(f"{path}: trailing bytes after last record")
    return out
