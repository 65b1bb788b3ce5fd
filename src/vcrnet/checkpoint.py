"""Flat binary container for named arrays (model weights, object features).

Layout, all integers little-endian:

    magic     8 bytes  b"CANCKPT1"
    version   u32      currently 1
    count     u32      number of entries
    entry*    count times:
        name_len  u16
        name      UTF-8 bytes
        dtype     u8   0 = float32, 1 = float64, 2 = uint8 (a `bytes` value)
        rank      u8
        extents   u32 per axis
        payload   row-major little-endian items

Entries round-trip bitwise and keep their order, so identical inputs give
identical files. Files are written atomically (`write_atomic`).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Dict

import numpy as np

MAGIC = b"CANCKPT1"
VERSION = 1

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}


class CheckpointError(ValueError):
    """Raised when a container file is malformed or truncated."""


def write_checkpoint(path, entries: Dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(entries))]
    for name, arr in entries.items():
        arr = np.frombuffer(arr, np.uint8) if isinstance(arr, bytes) else np.asarray(arr)
        tag = next((t for t, dtype in _DTYPE_TAGS.items() if arr.dtype == dtype), None)
        if tag is None:
            raise CheckpointError(f"entry {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"entry name too long ({len(encoded)} bytes)")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"entry {name!r} has rank {arr.ndim} > 255")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", tag, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr).tobytes())
    write_atomic(path, b"".join(chunks))


def write_atomic(path, payload: bytes) -> None:
    """Write `payload` to a temp file beside `path`, then rename it over `path`.

    A write that fails part way leaves any previous file at `path` as it was
    and removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> Dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"truncated container {path} at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(MAGIC))) != MAGIC:
        raise CheckpointError(f"{path} is not a parameter container (bad magic)")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise CheckpointError(f"{path} has unsupported container version {version}")

    entries: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path} has an entry name at byte {pos - name_len} that is not UTF-8: {exc}"
            ) from exc
        if name in entries:
            raise CheckpointError(f"{path} has entry {name!r} twice")
        tag, rank = struct.unpack("<BB", take(2))
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path} entry {name!r} has unknown dtype tag {tag}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        dtype = _DTYPE_TAGS[tag]
        n_items = math.prod(shape)  # a Python int: oversized extents read as truncation
        data = np.frombuffer(take(n_items * dtype.itemsize), dtype=dtype)
        # an empty entry passes `take` whatever its other extents; numpy
        # still refuses a shape whose nonzero extents span more bytes than
        # an index can address
        if math.prod(e for e in shape if e) * dtype.itemsize > np.iinfo(np.intp).max:
            raise CheckpointError(f"{path} entry {name!r} has shape {shape}, too large for an array")
        entries[name] = data.reshape(shape).copy()
    if pos != len(view):
        raise CheckpointError(f"{path} has {len(view) - pos} trailing bytes")
    return entries
