"""Binary checkpoint serialization.

Layout (little-endian): magic ``NUG1``, format version u32, 32-byte
config digest, then tensor records until EOF. Each record is name length
(u32), UTF-8 name, rank (u32), dims (u64 each), dtype tag (u8), raw
data. Dtype tags: 0 float32, 1 float64, 2 uint8, 3 int64. Readers reject
unknown versions and mismatched config digests.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"NUG1"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
               np.dtype(np.uint8): 2, np.dtype(np.int64): 3}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def config_digest(*configs) -> bytes:
    text = "|".join(repr(c) for c in configs)
    return hashlib.sha256(text.encode("utf-8")).digest()


def save_tensors(path, tensors: dict[str, np.ndarray], digest: bytes) -> None:
    """Write every record to a temporary file beside ``path``, then move it
    over ``path``: a save that fails leaves an earlier file there as it was
    and removes its temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(digest)
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                if arr.dtype not in _DTYPE_TAGS:
                    raise CheckpointError(f"checkpoint: unsupported dtype {arr.dtype} "
                                          f"for {name!r}")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<Q", dim))
                f.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_tensors(path, expected_digest: bytes | None = None) -> dict[str, np.ndarray]:
    """Read every tensor record, each from the file straight into its own
    owned, writable array."""
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"checkpoint: cannot read {path}: {exc}") from exc
    with f:
        size = os.fstat(f.fileno()).st_size

        def fits(n: int, what: str) -> int:
            # checked before reading, so a damaged length cannot ask for
            # more memory than the file holds
            if f.tell() + n > size:
                raise CheckpointError(f"checkpoint: truncated {what}")
            return n

        if f.read(4) != MAGIC:
            raise CheckpointError(f"checkpoint: bad magic in {path}")
        (version,) = struct.unpack("<I", f.read(fits(4, "header")))
        if version != VERSION:
            raise CheckpointError(f"checkpoint: unknown format version {version} "
                                  f"(reader supports {VERSION})")
        digest = f.read(fits(32, "header"))
        if expected_digest is not None and digest != expected_digest:
            raise CheckpointError("checkpoint: config digest mismatch "
                                  "(file was written with a different configuration)")
        tensors: dict[str, np.ndarray] = {}
        while f.tell() < size:
            record = f"record at offset {f.tell()}"
            (nlen,) = struct.unpack("<I", f.read(fits(4, record)))
            try:
                name = f.read(fits(nlen, record)).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"checkpoint: {record}: name is not UTF-8") from exc
            (rank,) = struct.unpack("<I", f.read(fits(4, record)))
            dims = struct.unpack(f"<{rank}Q", f.read(fits(8 * rank, record)))
            (tag,) = f.read(fits(1, record))
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise CheckpointError(f"checkpoint: unknown dtype tag {tag} for {name!r}")
            nbytes = fits(math.prod(dims) * dtype.itemsize, f"data for {name!r}")
            arr = np.empty(dims, dtype=dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CheckpointError(f"checkpoint: truncated data for {name!r}")
            tensors[name] = arr
    return tensors
