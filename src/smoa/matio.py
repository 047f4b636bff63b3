"""Matrix file formats.

Binary format (SMOA-MAT v1): magic bytes ``SMOA-MAT``, one version byte
0x01, two unsigned 64-bit little-endian dimensions (rows, cols), then
rows*cols little-endian float64 entries in row-major order.

Text format: first line ``rows,cols``, then one comma-separated line per
matrix row using the shortest decimal rendering that round-trips the
double exactly.

Both formats round-trip finite doubles bit for bit; a file holding a NaN
or infinite entry is a :class:`FormatError`.

A (K, m, n) stack of blocks, such as an adapter's A or B factors, is
stored as one (K*m) x n binary matrix whose rows k*m .. (k+1)*m hold
block k.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError
from .fileutil import atomic_write_bytes, csv_text, sha256_bytes
from .matrices import Matrix

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "save_matrix",
    "load_matrix",
    "matrix_to_csv",
    "matrix_from_csv",
    "matrix_digest",
]

MAGIC = b"SMOA-MAT"
VERSION = 1
_HEADER = struct.Struct("<8sBQQ")


def _check_finite(data: np.ndarray) -> None:
    """A stored NaN or infinity is a damaged file, not a failed computation."""
    if not np.isfinite(data).all():
        raise FormatError("matrix entries must be finite")


def encode_matrix(m: Matrix) -> bytes:
    header = _HEADER.pack(MAGIC, VERSION, m.rows, m.cols)
    return header + m.data.astype("<f8", copy=False).tobytes(order="C")


def decode_matrix(payload: bytes) -> Matrix:
    if len(payload) < _HEADER.size:
        raise FormatError(f"truncated header: {len(payload)} bytes")
    magic, version, rows, cols = _HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    body = payload[_HEADER.size:]
    expected = rows * cols * 8
    if len(body) != expected:
        raise FormatError(
            f"payload holds {len(body)} bytes, expected {expected} for {rows}x{cols}"
        )
    data = np.frombuffer(body, dtype="<f8").reshape(rows, cols)
    _check_finite(data)
    return Matrix(data)


def save_matrix(m: Matrix, path: str | os.PathLike) -> bytes:
    """Write ``m`` and return the bytes written, for the caller to hash."""
    payload = encode_matrix(m)
    atomic_write_bytes(path, payload)
    return payload


def load_matrix(path: str | os.PathLike) -> Matrix:
    with open(path, "rb") as handle:
        return decode_matrix(handle.read())


def _encode_stack(stack: np.ndarray) -> bytes:
    """A (K, m, n) stack encoded as one (K*m) x n matrix."""
    k, m, n = stack.shape
    return encode_matrix(Matrix(stack.reshape(k * m, n)))


def _decode_stack(path: str | os.PathLike, payload: bytes, k: int) -> np.ndarray:
    """The (K, m, n) stack held by matrix bytes read from ``path``; K divides the rows."""
    matrix = decode_matrix(payload)
    if matrix.rows % k:
        raise FormatError(f"{path} holds {matrix.rows} rows, not a stack of {k} equal blocks")
    return matrix.data.reshape(k, matrix.rows // k, matrix.cols)


def matrix_to_csv(m: Matrix) -> str:
    return csv_text([m.shape, *m.data.tolist()])


def matrix_from_csv(text: str) -> Matrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    try:
        rows, cols = (int(tok) for tok in lines[0].split(","))
    except ValueError as exc:
        raise FormatError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise FormatError(f"header says {rows} rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        toks = line.split(",")
        if len(toks) != cols:
            raise FormatError(f"row {i} holds {len(toks)} entries, expected {cols}")
        try:
            data[i] = [float(tok) for tok in toks]
        except ValueError as exc:
            raise FormatError(f"row {i} holds a non-numeric entry") from exc
    _check_finite(data)
    return Matrix(data)


def matrix_digest(m: Matrix) -> str:
    """Content hash of the canonical binary encoding."""
    return sha256_bytes(encode_matrix(m))
