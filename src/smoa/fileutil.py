"""Atomic file writes, content hashing, the text codec for artifact files,
one exact-type reader for their fields and the one pin rule.

Every JSON artifact is written with indent 1 and sorted keys, and every
CSV float cell is the shortest decimal that parses back to the same
double. No NaN or infinity is ever rendered: JSON allows neither, so a
non-finite number bound for a file or stdout is a :class:`NumericalError`
and nothing is written, and a JSON document holding ``NaN`` or
``Infinity`` is a :class:`FormatError` on read.

The pin rule: an artifact names each file it depends on by ``{"path": <relative
to the artifact>, "hash": <sha256 of the bytes>}``, hashed from the bytes written or
read; :func:`read_pinned` reads a pinned file once and checks those same bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, NumericalError


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename.

    Readers never observe a partially written artifact.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(doc, what: str, indent: int | None = None) -> str:
    """``doc`` as JSON with sorted keys and a final newline, the one JSON
    renderer of files and the CLI's stdout line; a NaN or infinity in it is
    a :class:`NumericalError` naming ``what``, the text being written."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{what} would hold a non-finite number: {exc}") from exc


def write_json(path: str | os.PathLike, doc) -> bytes:
    """Write ``doc`` and return the bytes written, for the caller to hash."""
    payload = json_text(doc, f"JSON file {path}", indent=1).encode("utf-8")
    atomic_write_bytes(path, payload)
    return payload


def csv_text(rows, what: str = "CSV text") -> str:
    """One comma-joined line per row; floats (numpy scalars included)
    render as ``repr(float(x))``, anything else as ``str(x)``. A NaN or
    infinite float is a :class:`NumericalError` naming ``what``."""
    return "".join(
        ",".join(repr(float(x)) if isinstance(x, (float, np.floating)) and math.isfinite(x)
                 else _other_cell(x, what) for x in row) + "\n"
        for row in rows
    )


def _other_cell(x, what: str) -> str:
    """``str(x)`` for a CSV cell that is not a float; a non-finite float is refused."""
    if isinstance(x, (float, np.floating)):
        raise NumericalError(f"{what} would hold the non-finite number {float(x)!r}")
    return str(x)


def write_csv(path: str | os.PathLike, header, rows) -> None:
    atomic_write_text(path, csv_text([header, *rows], f"CSV file {path}"))


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str | os.PathLike) -> str:
    return sha256_bytes(Path(path).read_bytes())


def read_json(payload: bytes, what: str) -> dict:
    """Parse strict UTF-8 bytes holding one JSON object; ``what`` names them
    in error messages. Anything else, ``NaN`` and ``Infinity`` included,
    raises :class:`FormatError`."""
    try:
        doc = json.loads(payload.decode("utf-8"), parse_constant=_refuse_constant)
    except ValueError as exc:  # JSONDecodeError, a non-finite literal, or bytes that are not UTF-8
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def field(doc: dict, key: str, kind: type, what: str, item: type | None = None):
    """``doc[key]`` when its JSON type is exactly ``kind`` and, given
    ``item``, every entry of the list is exactly ``item``: a bool is not an
    int, a float is not an int, a string is not a list. A missing or
    mistyped field, or a ``doc`` that is no JSON object, raises
    :class:`FormatError` naming ``what`` and ``key``."""
    if type(doc) is not dict or key not in doc:
        raise FormatError(f"{what} is missing field {key!r}")
    value = doc[key]
    if type(value) is not kind or (item is not None and any(type(x) is not item for x in value)):
        wanted = kind.__name__ if item is None else f"list of {item.__name__}"
        raise FormatError(f"{what} field {key!r} is not a JSON {wanted}")
    return value


def read_envelope(payload: bytes, fmt: str, version: int, what: str) -> dict:
    """Parse a JSON artifact envelope: an object whose ``format`` is
    ``fmt`` and whose ``version`` is the JSON integer ``version``. Anything
    else raises :class:`FormatError`.
    """
    doc = read_json(payload, what)
    if field(doc, "format", str, what) != fmt:
        raise FormatError(f"{what} is not {fmt}: got format {doc['format']!r}")
    if field(doc, "version", int, what) != version:
        raise FormatError(f"unsupported {what} version {doc['version']!r}")
    return doc


def pin(path: str | os.PathLike, digest: str, directory: str | os.PathLike) -> dict:
    """The pin by which an artifact in ``directory`` names ``path``, whose bytes hash to ``digest``."""
    return {"path": os.path.relpath(path, directory), "hash": digest}


def read_pinned(doc: dict, key: str, directory: Path, what: str) -> tuple[Path, bytes, str]:
    """The path, bytes and hash of the file that ``doc[key]`` pins, read once; bytes
    whose hash is not the recorded one are a stale pairing (:class:`ConfigurationError`)."""
    entry, label = field(doc, key, dict, what), f"{what} pin {key!r}"
    path = directory / field(entry, "path", str, label)
    recorded, payload = field(entry, "hash", str, label), path.read_bytes()
    if (current := sha256_bytes(payload)) != recorded:
        raise ConfigurationError(f"stale pairing: {key} {path} hash {current[:12]}... does "
                                 f"not match the {recorded[:12]}... recorded in {what}")
    return path, payload, current


@contextmanager
def envelope_fields(what: str) -> Iterator[None]:
    """Report a missing, mistyped or out-of-range envelope field as
    :class:`FormatError` (``KeyError``, ``TypeError``, ``ValueError`` and
    ``OverflowError`` raised inside)."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
