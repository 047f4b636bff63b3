"""Atomic file writes, content hashing and envelope reads for artifact files."""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .errors import FormatError


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


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str | os.PathLike) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_envelope(path: str | os.PathLike, fmt: str, version: int, what: str) -> dict:
    """Parse a JSON artifact envelope: an object whose ``format`` is
    ``fmt`` and whose ``version`` is ``version``. ``what`` names the
    artifact in error messages. Anything else raises :class:`FormatError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != fmt:
        raise FormatError(f"{what} is not {fmt}: got format {doc.get('format')!r}")
    if doc.get("version") != version:
        raise FormatError(f"unsupported {what} version {doc.get('version')!r}")
    return doc


@contextmanager
def envelope_fields(what: str) -> Iterator[None]:
    """Report a missing or mistyped envelope field as :class:`FormatError`
    (``KeyError``, ``TypeError`` and ``ValueError`` raised inside)."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
