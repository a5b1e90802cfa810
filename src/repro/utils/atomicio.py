"""Atomic, checksum-verified JSON file IO.

The sweep trace cache (and any other on-disk state the library keeps) must
survive the failure modes real infrastructure exhibits: a process killed
mid-write leaves a truncated file, a flaky disk or concurrent writer can
corrupt bytes in place, and a partially synced directory can expose a file
that parses but carries the wrong content. Two invariants defend against
all of them:

- **Atomic visibility.** :func:`write_json_atomic` serializes the whole
  document in memory, writes it to a temporary sibling unique to the
  calling process and thread, and ``os.replace``\\ s it into place, so a
  reader never observes a half-written document — it sees the old file,
  the new file, or no file.
- **End-to-end integrity.** Documents are wrapped as
  ``{"sha256": <hexdigest>, "payload": <document>}`` where the digest is
  taken over the canonical JSON encoding of the payload.
  :func:`read_json_checked` recomputes and compares it, raising
  :class:`~repro.exceptions.CacheIntegrityError` on any malformed,
  truncated, or bit-flipped file instead of returning poisoned data.

Legacy documents written before checksumming (bare payloads with no
wrapper) are still readable: they parse, carry no digest, and are returned
as-is — callers that require integrity can reject them via
``require_checksum=True``.

:func:`load_cache_entry` is the read side every on-disk result cache
shares: read, verify, apply the caller's shape check, and delete the file
when any of them fails so the recomputed entry is written cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Callable, Dict, Optional

from repro.exceptions import CacheIntegrityError

__all__ = [
    "CHECKSUM_KEY",
    "PAYLOAD_KEY",
    "payload_checksum",
    "write_json_atomic",
    "read_json_checked",
    "load_cache_entry",
]

#: Wrapper field holding the hex digest of the canonical payload encoding.
CHECKSUM_KEY = "sha256"
#: Wrapper field holding the document itself.
PAYLOAD_KEY = "payload"


def _canonical(payload: Any) -> str:
    """The canonical JSON encoding the checksum is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON encoding."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def write_json_atomic(path: str, payload: Any, checksum: bool = True) -> str:
    """Write ``payload`` as JSON to ``path`` atomically; return ``path``.

    With ``checksum=True`` (the default) the document is wrapped as
    ``{"sha256": ..., "payload": ...}`` so :func:`read_json_checked` can
    verify it end-to-end. The document is encoded once, in memory, before
    any file is opened, so a payload that cannot be serialized leaves
    nothing on disk. It lands in a temporary sibling named for the calling
    process and thread, so no two writers share one, and is renamed into
    place: readers never see a partial file, and concurrent writers of one
    path leave the last one's complete document. A failed write or rename
    removes its temporary file before the error propagates.
    """
    document: Any = payload
    if checksum:
        document = {CHECKSUM_KEY: payload_checksum(payload), PAYLOAD_KEY: payload}
    text = json.dumps(document)
    tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    return path


def _is_wrapped(document: Any) -> bool:
    return (
        isinstance(document, dict)
        and set(document) == {CHECKSUM_KEY, PAYLOAD_KEY}
        and isinstance(document.get(CHECKSUM_KEY), str)
    )


def read_json_checked(path: str, require_checksum: bool = False) -> Any:
    """Read a JSON document from ``path``, verifying its checksum wrapper.

    Raises
    ------
    CacheIntegrityError
        If the file is unreadable, is not valid JSON (e.g. truncated by a
        killed writer), carries a checksum that does not match its payload
        (bit-flip / in-place corruption), or — with
        ``require_checksum=True`` — lacks a checksum wrapper entirely.

    Returns
    -------
    The unwrapped payload for checksummed documents; the raw document for
    legacy unwrapped files (when ``require_checksum`` is off).
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CacheIntegrityError(f"cannot read {path}: {exc}") from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheIntegrityError(
            f"malformed JSON in {path} (truncated or corrupted write): {exc}"
        ) from exc
    if not _is_wrapped(document):
        if require_checksum:
            raise CacheIntegrityError(f"{path} has no integrity checksum")
        return document
    expected = document[CHECKSUM_KEY]
    actual = payload_checksum(document[PAYLOAD_KEY])
    if actual != expected:
        raise CacheIntegrityError(
            f"checksum mismatch in {path}: stored {expected[:12]}…, "
            f"recomputed {actual[:12]}… (corrupted entry)"
        )
    return document[PAYLOAD_KEY]


def read_json_dict_checked(path: str, require_checksum: bool = False) -> Dict:
    """:func:`read_json_checked` that additionally requires a JSON object."""
    payload = read_json_checked(path, require_checksum=require_checksum)
    if not isinstance(payload, dict):
        raise CacheIntegrityError(
            f"{path} holds a {type(payload).__name__}, expected a JSON object"
        )
    return payload


def load_cache_entry(path: str, is_valid: Callable[[Any], bool]) -> Optional[Any]:
    """Read one cache entry; ``None`` means corrupt or invalid (recompute).

    Never raises on bad content: an unreadable or truncated file, a
    checksum mismatch, and a payload ``is_valid`` rejects all read as a
    miss, and the damaged file is removed so the rewrite is clean.
    ``is_valid`` is the cache's shape check; it may normalize the payload
    in place (e.g. decode arrays) before accepting it.
    """
    try:
        payload = read_json_checked(path)
    except CacheIntegrityError:
        payload = None
    if payload is None or not is_valid(payload):
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    return payload
