"""Canonical byte encoding for hashable ledger structures.

Hashing a transaction or block requires a byte representation that every
node computes identically.  ``canonical_encode`` serialises a restricted
JSON-like value space (``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``/``tuple``, ``dict`` with string keys) into an
unambiguous, sorted, length-prefixed byte string.

The encoding is injective on its domain: distinct values never encode to
the same bytes, because every atom carries a type tag and a length
prefix, and containers encode their size.
"""

from __future__ import annotations

from typing import Any

__all__ = ["canonical_encode", "EncodingError"]


class EncodingError(TypeError):
    """Raised when a value is outside the canonical-encodable domain."""


def _frame(tag: bytes, body: bytes) -> bytes:
    return tag + len(body).to_bytes(8, "big") + body


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Raises
    ------
    EncodingError
        For unsupported types (including dicts with non-string keys).
    """
    if value is None:
        return _frame(b"N", b"")
    # bool must be checked before int: bool is an int subclass.
    if isinstance(value, bool):
        return _frame(b"B", b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _frame(b"I", str(value).encode("ascii"))
    if isinstance(value, float):
        # repr round-trips floats exactly in Python 3.
        return _frame(b"F", repr(value).encode("ascii"))
    if isinstance(value, str):
        return _frame(b"S", value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _frame(b"Y", bytes(value))
    if isinstance(value, (list, tuple)):
        body = b"".join(canonical_encode(item) for item in value)
        return _frame(b"L", len(value).to_bytes(8, "big") + body)
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise EncodingError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            items.append(canonical_encode(key) + canonical_encode(value[key]))
        return _frame(b"D", len(value).to_bytes(8, "big") + b"".join(items))
    raise EncodingError(f"cannot canonically encode {type(value).__name__}")
