"""Canonical element encoding and term interning shared by all backends.

Every relational backend stores elements as text with the same reversible,
canonical serialisation (born in the SQLite store, now shared): scalars are
tagged with their type (``int:42``, ``str:alice``) with the delimiter
characters escaped, and composite elements (tuples created by the paper's
reductions) nest recursively (``(int:1|(str:a|str:b))``).  Equal elements
always produce equal encodings, and the supported scalar types — ``str``,
``int``, ``bool``, ``float`` and ``None`` — round-trip exactly.

On top of the codec sit the interning helpers: a *term digest* is the
blake2b-128 hex of the canonical encoding, used as the dictionary key of the
interned term table (fact rows then carry digests, never wide values), and a
*row signature* is a 32-bit blake2b of a row's digest tuple, summed
server-side into the content signature that fingerprints a table without
shipping a single row.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from ..core.terms import Element
from ..hashing import blake2b

#: Characters with structural meaning in the encoding, escaped inside scalars.
_STRUCTURAL_RE = re.compile(r"[\\()|]")
_UNESCAPE_RE = re.compile(r"\\(.)")

#: Hex length of a term digest (blake2b, 16 bytes).
TERM_DIGEST_BYTES = 16
#: Byte width of the per-row signature (summed server-side; 32-bit values
#: keep the sum inside 64-bit range for any realistic table).
ROW_SIGNATURE_BYTES = 4


def escape(text: str) -> str:
    return _STRUCTURAL_RE.sub(lambda match: "\\" + match.group(0), text)


def unescape(text: str) -> str:
    return _UNESCAPE_RE.sub(lambda match: match.group(1), text)


def encode_element(value: Element) -> str:
    """Serialise an element to canonical text (reversible, see module docs)."""
    if isinstance(value, tuple):
        return "(" + "|".join(encode_element(item) for item in value) + ")"
    return f"{type(value).__name__}:{escape(str(value))}"


def decode_element(text: str) -> Element:
    """Exact inverse of :func:`encode_element`.

    Tuples decode back to tuples (recursively); scalars are restored from
    their type tag.  Unknown scalar types decode to their string payload —
    they were stringified by the encoder, and the algorithms only ever
    compare elements for equality, so the string form is a faithful
    identifier as long as it is used consistently on both sides.
    """
    value, position = parse_element(text, 0)
    if position != len(text):
        raise ValueError(f"trailing data in encoded element: {text!r}")
    return value


def parse_element(text: str, position: int) -> Tuple[Element, int]:
    if position < len(text) and text[position] == "(":
        position += 1
        items: List[Element] = []
        if position < len(text) and text[position] == ")":
            return (), position + 1
        while True:
            item, position = parse_element(text, position)
            items.append(item)
            if position >= len(text):
                raise ValueError(f"unterminated tuple in encoded element: {text!r}")
            if text[position] == "|":
                position += 1
                continue
            if text[position] == ")":
                return tuple(items), position + 1
            raise ValueError(f"malformed tuple in encoded element: {text!r}")
    # Scalar: scan to the next unescaped structural character.
    start = position
    while position < len(text):
        char = text[position]
        if char == "\\":
            position += 2
            continue
        if char in "|)(":
            break
        position += 1
    token = text[start:position]
    kind, separator, payload = token.partition(":")
    if not separator:
        raise ValueError(f"scalar without type tag in encoded element: {text!r}")
    payload = unescape(payload)
    if kind == "int":
        return int(payload), position
    if kind == "bool":
        return payload == "True", position
    if kind == "float":
        return float(payload), position
    if kind == "NoneType":
        return None, position
    return payload, position


# --------------------------------------------------------------------------- #
# interning
# --------------------------------------------------------------------------- #
def term_digest(encoded: str) -> str:
    """The interned-dictionary key of one canonical encoding."""
    return blake2b(
        encoded.encode("utf-8"), digest_size=TERM_DIGEST_BYTES
    ).hexdigest()


def row_signature(digests: Sequence[str]) -> int:
    """A 32-bit signature of one fact row's digest tuple (order-sensitive)."""
    joined = "|".join(digests).encode("utf-8")
    raw = blake2b(joined, digest_size=ROW_SIGNATURE_BYTES).digest()
    return int.from_bytes(raw, "big")
