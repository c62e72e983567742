"""The program's one hash function: blake2b, without loading OpenSSL.

Every digest the program takes — dataset fingerprints, the catalog's stored
digests and import checksums, backend term interning, fleet routing — is a
blake2b.  ``import hashlib`` also loads the OpenSSL bindings, about 3.5 MB of
resident memory that blake2b never uses (``hashlib.blake2b`` *is*
``_blake2.blake2b``), so, like the standard library's ``random`` taking
``sha512`` from ``_sha512``, take it from the lean internal module first.
"""

try:
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - an interpreter without CPython's _blake2
    from hashlib import blake2b

__all__ = ["blake2b"]
