"""Stability of DatasetRef identities: stripes, routes and fingerprints.

Equivalent references must agree on ``stripe_key()`` (the SessionPool
stripe) and ``routing_key()`` (the fleet route): a CSV file reached through
a symlink is the same source as the file itself, and inline rows are a set
of facts, so their order must not change the content identity.
"""

import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.datasets import DatasetRef

ROWS = [["a", "b"], ["x", "y"], ["x", "z"], ["p", "q"]]


def _write_csv(path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("k,v\n")
        for row in ROWS:
            handle.write(",".join(row) + "\n")


class TestCsvPathStability:
    def test_symlink_shares_stripe_and_route(self, tmp_path):
        real = tmp_path / "facts.csv"
        _write_csv(real)
        link = tmp_path / "alias.csv"
        try:
            os.symlink(real, link)
        except OSError:  # pragma: no cover - FS without symlink support
            pytest.skip("filesystem does not support symlinks")
        direct = DatasetRef.csv(str(real))
        aliased = DatasetRef.csv(str(link))
        assert direct.stripe_key() == aliased.stripe_key()
        assert direct.routing_key() == aliased.routing_key()

    def test_relative_and_absolute_paths_share_stripe(self, tmp_path, monkeypatch):
        real = tmp_path / "facts.csv"
        _write_csv(real)
        monkeypatch.chdir(tmp_path)
        assert (DatasetRef.csv("facts.csv").stripe_key()
                == DatasetRef.csv(str(real)).stripe_key())

    def test_distinct_files_get_distinct_stripes(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        _write_csv(first)
        _write_csv(second)
        assert (DatasetRef.csv(str(first)).stripe_key()
                != DatasetRef.csv(str(second)).stripe_key())

    def test_missing_path_still_keyed(self, tmp_path):
        # A dangling path must not crash identity derivation — resolution
        # will fail later with a proper envelope error.
        ref = DatasetRef.csv(str(tmp_path / "nope.csv"))
        assert ref.stripe_key() is not None


#: Row values: small ints and strings built from quotes, commas, brackets
#: and spaces, so a digest over rendered rows that concatenated or split
#: them ambiguously would collide.
_VALUES = st.one_of(st.integers(-3, 3), st.text(alphabet="ab'\",[] ", max_size=3))
_ROW = st.lists(_VALUES, min_size=2, max_size=2)


@st.composite
def _row_payload_pairs(draw):
    """A row payload and a permutation of it, then maybe one edit: a row
    added, duplicated, dropped or replaced, its values turned into strings,
    or one character moved across the boundary between its two values."""
    rows = draw(st.lists(_ROW, max_size=5))
    other = list(draw(st.permutations(rows)))
    edit = draw(st.sampled_from(
        ["none", "add", "duplicate", "drop", "replace", "retype", "shift"]
    ))
    if edit == "add":
        other.append(draw(_ROW))
    elif edit == "duplicate" and rows:
        other.append(draw(st.sampled_from(rows)))
    elif other:
        index = draw(st.integers(0, len(other) - 1))
        if edit == "drop":
            other.pop(index)
        elif edit == "replace":
            other[index] = draw(_ROW)
        elif edit == "retype":
            other[index] = [str(value) for value in other[index]]
        elif edit == "shift":
            left, right = map(str, other[index])
            other[index] = [left[:-1], left[-1:] + right]
    return rows, other


class TestInlineRowsStability:
    def test_reordered_rows_share_identity(self):
        shuffled = [ROWS[2], ROWS[0], ROWS[3], ROWS[1]]
        first = DatasetRef.inline_rows(ROWS)
        second = DatasetRef.inline_rows(shuffled)
        assert first.stripe_key() == second.stripe_key()
        assert first.routing_key() == second.routing_key()
        assert first.fingerprint() == second.fingerprint()

    def test_different_rows_differ(self):
        first = DatasetRef.inline_rows(ROWS)
        second = DatasetRef.inline_rows(ROWS + [["extra", "row"]])
        assert first.stripe_key() != second.stripe_key()
        assert first.fingerprint() != second.fingerprint()

    def test_duplicate_rows_stay_significant(self):
        # Sorting must not collapse duplicates: a repeated row is a
        # different payload than the deduplicated one.
        first = DatasetRef.inline_rows(ROWS)
        second = DatasetRef.inline_rows(ROWS + [ROWS[0]])
        assert first.fingerprint() != second.fingerprint()

    @settings(max_examples=300, deadline=None)
    @given(_row_payload_pairs())
    def test_identity_shared_iff_row_multisets_equal(self, pair):
        # A database is a set of facts, so row order must not matter, but a
        # repeated row is a different payload than the deduplicated one.
        rows, other = pair
        first = DatasetRef.inline_rows(rows)
        second = DatasetRef.inline_rows(other)
        same = Counter(map(tuple, rows)) == Counter(map(tuple, other))
        assert (first.fingerprint() == second.fingerprint()) == same
        assert (first.stripe_key() == second.stripe_key()) == same
        assert (first.routing_key() == second.routing_key()) == same
