"""CSV import/export for databases.

Small utility layer so that example applications can load inconsistent
relations from plain CSV files (one column per position) and persist the
repairs or diagnostics they compute.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..core.terms import Fact, RelationSchema
from .fact_store import Database

PathLike = Union[str, Path]


def load_csv(
    path: PathLike,
    schema: RelationSchema,
    has_header: bool = True,
    delimiter: str = ",",
) -> Database:
    """Load a CSV file into a database of facts over ``schema``.

    Every row must have exactly ``schema.arity`` columns; values are kept as
    strings (elements only need equality).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        return _load_rows(csv.reader(handle, delimiter=delimiter), schema, has_header, path)


def load_csv_text(
    text: str,
    schema: RelationSchema,
    has_header: bool = True,
    delimiter: str = ",",
    source: object = "<text>",
) -> Database:
    """:func:`load_csv` over already-read CSV text.

    Lets a caller read a file exactly once and both parse and fingerprint
    the same bytes (the service layer's answer-cache identity must describe
    the facts actually loaded, with no reread race in between).
    """
    return _load_rows(
        csv.reader(io.StringIO(text, newline=""), delimiter=delimiter),
        schema,
        has_header,
        source,
    )


def _load_rows(
    reader: Iterator[List[str]],
    schema: RelationSchema,
    has_header: bool,
    source: object,
) -> Database:
    rows = []
    for index, row in enumerate(reader):
        if has_header and index == 0:
            continue
        if not row:
            continue
        if len(row) != schema.arity:
            raise ValueError(
                f"row {index} of {source} has {len(row)} columns, "
                f"expected {schema.arity}"
            )
        rows.append(tuple(value.strip() for value in row))
    database = Database()
    database.add_rows(schema, rows)
    return database


def csv_row_count(path: PathLike, has_header: bool = True, delimiter: str = ",") -> int:
    """The number of data rows in a CSV file, without building any facts.

    A cheap size probe used by the service planner to pick an execution
    strategy before a dataset is actually loaded.
    """
    count = 0
    with open(path, newline="", encoding="utf-8") as handle:
        for index, row in enumerate(csv.reader(handle, delimiter=delimiter)):
            if has_header and index == 0:
                continue
            if row:
                count += 1
    return count


def save_csv(
    database: Database,
    path: PathLike,
    header: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> int:
    """Write all facts of ``database`` to a CSV file; returns the row count."""
    schemas = database.schemas()
    if len(schemas) > 1:
        raise ValueError("save_csv supports databases over a single relation")
    facts = database.facts()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header is not None:
            writer.writerow(header)
        for fact in facts:
            writer.writerow([_render(value) for value in fact.values])
    return len(facts)


def facts_from_rows(
    schema: RelationSchema, rows: Iterable[Sequence[str]]
) -> List[Fact]:
    """Convenience: build facts from in-memory string rows."""
    return [Fact(schema, tuple(row)) for row in rows]


def _render(value) -> str:
    if isinstance(value, tuple):
        return "(" + "|".join(_render(item) for item in value) + ")"
    return str(value)
