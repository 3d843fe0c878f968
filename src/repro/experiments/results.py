"""Result containers for experiments: tables, series, plain-text rendering.

The experiment harness prints the same rows/series the paper reports, so the
output of every experiment is a :class:`ResultTable` (rows of named columns)
that can be rendered as aligned text, exported to CSV-like strings, or turned
into plain dicts for JSON dumps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

from ..exceptions import ConfigurationError


@dataclass
class ResultTable:
    """A named table of result rows."""

    name: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append a row; every declared column must be provided."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ConfigurationError(f"row for table {self.name!r} is missing columns {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigurationError(f"table {self.name!r} has no column {name!r}")
        return [row[name] for row in self.rows]

    def sorted_by(self, column: str) -> "ResultTable":
        """Return a copy sorted by ``column``."""
        table = ResultTable(
            name=self.name, columns=list(self.columns), metadata=dict(self.metadata)
        )
        table.rows = sorted(self.rows, key=lambda row: row[column])
        return table

    # ---------------------------------------------------------------- exports

    def to_text(self, float_format: str = "{:.3f}") -> str:
        """Aligned plain-text rendering (what the CLI prints)."""

        def render(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        header = list(self.columns)
        body = [[render(row[column]) for column in header] for row in self.rows]
        widths = [
            max(len(header[index]), *(len(line[index]) for line in body)) if body else len(header[index])
            for index in range(len(header))
        ]
        lines = [self.name]
        lines.append("  ".join(column.ljust(widths[index]) for index, column in enumerate(header)))
        lines.append("  ".join("-" * widths[index] for index in range(len(header))))
        for line in body:
            lines.append("  ".join(line[index].ljust(widths[index]) for index in range(len(header))))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated rendering (header + rows)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(str(row[column]) for column in self.columns))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict export."""
        return {
            "name": self.name,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON export."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def __len__(self) -> int:
        return len(self.rows)


def mean_of(values: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    values = list(values)
    if not values:
        raise ConfigurationError("cannot average an empty sequence")
    return sum(values) / len(values)


def merge_seed_tables(tables: Sequence[ResultTable], key_column: str) -> ResultTable:
    """Average numeric columns across per-seed tables.

    All tables must share the same columns and the same set of values in
    ``key_column`` (e.g. the population size).  Non-numeric columns keep the
    first table's value.
    """
    if not tables:
        raise ConfigurationError("no tables to merge")
    columns = tables[0].columns
    for table in tables:
        if table.columns != columns:
            raise ConfigurationError("cannot merge tables with different columns")

    merged = ResultTable(
        name=tables[0].name,
        columns=list(columns),
        metadata={"seeds_merged": len(tables), **tables[0].metadata},
    )
    keys = [row[key_column] for row in tables[0].rows]
    for key in keys:
        per_table_rows = []
        for table in tables:
            matching = [row for row in table.rows if row[key_column] == key]
            if len(matching) != 1:
                raise ConfigurationError(
                    f"table {table.name!r} must have exactly one row with {key_column}={key!r}"
                )
            per_table_rows.append(matching[0])
        merged_row: Dict[str, Any] = {}
        for column in columns:
            values = [row[column] for row in per_table_rows]
            if all(isinstance(value, (int, float)) and not isinstance(value, bool) for value in values):
                merged_row[column] = sum(float(value) for value in values) / len(values)
            else:
                merged_row[column] = values[0]
        merged_row[key_column] = key
        merged.add_row(**merged_row)
    return merged
