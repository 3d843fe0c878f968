"""Tests for result tables and seed merging."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.results import ResultTable, merge_seed_tables


def make_table(name="t", values=(1.0, 2.0)):
    table = ResultTable(name=name, columns=["peers", "ratio"])
    for index, value in enumerate(values):
        table.add_row(peers=(index + 1) * 100, ratio=value)
    return table


class TestResultTable:
    def test_add_row_and_column(self):
        table = make_table()
        assert len(table) == 2
        assert table.column("peers") == [100, 200]
        assert table.column("ratio") == [1.0, 2.0]

    def test_missing_column_in_row_rejected(self):
        table = ResultTable(name="t", columns=["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row(a=1)

    def test_unknown_column_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            make_table().column("nope")

    def test_extra_values_ignored(self):
        table = ResultTable(name="t", columns=["a"])
        table.add_row(a=1, b=2)
        assert table.rows == [{"a": 1}]

    def test_to_text_contains_headers_and_values(self):
        text = make_table().to_text()
        assert "peers" in text
        assert "ratio" in text
        assert "100" in text
        assert "1.000" in text

    def test_to_csv(self):
        csv = make_table().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "peers,ratio"
        assert lines[1] == "100,1.0"

    def test_json_round_trip(self):
        import json

        table = make_table()
        data = json.loads(table.to_json())
        assert data["name"] == "t"
        assert data["rows"][0]["peers"] == 100


class TestMergeSeedTables:
    def test_averages_numeric_columns(self):
        merged = merge_seed_tables([make_table(values=(1.0, 2.0)), make_table(values=(3.0, 4.0))], "peers")
        assert merged.column("ratio") == [2.0, 3.0]
        assert merged.column("peers") == [100, 200]
        assert merged.metadata["seeds_merged"] == 2

    def test_single_table_passthrough_values(self):
        merged = merge_seed_tables([make_table()], "peers")
        assert merged.column("ratio") == [1.0, 2.0]

    def test_mismatched_columns_rejected(self):
        other = ResultTable(name="t", columns=["peers", "other"])
        with pytest.raises(ConfigurationError):
            merge_seed_tables([make_table(), other], "peers")

    def test_missing_key_rejected(self):
        table_a = make_table()
        table_b = ResultTable(name="t", columns=["peers", "ratio"])
        table_b.add_row(peers=100, ratio=5.0)
        with pytest.raises(ConfigurationError):
            merge_seed_tables([table_a, table_b], "peers")

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_seed_tables([], "peers")

    def test_non_numeric_columns_keep_first_value(self):
        table_a = ResultTable(name="t", columns=["strategy", "ratio"])
        table_a.add_row(strategy="random", ratio=1.0)
        table_b = ResultTable(name="t", columns=["strategy", "ratio"])
        table_b.add_row(strategy="random", ratio=3.0)
        merged = merge_seed_tables([table_a, table_b], "strategy")
        assert merged.rows[0]["strategy"] == "random"
        assert merged.rows[0]["ratio"] == 2.0
