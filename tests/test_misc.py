"""Coverage for small helpers: results, reports, AST ops, exceptions."""

import math

import pytest

from repro.core.crowdsky import crowdsky
from repro.core.result import CrowdSkylineResult
from repro.crowd.platform import CrowdStats
from repro.data.toy import figure1_dataset
from repro.exceptions import (
    BudgetExhaustedError,
    CrowdPlatformError,
    CrowdSkyError,
    DataError,
    ExperimentError,
    QuerySemanticError,
    QuerySyntaxError,
    SchemaError,
    UnknownAttributeError,
)
from repro.experiments.report import format_rows
from repro.query.ast import Comparison


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            UnknownAttributeError,
            DataError,
            CrowdPlatformError,
            BudgetExhaustedError,
            QuerySyntaxError,
            QuerySemanticError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, CrowdSkyError)

    def test_budget_is_platform_error(self):
        assert issubclass(BudgetExhaustedError, CrowdPlatformError)

    def test_unknown_attribute_is_schema_error(self):
        assert issubclass(UnknownAttributeError, SchemaError)


class TestComparison:
    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            (Comparison.EQ, 1.0, 1.0, True),
            (Comparison.EQ, 1.0, 2.0, False),
            (Comparison.NE, 1.0, 2.0, True),
            (Comparison.LT, 1.0, 2.0, True),
            (Comparison.LT, 2.0, 2.0, False),
            (Comparison.LE, 2.0, 2.0, True),
            (Comparison.GT, 3.0, 2.0, True),
            (Comparison.GE, 2.0, 2.0, True),
            (Comparison.GE, 1.0, 2.0, False),
        ],
    )
    def test_evaluate(self, op, left, right, expected):
        assert op.evaluate(left, right) is expected


class TestResultHelpers:
    def test_asked_pairs_merges_attributes(self, toy):
        result = crowdsky(figure1_dataset())
        pairs = result.asked_pairs()
        assert len(pairs) == 12  # one entry per pair, attributes merged

    def test_summary_contains_key_numbers(self, toy):
        result = crowdsky(figure1_dataset())
        text = result.summary(toy)
        assert "questions=12" in text
        assert "{" in text  # labels included when relation passed

    def test_summary_without_relation(self):
        result = CrowdSkylineResult(skyline={1, 2}, stats=CrowdStats())
        text = result.summary()
        assert "|skyline|=2" in text
        assert "{" not in text


class TestReportFormatting:
    def test_nan_rendered_as_dash(self):
        text = format_rows(["x"], [{"x": float("nan")}])
        assert "-" in text.splitlines()[-1]

    def test_large_floats_comma_grouped(self):
        text = format_rows(["x"], [{"x": 1234567.0}])
        assert "1,234,567" in text

    def test_missing_cells_blank(self):
        text = format_rows(["a", "b"], [{"a": 1}])
        assert text.splitlines()[-1].strip().startswith("1")

    def test_empty_rows(self):
        text = format_rows(["a"], [])
        assert "a" in text


class TestRoundTable:
    def test_round_table_labels(self, toy):
        from repro.core.parallel import parallel_sl

        result = parallel_sl(figure1_dataset())
        rows = result.round_table(toy)
        assert len(rows) == 6
        assert "(a, b)" in rows[0]["questions"]

    def test_round_table_without_relation_uses_indices(self, toy):
        result = crowdsky(figure1_dataset())
        rows = result.round_table()
        assert len(rows) == 12
        assert rows[0]["questions"].startswith("(")


class TestDemoCommand:
    def test_demo_prints_walkthrough(self, capsys):
        from repro.experiments.cli import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "12 questions" in out
        assert "6 rounds" in out
        assert "{b, e, f, h, i, k, l}" in out
