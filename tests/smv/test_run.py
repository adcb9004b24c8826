"""Tests for the end-to-end SMV driver and report formatting."""

import pytest

from repro.smv.run import check_source

GOOD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC x -> AX x
SPEC AF x
FAIRNESS x
"""

BAD = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := {0, 1};
SPEC x -> AX x
"""


class TestCheckSource:
    def test_all_true(self):
        report = check_source(GOOD)
        assert report.all_true
        assert len(report.results) == 2

    def test_false_spec_detected(self):
        report = check_source(BAD)
        assert not report.all_true
        assert not report.results[0].holds

    def test_format_mimics_smv_output(self):
        text = check_source(GOOD).format()
        assert text.count("-- spec.") == 2
        assert "is true" in text
        assert "resources used:" in text
        assert "BDD nodes allocated:" in text
        assert "BDD nodes representing transition relation:" in text

    def test_format_shows_source_syntax(self):
        text = check_source(GOOD).format()
        assert "x -> AX x" in text

    def test_false_verdict_line(self):
        text = check_source(BAD).format()
        assert "is false" in text


class TestCheckModel:
    def test_reflexive_mode_changes_relation(self):
        src = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := 1;
SPEC !x -> AX x
"""
        assert check_source(src).all_true
        # with stutter closure, ¬x may remain ¬x
        assert not check_source(src, reflexive=True).all_true

    def test_fairness_declaration_used(self):
        src = """
MODULE main
VAR x : boolean;
ASSIGN next(x) := {x, 1};
SPEC AF x
FAIRNESS x
"""
        assert check_source(src).all_true

    def test_report_counts_module_fairness(self):
        report = check_source(GOOD)
        assert report.num_fairness == 1
