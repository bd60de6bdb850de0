"""Self-checks of the tracer: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import spans  # noqa: E402
from ramsey_workbench import catalogs, category, cli  # noqa: E402


def test_missing_name_fails_loudly():
    tracer = spans.Tracer(points=[
        ("ramsey_workbench.cli", "arrow_check", "arrows.arrow_check", True, None),
        ("ramsey_workbench.cli", "no_such_checker", "cli.missing", True, None),
    ])
    original = cli.arrow_check
    with pytest.raises(spans.TracerError, match="no_such_checker"):
        tracer.install()
    assert cli.arrow_check is original


def test_every_point_resolves_and_uninstalls():
    originals = (category.FiniteCategory.__dict__["from_structures"],
                 category.FiniteCategory.compose, cli.check_axioms)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert category.FiniteCategory.compose is not originals[1]
    finally:
        tracer.uninstall()
    assert (category.FiniteCategory.__dict__["from_structures"],
            category.FiniteCategory.compose, cli.check_axioms) == originals


def test_self_time_adds_up_and_counts_are_exact():
    def run_once():
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span("cli.question"):
                cat = category.FiniteCategory.from_structures(catalogs.lo_catalog(4))
                cli.check_axioms(cat)
        finally:
            tracer.uninstall()
        return tracer

    first, second = run_once(), run_once()
    assert first.snapshot() == second.snapshot()
    m = first.metrics()
    assert m["structures.embedding_checks"] > 0
    assert m["category.compose_calls"] > 0
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(m["cli.question_s"], rel=1e-6)
    assert [r[0] for r in first.records][:2] == ["cli.question",
                                                 "category.from_structures"]


def test_zero_heavy_counter_is_reported():
    metrics = spans.Tracer().metrics()
    problems = spans.self_check("arrows-search", metrics)
    assert "arrows.nodes reads zero on arrows-search" in problems
    metrics["structures.embedding_checks"] = 3
    assert any("expected 0" in p for p in spans.self_check("category-table", metrics))
