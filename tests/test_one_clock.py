"""Spans are the one clock: ``perf_counter`` lives only in ``obs/tracer.py``.

A duration the program reports comes from a span (``Span.duration`` or
``Span.elapsed()``) or from a measurement a span already took, such as a
result's ``stats.user_time``.  A second timer around the same region
disagrees with the first, so this test fails on any other use.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
ALLOWED = {SRC / "obs" / "tracer.py"}


def perf_counter_uses(path: pathlib.Path) -> list[int]:
    """Line numbers in ``path`` that name ``perf_counter`` in code."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "perf_counter":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "perf_counter" for alias in node.names
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_perf_counter_only_in_the_tracer():
    offenders = {
        str(path.relative_to(SRC)): uses
        for path in sorted(SRC.rglob("*.py"))
        if path not in ALLOWED and (uses := perf_counter_uses(path))
    }
    assert offenders == {}, (
        "time a region with a span (repro.obs.tracer), not perf_counter"
    )


def test_the_scan_sees_each_spelling(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import time\n"
        "from time import perf_counter\n"
        "a = time.perf_counter()\n"
        "b = perf_counter()\n"
        "# perf_counter in a comment is prose, not a call\n"
    )
    assert perf_counter_uses(sample) == [2, 3, 4]
