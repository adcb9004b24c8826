"""Benchmark-suite configuration."""

import pytest

from repro.smv.compile_symbolic import to_symbolic
from repro.smv.run import load_model


def pytest_collection_modifyitems(items):
    """All items in this directory are benchmarks."""
    for item in items:
        item.add_marker(pytest.mark.benchmark)


@pytest.fixture
def product_nodes():
    """``source → nodes of its materialised product relation ⋀_v P_v``.

    This is the number the paper's SMV printed as "BDD nodes
    representing transition relation" and the F-tables of
    EXPERIMENTS.md compare; a check's ``transition_nodes`` counts the
    partitions the checker holds instead.
    """

    def count(source: str) -> int:
        sym = to_symbolic(load_model(source))
        return sym.bdd.node_count(sym.transition)

    return count
