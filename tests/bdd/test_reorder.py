"""Tests for measuring a variable order by rebuilding under it."""

import pytest

from repro.bdd.manager import BDD
from repro.bdd.ops import evaluate
from repro.bdd.order import rebuild_with_order, shared_size


def _comparator():
    """A function whose BDD size is very order-sensitive.

    ``(a0 ∧ b0) ∨ (a1 ∧ b1) ∨ (a2 ∧ b2)`` is linear when a_i/b_i are
    interleaved and exponential when blocked — the classic example.
    """
    b = BDD()
    # deliberately bad (blocked) order
    b.declare("a0", "a1", "a2", "b0", "b1", "b2")
    f = b.disj(
        b.apply("and", b.var(f"a{i}"), b.var(f"b{i}")) for i in range(3)
    )
    return b, f


def test_rebuild_preserves_function():
    src, f = _comparator()
    order = ["a0", "b0", "a1", "b1", "a2", "b2"]
    dst, (g,) = rebuild_with_order([f], src, order)
    for bits in range(64):
        env = {
            name: bool(bits >> i & 1)
            for i, name in enumerate(["a0", "a1", "a2", "b0", "b1", "b2"])
        }
        assert evaluate(dst, g, env) == evaluate(src, f, env)


def test_interleaved_order_is_smaller():
    src, f = _comparator()
    blocked = shared_size(src, [f])
    dst, (g,) = rebuild_with_order(
        [f], src, ["a0", "b0", "a1", "b1", "a2", "b2"]
    )
    assert shared_size(dst, [g]) < blocked


def test_rebuild_rejects_non_permutation():
    src, f = _comparator()
    with pytest.raises(ValueError):
        rebuild_with_order([f], src, ["a0", "a1"])


def test_rebuild_error_names_the_problem_variables():
    src, f = _comparator()
    with pytest.raises(ValueError) as err:
        rebuild_with_order([f], src, ["a0", "a1", "zz"])
    message = str(err.value)
    assert "zz" in message  # extra
    assert "b0" in message  # missing
