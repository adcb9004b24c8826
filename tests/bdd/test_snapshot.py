"""Zero-copy snapshots: the manager's flat node arrays as bytes.

Pool workers rebuild compiled systems from these snapshots, so a
restored manager must denote the same functions under the same node ids
and serialize back to the same bytes.
"""

import pytest
from hypothesis import given, settings

from repro.bdd.manager import BDD
from repro.bdd.ops import evaluate
from repro.errors import BddError
from tests.bdd.test_properties import (
    VARS,
    all_envs,
    boolean_trees,
    build,
    eval_tree,
)


def _comparator():
    """``⋁ (a_i ∧ b_i)`` declared under the blocked order."""
    b = BDD()
    b.declare("a0", "a1", "a2", "b0", "b1", "b2")
    f = b.disj(
        b.apply("and", b.var(f"a{i}"), b.var(f"b{i}")) for i in range(3)
    )
    return b, f


def _envs(names):
    for bits in range(1 << len(names)):
        yield {n: bool(bits >> i & 1) for i, n in enumerate(names)}


class TestSnapshot:
    def test_roundtrip_is_byte_identical(self):
        bdd, f = _comparator()
        data = bdd.snapshot()
        clone = BDD.from_snapshot(data)
        assert clone.snapshot() == data
        names = list(bdd.var_names)
        for env in _envs(names):
            assert evaluate(clone, f, env) == evaluate(bdd, f, env)

    def test_clone_is_independent(self):
        bdd, f = _comparator()
        clone = BDD.from_snapshot(bdd.snapshot())
        g = clone.apply("or", f, clone.var("a0"))
        assert clone.num_live_nodes() >= bdd.num_live_nodes()
        assert g != f or clone.num_live_nodes() == bdd.num_live_nodes()

    def test_garbage_rejected(self):
        with pytest.raises(BddError):
            BDD.from_snapshot(b"not a snapshot")
        bdd, _ = _comparator()
        with pytest.raises(BddError):
            BDD.from_snapshot(bdd.snapshot()[:20])


@given(boolean_trees())
@settings(max_examples=25, deadline=None)
def test_snapshot_roundtrip_on_random_functions(tree):
    bdd = BDD()
    bdd.declare(*VARS)
    node = build(bdd, tree)
    data = bdd.snapshot()
    clone = BDD.from_snapshot(data)
    assert clone.snapshot() == data
    for env in all_envs():
        assert evaluate(clone, node, env) == eval_tree(tree, env)
