"""Unit tests for the BDD manager core."""

import pytest

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.errors import BddError


@pytest.fixture
def bdd():
    b = BDD()
    b.declare("x", "y", "z")
    return b


class TestVariables:
    def test_levels_follow_declaration_order(self, bdd):
        assert bdd.level_of("x") == 0
        assert bdd.level_of("y") == 1
        assert bdd.level_of("z") == 2

    def test_name_of_inverts_level_of(self, bdd):
        for name in ("x", "y", "z"):
            assert bdd.name_of(bdd.level_of(name)) == name

    def test_duplicate_declaration_rejected(self, bdd):
        with pytest.raises(BddError):
            bdd.add_var("x")

    def test_unknown_variable_rejected(self, bdd):
        with pytest.raises(BddError):
            bdd.var("nope")

    def test_var_and_nvar_are_complements(self, bdd):
        assert bdd.negate(bdd.var("x")) == bdd.nvar("x")

    def test_num_vars(self, bdd):
        assert bdd.num_vars() == 3


class TestHashConsing:
    def test_same_function_same_node(self, bdd):
        f1 = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        f2 = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        assert f1 == f2

    def test_commuted_and_same_node(self, bdd):
        f1 = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        f2 = bdd.apply("and", bdd.var("y"), bdd.var("x"))
        assert f1 == f2

    def test_reduction_collapses_equal_children(self, bdd):
        # x ∨ ¬x = TRUE must not allocate a node
        f = bdd.apply("or", bdd.var("x"), bdd.nvar("x"))
        assert f == TRUE


class TestIte:
    def test_terminal_cases(self, bdd):
        x = bdd.var("x")
        assert bdd.ite(TRUE, x, FALSE) == x
        assert bdd.ite(FALSE, FALSE, x) == x
        assert bdd.ite(x, TRUE, FALSE) == x

    def test_ite_equal_branches(self, bdd):
        x, y = bdd.var("x"), bdd.var("y")
        assert bdd.ite(x, y, y) == y

    def test_negation_involution(self, bdd):
        f = bdd.apply("xor", bdd.var("x"), bdd.var("y"))
        assert bdd.negate(bdd.negate(f)) == f


class TestApply:
    def test_truth_table_and(self, bdd):
        from repro.bdd.ops import evaluate

        f = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        for x in (False, True):
            for y in (False, True):
                assert evaluate(bdd, f, {"x": x, "y": y}) == (x and y)

    @pytest.mark.parametrize(
        "op,table",
        [
            ("or", lambda x, y: x or y),
            ("xor", lambda x, y: x != y),
            ("iff", lambda x, y: x == y),
            ("implies", lambda x, y: (not x) or y),
            ("nand", lambda x, y: not (x and y)),
            ("nor", lambda x, y: not (x or y)),
            ("diff", lambda x, y: x and not y),
        ],
    )
    def test_truth_tables(self, bdd, op, table):
        from repro.bdd.ops import evaluate

        f = bdd.apply(op, bdd.var("x"), bdd.var("y"))
        for x in (False, True):
            for y in (False, True):
                assert evaluate(bdd, f, {"x": x, "y": y}) == table(x, y)

    def test_unknown_operator(self, bdd):
        with pytest.raises(BddError):
            bdd.apply("frobnicate", TRUE, TRUE)

    def test_conj_disj_empty(self, bdd):
        assert bdd.conj([]) == TRUE
        assert bdd.disj([]) == FALSE

    def test_cube(self, bdd):
        from repro.bdd.ops import evaluate

        c = bdd.cube({"x": True, "z": False})
        assert evaluate(bdd, c, {"x": True, "y": False, "z": False})
        assert evaluate(bdd, c, {"x": True, "y": True, "z": False})
        assert not evaluate(bdd, c, {"x": False, "y": True, "z": False})
        assert not evaluate(bdd, c, {"x": True, "y": True, "z": True})


class TestQuantification:
    def test_exists_removes_variable(self, bdd):
        f = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        g = bdd.exists(["x"], f)
        assert g == bdd.var("y")

    def test_forall_conjunction(self, bdd):
        # ∀x. (x ∨ y) = y
        f = bdd.apply("or", bdd.var("x"), bdd.var("y"))
        assert bdd.forall(["x"], f) == bdd.var("y")

    def test_exists_of_tautology(self, bdd):
        assert bdd.exists(["x", "y"], TRUE) == TRUE

    def test_exists_no_vars_is_identity(self, bdd):
        f = bdd.var("x")
        assert bdd.exists([], f) == f

    def test_and_exists_matches_unfused(self, bdd):
        x, y, z = bdd.var("x"), bdd.var("y"), bdd.var("z")
        u = bdd.apply("or", x, y)
        v = bdd.apply("or", bdd.negate(y), z)
        fused = bdd.and_exists(u, v, ["y"])
        unfused = bdd.exists(["y"], bdd.apply("and", u, v))
        assert fused == unfused

    def test_and_exists_false_short_circuit(self, bdd):
        assert bdd.and_exists(FALSE, bdd.var("x"), ["x"]) == FALSE


class TestRenameRestrict:
    def test_rename_downward(self):
        b = BDD()
        b.declare("a", "a'", "b", "b'")
        f = b.apply("and", b.var("a"), b.var("b"))
        g = b.rename(f, {"a": "a'", "b": "b'"})
        assert g == b.apply("and", b.var("a'"), b.var("b'"))

    def test_rename_non_monotone_rejected(self):
        b = BDD()
        b.declare("a", "b")
        f = b.apply("and", b.var("a"), b.var("b"))
        with pytest.raises(BddError):
            b.rename(f, {"a": "b", "b": "a"})

    def test_restrict_cofactor(self, bdd):
        f = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        assert bdd.restrict(f, {"x": True}) == bdd.var("y")
        assert bdd.restrict(f, {"x": False}) == FALSE

    def test_restrict_everything(self, bdd):
        f = bdd.apply("xor", bdd.var("x"), bdd.var("y"))
        assert bdd.restrict(f, {"x": True, "y": False}) == TRUE


class TestSatOperations:
    def test_sat_count(self, bdd):
        f = bdd.apply("or", bdd.var("x"), bdd.var("y"))
        # over 3 declared vars: (4-1) * 2 = 6 assignments
        assert bdd.sat_count(f) == 6.0
        assert bdd.sat_count(f, nvars=2) == 3.0

    def test_sat_count_constants(self, bdd):
        assert bdd.sat_count(TRUE) == 8.0
        assert bdd.sat_count(FALSE) == 0.0

    def test_sat_count_is_exact_int(self, bdd):
        count = bdd.sat_count(bdd.var("x"))
        assert isinstance(count, int)
        assert count == 4

    def test_sat_count_exact_beyond_float_precision(self):
        # a 70-variable cube: float arithmetic rounds 2^70 - 1 to 2^70
        b = BDD()
        n = 70
        cube = TRUE
        for i in range(n):
            b.add_var(f"x{i}")
        for i in range(n):
            cube = b.apply("and", cube, b.var(f"x{i}"))
        assert b.sat_count(cube) == 1
        complement = b.negate(cube)
        assert b.sat_count(complement) == 2**n - 1
        assert b.sat_count(complement) != float(2**n - 1)  # not representable

    def test_sat_count_beyond_float_overflow(self):
        # past ~1023 variables 2**n overflows float('inf'); ints don't
        b = BDD()
        n = 1100
        for i in range(n):
            b.add_var(f"x{i}")
        assert b.sat_count(TRUE) == 2**n
        assert b.sat_count(b.var("x0")) == 2 ** (n - 1)

    def test_pick_satisfies(self, bdd):
        from repro.bdd.ops import evaluate

        f = bdd.apply("and", bdd.var("x"), bdd.nvar("z"))
        assignment = bdd.pick(f)
        full = {"x": False, "y": False, "z": False, **assignment}
        assert evaluate(bdd, f, full)

    def test_pick_unsat(self, bdd):
        assert bdd.pick(FALSE) is None

    def test_iter_sat_total(self, bdd):
        f = bdd.apply("or", bdd.var("x"), bdd.var("y"))
        sols = list(bdd.iter_sat(f, ["x", "y"]))
        assert len(sols) == 3
        assert {"x": False, "y": False} not in sols

    def test_iter_sat_projects_unselected(self, bdd):
        f = bdd.var("z")
        sols = list(bdd.iter_sat(f, ["x"]))
        # both x-values allow a completion with z=1
        assert sols == [{"x": False}, {"x": True}]


class TestStructure:
    def test_support(self, bdd):
        f = bdd.apply("and", bdd.var("x"), bdd.var("z"))
        assert bdd.support(f) == {"x", "z"}
        assert bdd.support(TRUE) == set()

    def test_node_count(self, bdd):
        f = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        assert bdd.node_count(f) == 2
        assert bdd.node_count(TRUE) == 0

    def test_nodes_allocated_monotone(self, bdd):
        before = bdd.nodes_allocated
        bdd.apply("xor", bdd.var("x"), bdd.var("z"))
        assert bdd.nodes_allocated > before

    def test_cache_disable_still_correct(self):
        b = BDD()
        b.declare("x", "y")
        b.cache_enabled = False
        f = b.apply("and", b.var("x"), b.var("y"))
        g = b.apply("and", b.var("x"), b.var("y"))
        assert f == g  # unique table still canonicalizes

    def test_clear_caches_keeps_results_valid(self, bdd):
        f = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        bdd.clear_caches()
        g = bdd.apply("and", bdd.var("x"), bdd.var("y"))
        assert f == g


class TestRelease:
    """A dropped manager is freed by reference counting: no recursive
    kernel leaves a closure cycle holding it for the cyclic collector."""

    def test_manager_freed_without_cyclic_gc(self):
        import gc
        import weakref

        from repro.bdd.ops import dnf, transfer

        gc.collect()
        gc.disable()
        try:
            src, dst = BDD(), BDD()
            src.declare("x", "y", "z")
            dst.declare("x", "y", "z")
            yz = src.apply("and", src.var("y"), src.var("z"))
            f = src.apply("or", src.var("x"), yz)
            src.negate(f)
            src.exists(["y"], f)
            src.forall(["y"], f)
            src.and_exists(f, src.var("y"), ["x"])
            src.rename(src.var("x"), {"x": "y"})
            src.sat_count(f)
            list(src.iter_sat(f))
            next(src.iter_sat(f))  # an abandoned generator too
            dnf(src, f)
            transfer(f, src, dst)
            refs = [weakref.ref(src), weakref.ref(dst)]
            del src, dst
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
