"""Tests for the conjunctive transition-relation partition."""

from pathlib import Path

import pytest

from repro.errors import SystemError_
from repro.logic.ctl import Implies, EX
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import SymbolicSystem, primed

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

MODEL = """
MODULE main
VAR a : {x, y, z};
    b : boolean;
    inp : boolean;
ASSIGN
  next(a) := case b : x; a = x : y; 1 : a; esac;
  next(b) := !b;
"""


def _sym():
    return to_symbolic(SmvModel(parse_module(MODEL)))


def _monolithic_pre_image(sym, target):
    """``∃x'. T ∧ target'`` over the whole relation, not its partitions."""
    bdd = sym.bdd
    return bdd.and_exists(
        sym.transition,
        bdd.rename(target, {a: primed(a) for a in sym.atoms}),
        [primed(a) for a in sym.atoms],
    )


def _targets(sym):
    """Literals, their negations, an xor chain and the all-true cube."""
    bdd = sym.bdd
    targets = [bdd.var(a) for a in sym.atoms]
    targets += [bdd.negate(t) for t in list(targets)]
    xor = bdd.var(sym.atoms[0])
    for atom_name in sym.atoms[1:]:
        xor = bdd.apply("xor", xor, bdd.var(atom_name))
    targets.append(xor)
    targets.append(bdd.conj(bdd.var(a) for a in sym.atoms))
    return targets


class TestPartitionStructure:
    def test_one_partition_per_variable(self):
        sym = _sym()
        assert sym.partitions is not None
        assert len(sym.partitions) == 3  # a, b, inp

    def test_conjunction_equals_monolithic(self):
        sym = _sym()
        assert sym.bdd.conj(sym.partitions) == sym.transition

    def test_reflexive_compile_keeps_raw_partitions(self):
        sym = to_symbolic(SmvModel(parse_module(MODEL)), reflexive=True)
        bdd = sym.bdd
        assert sym.stutter and len(sym.partitions) == 3
        # the reflexive relation is the raw conjunction plus the stutter step
        assert sym.transition == bdd.apply(
            "or", bdd.conj(sym.partitions), sym.identity_relation()
        )
        for target in _targets(sym):
            assert sym.pre_image(target) == _monolithic_pre_image(sym, target)

    def test_pre_image_matches_monolithic_product(self):
        # ≥ 2 conjunctive partitions: every image goes through them
        sym = _sym()
        assert len(sym.partitions) >= 2
        for target in _targets(sym):
            assert sym.pre_image(target) == _monolithic_pre_image(sym, target)

    def test_single_variable_model_stays_monolithic(self):
        sym = to_symbolic(
            SmvModel(
                parse_module(
                    "MODULE main\nVAR x : boolean;\nASSIGN next(x) := !x;"
                )
            )
        )
        # one partition is the whole relation
        assert sym.partitions == [sym.transition]
        for target in _targets(sym):
            assert sym.pre_image(target) == _monolithic_pre_image(sym, target)


class TestPartitionedPreImage:
    def test_matches_monolithic_on_state_sets(self):
        sym = _sym()
        bdd = sym.bdd
        # a spread of target sets: literals, cubes, xor-chains
        targets = [bdd.var("b"), bdd.nvar("inp")]
        targets.append(bdd.apply("and", bdd.var("a.0"), bdd.nvar("a.1")))
        xor = bdd.var(sym.atoms[0])
        for atom_name in sym.atoms[1:]:
            xor = bdd.apply("xor", xor, bdd.var(atom_name))
        targets.append(xor)
        for target in targets:
            assert sym.pre_image(target) == _monolithic_pre_image(sym, target)

    def test_partitions_and_single_relation_agree(self):
        sym = _sym()
        targets = _targets(sym)
        partitioned = [sym.pre_image(t) for t in targets]
        # installing the relation drops its partition: one partition left
        sym.set_transition(sym.transition, reflexive=False)
        assert sym.partitions is None
        for target, image in zip(targets, partitioned):
            assert image == sym.pre_image(target)
            assert image == _monolithic_pre_image(sym, target)

    def test_figure1_pre_images_agree(self):
        """Partitioned and monolithic pre-images agree on every subset
        shape of the paper's Figure 1 model."""
        model = SmvModel(
            parse_module((EXAMPLES / "figure1.smv").read_text())
        )
        sym = to_symbolic(model)
        bdd = sym.bdd
        targets = [bdd.var(a) for a in sym.atoms]
        targets += [bdd.negate(t) for t in list(targets)]
        targets.append(sym.bdd.conj(bdd.var(a) for a in sym.atoms))
        for target in targets:
            assert sym.pre_image(target) == _monolithic_pre_image(sym, target)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_afs2_server_pre_images_agree(self, n):
        """The cone-pruned partitioned image against the monolithic
        relational product on the AFS-2 server, n = 2..4, raw and
        stutter-closed."""
        from repro.casestudies.afs2 import server_source

        for reflexive in (False, True):
            sym = to_symbolic(
                SmvModel(parse_module(server_source(n))), reflexive=reflexive
            )
            assert len(sym.partitions) >= 2
            for target in _targets(sym):
                assert sym.pre_image(target) == _monolithic_pre_image(
                    sym, target
                )

    def test_overlapping_next_supports_raise(self):
        plain = SymbolicSystem({"a", "b"})
        bdd = plain.bdd
        plain.groups = [
            (
                frozenset(plain.atoms),
                [bdd.var("a'"), bdd.apply("and", bdd.var("a'"), bdd.var("b'"))],
            )
        ]
        with pytest.raises(SystemError_, match="disjoint"):
            plain.pre_image(bdd.var("a"))


class TestCheckerWithPartitions:
    def test_verdicts_identical(self):
        from repro.checking.symbolic import SymbolicChecker
        from repro.logic.restriction import Restriction

        model = SmvModel(parse_module(MODEL))
        mono = to_symbolic(model)
        mono.set_transition(mono.transition, reflexive=False)
        assert mono.partitions is None  # one partition: the whole relation
        part = to_symbolic(model)
        assert part.partitions is not None
        r = Restriction(init=model.initial_formula())
        spec = Implies(
            model.encoding.eq_formula("a", "x"),
            EX(model.encoding.eq_formula("a", "y")),
        )
        assert bool(SymbolicChecker(mono).holds(spec, r)) == bool(
            SymbolicChecker(part).holds(spec, r)
        )
