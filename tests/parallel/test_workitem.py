"""Work-item specs: derivation, pickling, and in-process execution."""

import pickle

import pytest

from repro.casestudies.afs1 import CLIENT
from repro.casestudies.mutex import TokenRing
from repro.logic.parser import parse_ctl
from repro.parallel.workitem import (
    ComposeSpec,
    ExplicitSpec,
    ParallelError,
    SmvSpec,
    SnapshotSpec,
    WorkItem,
    spec_of_component,
)
from repro.parallel.worker import build_system, clear_worker_caches, run_work_item
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System


@pytest.fixture(autouse=True)
def _fresh_worker_caches():
    clear_worker_caches()
    yield
    clear_worker_caches()


class TestSpecDerivation:
    def test_explicit_system_round_trips(self):
        original = TokenRing(2).process(0)
        spec = spec_of_component(original)
        assert isinstance(spec, ExplicitSpec)
        rebuilt = build_system(spec, "explicit")
        assert rebuilt.sigma == original.sigma
        assert set(rebuilt.edges) == set(original.edges)
        assert rebuilt.reflexive == original.reflexive

    def test_explicit_spec_is_canonical(self):
        a = spec_of_component(TokenRing(2).process(0))
        b = spec_of_component(TokenRing(2).process(0))
        assert a == b and hash(a) == hash(b)

    def test_symbolic_component_carries_source(self):
        sym = CLIENT.symbolic()
        spec = spec_of_component(sym)
        assert isinstance(spec, SmvSpec)
        assert spec.reflexive
        rebuilt = build_system(spec, "symbolic")
        assert isinstance(rebuilt, SymbolicSystem)
        assert rebuilt.atoms == sym.atoms

    def test_symbolic_without_source_snapshots(self):
        bare = SymbolicSystem({"a", "b"})
        t = bare.bdd.apply(
            "or", bare.transition, bare.bdd.var("a")
        )
        bare.set_transition(t, reflexive=False)
        spec = spec_of_component(bare)
        assert isinstance(spec, SnapshotSpec)
        # snapshots pickle — that is the point of the flat-array format
        spec = pickle.loads(pickle.dumps(spec))
        rebuilt = build_system(spec, "symbolic")
        assert isinstance(rebuilt, SymbolicSystem)
        assert rebuilt.atoms == bare.atoms
        # node ids are stable across snapshot/restore
        assert rebuilt.transition == bare.transition
        assert set(rebuilt.to_explicit().edges) == set(bare.to_explicit().edges)

    @pytest.mark.parametrize("reflexive", [False, True])
    def test_compiled_system_ships_its_partitions(self, reflexive):
        # a compiled system without source travels as its partitions:
        # the product is built on neither side, and the rebuilt images
        # are node-equal to the original's
        from repro.bdd.ops import transfer

        original = CLIENT.symbolic()
        sym = to_symbolic(SmvModel(parse_module(original.smv_source)), reflexive)
        spec = pickle.loads(pickle.dumps(spec_of_component(sym)))
        assert isinstance(spec, SnapshotSpec)
        assert spec.transition is None and spec.stutter == reflexive
        assert sym._transition is None, "the sender built the product"
        rebuilt = build_system(spec, "symbolic")
        assert rebuilt.partitions == sym.partitions
        assert rebuilt.stutter == reflexive
        bdd = sym.bdd
        for name in sym.atoms:
            for target in (bdd.var(name), bdd.nvar(name)):
                shipped = transfer(target, bdd, rebuilt.bdd)
                image = transfer(rebuilt.pre_image(shipped), rebuilt.bdd, bdd)
                assert image == sym.pre_image(target)
        assert rebuilt._transition is None, "the worker built the product"

    def test_expansion_view_ships_its_materialised_relation(self):
        # a view's groups move only their component's atoms, which no
        # snapshot carries: the rebuilt system images through the relation
        from repro.systems.symbolic import composite_view

        view = composite_view(
            [SymbolicSystem.from_explicit(TokenRing(2).process(0))], {"other"}
        )
        rebuilt = build_system(spec_of_component(view), "symbolic")
        assert rebuilt.partitions is None

        def states(system, u):
            names = list(system.atoms)
            return {
                frozenset(a for a in names if assignment[a])
                for assignment in system.bdd.iter_sat(u, names)
            }

        for name in view.atoms:
            assert states(
                rebuilt, rebuilt.pre_image(rebuilt.bdd.var(name))
            ) == states(view, view.pre_image(view.bdd.var(name)))

    def test_compose_spec_builds_product(self):
        ring = TokenRing(2)
        spec = ComposeSpec(
            parts=tuple(
                spec_of_component(ring.process(i)) for i in range(2)
            )
        )
        product = build_system(spec, "explicit")
        assert product.sigma == ring.composite().sigma


class TestPickling:
    def test_work_item_round_trips(self):
        item = WorkItem(
            system=spec_of_component(CLIENT.symbolic()),
            formula=parse_ctl("EF (r.0)"),
            engine="symbolic",
            expand_to=("extra",),
            label="client",
        )
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item

    def test_outcome_result_round_trips(self):
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF tok"),
            engine="explicit",
        )
        outcome = run_work_item(item)
        clone = pickle.loads(pickle.dumps(outcome))
        assert bool(clone.result) == bool(outcome.result)
        assert clone.result.formula == outcome.result.formula


class TestRunWorkItem:
    def test_symbolic_outcome_carries_bdd_delta(self):
        item = WorkItem(
            system=spec_of_component(CLIENT.symbolic()),
            formula=parse_ctl("EF (r.0)"),
            engine="symbolic",
            label="client",
        )
        outcome = run_work_item(item)
        assert outcome.label == "client"
        assert outcome.bdd is not None
        assert outcome.bdd["mk_calls"] >= 0
        assert not outcome.cached
        assert run_work_item(item).cached  # second hit uses the cache

    def test_snapshot_spec_checks_like_the_original(self):
        # a source-less symbolic component travels as a manager snapshot
        # and verdicts match the in-process explicit oracle
        ring = TokenRing(2)
        sym = SymbolicSystem.from_explicit(ring.process(0))
        spec = spec_of_component(sym)
        assert isinstance(spec, SnapshotSpec)
        for text, expected in [("EF tok", True), ("AG tok", False)]:
            item = WorkItem(
                system=spec,
                formula=parse_ctl(text),
                engine="symbolic",
            )
            outcome = run_work_item(item)
            assert bool(outcome.result) is expected
            assert outcome.bdd is not None

    def test_explicit_outcome_has_no_bdd_delta(self):
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF tok"),
            engine="explicit",
        )
        outcome = run_work_item(item)
        assert outcome.bdd is None
        assert bool(outcome.result)

    def test_record_spans_ships_span_records(self):
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF tok"),
            engine="explicit",
            record_spans=True,
        )
        outcome = run_work_item(item)
        assert outcome.spans
        assert outcome.spans[0]["name"] == "worker.item"
        assert outcome.wall_origin > 0

    def test_no_spans_by_default(self):
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF tok"),
            engine="explicit",
        )
        assert run_work_item(item).spans == []

    def test_expansion_over_extra_atoms(self):
        # a formula over an atom the component does not own is only
        # checkable on the expansion, whose alphabet includes it
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("other | (! other)"),
            engine="explicit",
            expand_to=("other",),
        )
        assert bool(run_work_item(item).result)

    def test_expansion_extra_atom_only_stutters(self):
        # the expansion composes with an identity system: the extra atom
        # never changes value, so EF other fails where other is false
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF other"),
            engine="explicit",
            expand_to=("other",),
        )
        assert not bool(run_work_item(item).result)

    def test_symbolic_expansion_extra_atom_only_stutters(self):
        # the symbolic expansion view frames the extra atom the same way
        item = WorkItem(
            system=spec_of_component(TokenRing(2).process(0)),
            formula=parse_ctl("EF other"),
            engine="symbolic",
            expand_to=("other",),
        )
        assert not bool(run_work_item(item).result)


class TestWorkerCacheBounds:
    def test_caps_hold_across_more_specs_than_the_cap(self):
        from repro.parallel import worker

        specs = [
            ExplicitSpec(
                atoms=(f"a{i}",), edges=(((), (f"a{i}",)),), reflexive=True
            )
            for i in range(worker._CACHE_CAP + 5)
        ]
        for spec in specs:
            item = WorkItem(
                system=spec,
                formula=parse_ctl("EF " + spec.atoms[0]),
                engine="symbolic",
                expand_to=("z",),
            )
            assert bool(run_work_item(item).result)
            assert len(worker._SYSTEMS) <= worker._CACHE_CAP
            assert len(worker._CHECKERS) <= worker._CACHE_CAP
        # FIFO: the newest checker is still cached, the oldest was evicted
        for spec, cached in ((specs[-1], True), (specs[0], False)):
            item = WorkItem(
                system=spec,
                formula=parse_ctl("EF " + spec.atoms[0]),
                engine="symbolic",
                expand_to=("z",),
            )
            assert run_work_item(item).cached is cached
