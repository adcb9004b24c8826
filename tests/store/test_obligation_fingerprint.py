"""Obligation-fingerprint semantics: what replays and what misses.

The incremental proof engine is only sound if the fingerprint is
*stable* under noise (option insertion order, Σ* ordering, source
restyling, edge enumeration order) and *sensitive* to anything a
verdict depends on (component edits, the composite alphabet, the
formula, the restriction and the engine).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies.afs2 import client_source, client_source_variant
from repro.casestudies.afs_common import ProtocolComponent
from repro.logic.ctl import AX, Implies, atom
from repro.logic.restriction import UNRESTRICTED, Restriction
from repro.store.fingerprint import (
    component_fingerprint,
    obligation_fingerprint,
    proof_fingerprint,
)
from repro.systems.system import System

p, q = atom("p"), atom("q")
STEP = Implies(p, AX(p))
SIGMA = ("p", "q", "r")

# a tiny explicit component; its digest keys the hypothesis examples
TOY = System({"p", "q"}, [(frozenset({"p"}), frozenset({"p", "q"}))])
DIGEST = component_fingerprint(TOY)


def _fp(**overrides):
    base = dict(
        component=DIGEST,
        sigma_star=SIGMA,
        formula=STEP,
        restriction=UNRESTRICTED,
        engine="explicit",
        options=None,
    )
    base.update(overrides)
    return obligation_fingerprint(**base)


# ----------------------------------------------------------------------
# stability: representation noise must collide
# ----------------------------------------------------------------------
_option_values = st.one_of(
    st.booleans(),
    st.integers(-8, 8),
    st.sampled_from(["x", "y", "z"]),
)
_options = st.dictionaries(
    st.sampled_from(["reflexive", "alpha", "beta", "gamma"]),
    _option_values,
    max_size=5,
)


class TestStability:
    @settings(max_examples=50, deadline=None)
    @given(options=_options)
    def test_option_insertion_order_washes_out(self, options):
        forward = dict(options.items())
        backward = dict(reversed(list(options.items())))
        assert _fp(options=forward) == _fp(options=backward)

    def test_empty_options_and_none_collide(self):
        assert _fp(options=None) == _fp(options={})

    @settings(max_examples=30, deadline=None)
    @given(perm=st.permutations(list("pqrstu")))
    def test_sigma_star_order_washes_out(self, perm):
        assert _fp(sigma_star=perm) == _fp(sigma_star=sorted(perm))

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.frozensets(st.sampled_from("abc"), max_size=3),
                st.frozensets(st.sampled_from("abc"), max_size=3),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        data=st.data(),
    )
    def test_edge_enumeration_order_washes_out(self, edges, data):
        shuffled = data.draw(st.permutations(edges))
        a = component_fingerprint(System(set("abc"), edges))
        b = component_fingerprint(System(set("abc"), shuffled))
        assert a == b

    def test_smv_restyling_washes_out(self):
        source = client_source(1)
        restyled = "-- a comment the canonical form must erase\n" + (
            source.replace(";\n", ";  -- trailing noise\n", 1)
        )
        a = ProtocolComponent("Client1", source).symbolic()
        b = ProtocolComponent("Client1", restyled).symbolic()
        assert component_fingerprint(a) == component_fingerprint(b)

    def test_digest_and_system_forms_agree(self):
        assert _fp(component=TOY) == _fp(component=DIGEST)

    def test_unchanged_component_rendered_once(self, monkeypatch):
        import repro.store.fingerprint as fingerprint

        rendered = []
        render = fingerprint.behavior_text
        monkeypatch.setattr(
            fingerprint,
            "behavior_text",
            lambda model: rendered.append(model) or render(model),
        )
        # a source text no other test uses, so the memo starts cold
        source = "-- rendered-once probe\n" + client_source(1)
        first = component_fingerprint(
            ProtocolComponent("Client1", source).symbolic()
        )
        again = component_fingerprint(
            ProtocolComponent("Client1", source).symbolic()
        )
        assert first == again
        assert len(rendered) == 1
        assert first == component_fingerprint(
            ProtocolComponent("Client1", client_source(1)).symbolic()
        )


# ----------------------------------------------------------------------
# sensitivity: anything the verdict depends on must miss
# ----------------------------------------------------------------------
class TestSensitivity:
    def test_component_edit_misses(self):
        original = ProtocolComponent("Client1", client_source(1)).symbolic()
        edited = ProtocolComponent(
            "Client1", client_source_variant(1)
        ).symbolic()
        assert component_fingerprint(original) != component_fingerprint(edited)

    def test_sigma_star_growth_misses(self):
        assert _fp(sigma_star=SIGMA) != _fp(sigma_star=SIGMA + ("s",))

    def test_formula_misses(self):
        assert _fp(formula=STEP) != _fp(formula=Implies(q, AX(q)))

    def test_restriction_misses(self):
        assert _fp(restriction=UNRESTRICTED) != _fp(
            restriction=Restriction(init=p)
        )

    def test_engine_misses(self):
        assert _fp(engine="explicit") != _fp(engine="symbolic")

    def test_explicit_edge_change_misses(self):
        grown = System(
            {"p", "q"},
            [
                (frozenset({"p"}), frozenset({"p", "q"})),
                (frozenset({"q"}), frozenset()),
            ],
        )
        assert component_fingerprint(TOY) != component_fingerprint(grown)

    def test_smv_reflexivity_misses(self):
        component = ProtocolComponent("Client1", client_source(1))
        assert component_fingerprint(
            component.symbolic(reflexive=True)
        ) != component_fingerprint(component.symbolic(reflexive=False))

    def test_reflexivity_misses(self):
        pairs = [(frozenset({"p"}), frozenset({"p", "q"}))]
        assert component_fingerprint(
            System({"p", "q"}, pairs, reflexive=True)
        ) != component_fingerprint(System({"p", "q"}, pairs, reflexive=False))


# ----------------------------------------------------------------------
# proof-level fingerprints: a sorted multiset
# ----------------------------------------------------------------------
class TestProofFingerprint:
    @settings(max_examples=30, deadline=None)
    @given(
        fps=st.lists(st.text("0123456789abcdef", min_size=4, max_size=4)),
        data=st.data(),
    )
    def test_order_washes_out_multiplicity_does_not(self, fps, data):
        shuffled = data.draw(st.permutations(fps))
        assert proof_fingerprint(fps) == proof_fingerprint(shuffled)
        assert proof_fingerprint(fps + ["ffff"]) != proof_fingerprint(fps)

    def test_duplicates_are_kept(self):
        assert proof_fingerprint(["aa", "aa"]) != proof_fingerprint(["aa"])
