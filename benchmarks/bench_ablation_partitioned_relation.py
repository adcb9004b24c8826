"""Ablation A5 — materialised expansion vs lazy expansion view.

A proof obligation on a component ``M`` is checked on its expansion
``M ∘ (Σ*∖Σ_M, I)``, the one-component :func:`composite_view` — ``M``'s
partitions moved into a Σ* manager.  The materialised side builds the
view's ``transition`` (frame on the extra atoms, product, stutter
closure) and takes one relational product through it.  The lazy side
images through the target's cone, adding the stutter step as ``∨ Q``.  Measured on the AFS-2 server of the n = 3 proof: building
the expansion plus the pre-image of ``¬Inv``, the image its
``Inv ⇒ AX Inv`` obligation takes (unsplit on both sides).
"""

from repro.bdd.formula import prop_to_bdd
from repro.bdd.ops import transfer
from repro.casestudies.afs2 import Afs2
from repro.logic.ctl import Not
from repro.systems.symbolic import composite_view, primed


def _setup():
    study = Afs2(3)
    pf = study.proof()
    server = pf.components["server"]
    extra = pf.sigma_star - set(server.atoms)
    return server, extra, Not(study.invariant())


def _materialised(server, extra, target):
    expanded = composite_view([server], extra)
    bdd = expanded.bdd
    image = bdd.and_exists(
        expanded.transition,
        bdd.rename(
            prop_to_bdd(bdd, target), {a: primed(a) for a in expanded.atoms}
        ),
        [primed(a) for a in expanded.atoms],
    )
    return expanded, image


def _lazy(server, extra, target):
    view = composite_view([server], extra)
    return view, view.pre_image(prop_to_bdd(view.bdd, target))


def test_a5_materialised_expansion(benchmark):
    server, extra, target = _setup()
    expanded, image = benchmark(_materialised, server, extra, target)
    assert image != 0


def test_a5_lazy_expansion_view(benchmark):
    server, extra, target = _setup()
    view, image = benchmark(_lazy, server, extra, target)
    expanded, expected = _materialised(server, extra, target)
    # exactness: node-equal to the materialised image, in the view's manager
    assert image == transfer(expected, expanded.bdd, view.bdd)
