"""Conclusion manifests — system-level properties as a regression artifact.

A finished :class:`CompositionProof` establishes a set of restricted
properties of the composite.  :func:`save_conclusions` serializes them to
JSON (formulas in concrete CTL syntax); :func:`check_manifest` re-checks
every entry against a set of components — monolithically, on the real
``∘``-composite — so a CI job can pin "the system still satisfies
everything we ever proved about it" without re-running the proofs.
"""

from __future__ import annotations

import json

from repro.checking.explicit import ExplicitChecker
from repro.checking.symbolic import SymbolicChecker
from repro.compositional.proof import CompositionProof
from repro.logic.ctl import Formula
from repro.logic.parser import parse_ctl
from repro.logic.restriction import Restriction
from repro.systems.compose import composite
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System


def save_conclusions(pf: CompositionProof) -> str:
    """Serialize every recorded conclusion (formula + restriction) to JSON."""
    entries = []
    for proven in pf.conclusions:
        entries.append(
            {
                "formula": str(proven.formula),
                "init": str(proven.restriction.init),
                "fairness": [str(f) for f in proven.restriction.fairness],
                "derived_by": proven.step.kind,
            }
        )
    return json.dumps(
        {
            "components": sorted(pf.components),
            "conclusions": entries,
        },
        indent=2,
    )


def load_conclusions(text: str) -> list[tuple[Formula, Restriction]]:
    """Parse a manifest back into checkable (formula, restriction) pairs."""
    data = json.loads(text)
    out: list[tuple[Formula, Restriction]] = []
    for entry in data["conclusions"]:
        formula = parse_ctl(entry["formula"])
        restriction = Restriction(
            init=parse_ctl(entry["init"]),
            fairness=tuple(parse_ctl(f) for f in entry["fairness"]),
        )
        out.append((formula, restriction))
    return out


def check_manifest(
    text: str,
    components: dict[str, System | SymbolicSystem],
    backend: str = "explicit",
) -> list[tuple[Formula, Restriction, bool]]:
    """Re-check every manifest conclusion on the composite of ``components``.

    Returns ``(formula, restriction, holds)`` triples; a ``False`` anywhere
    means the current components no longer satisfy a previously-proven
    system property.
    """
    system = composite(components.values(), backend)
    checker = (
        SymbolicChecker(system)
        if isinstance(system, SymbolicSystem)
        else ExplicitChecker(system)
    )
    results = []
    for formula, restriction in load_conclusions(text):
        results.append(
            (formula, restriction, bool(checker.holds(formula, restriction)))
        )
    return results
