"""Monolithic (non-compositional) verification baseline.

The paper's Discussion observes that its approach makes verification
"linear (as opposed to exponential) in terms of the number of
components".  This module is the *exponential* side of that comparison:
build the full composite and model-check the global property on it
directly.  The scaling benchmark sweeps the number of AFS-2 clients and
measures both sides; symbolically both run on one image engine, since the
composite is a view over the components' own partitions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.checking.explicit import ExplicitChecker
from repro.checking.result import CheckResult
from repro.checking.symbolic import SymbolicChecker
from repro.logic.ctl import Formula
from repro.logic.restriction import UNRESTRICTED, Restriction
from repro.obs.tracer import TRACER
from repro.systems.compose import composite
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System


@dataclass
class MonolithicReport:
    """Outcome and cost of a product-system check."""

    result: CheckResult
    num_atoms: int
    num_states: float
    build_time: float
    check_time: float

    @property
    def total_time(self) -> float:
        return self.build_time + self.check_time


def check_monolithic(
    components: Mapping[str, System | SymbolicSystem],
    formula: Formula,
    restriction: Restriction = UNRESTRICTED,
    backend: str = "explicit",
) -> MonolithicReport:
    """Compose everything, then model-check the property on the composite."""
    with TRACER.span(
        "monolithic.build", category="baseline", backend=backend
    ) as build_span:
        system = composite(components.values(), backend)
        if isinstance(system, SymbolicSystem):
            checker = SymbolicChecker(system)
            num_atoms = len(system.atoms)
        else:
            checker = ExplicitChecker(system)
            num_atoms = len(system.sigma)
    build_time = build_span.duration
    with TRACER.span("monolithic.check", category="baseline") as check_span:
        result = checker.holds(formula, restriction)
    check_time = check_span.duration
    return MonolithicReport(
        result=result,
        num_atoms=num_atoms,
        num_states=float(2**num_atoms),
        build_time=build_time,
        check_time=check_time,
    )
