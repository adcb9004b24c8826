"""Systems ``(Σ, R)``: explicit and symbolic representations, composition."""

from repro.systems.builders import chain, cycle, riser, system_from_function, toggle
from repro.systems.compose import compose, compose_all, composite, expand
from repro.systems.encode import Encoding, FiniteVar
from repro.systems.symbolic import SymbolicSystem, composite_view
from repro.systems.system import MAX_EXPLICIT_ATOMS, System, all_states, identity_system

__all__ = [
    "System",
    "identity_system",
    "all_states",
    "MAX_EXPLICIT_ATOMS",
    "compose",
    "system_from_function",
    "toggle",
    "riser",
    "chain",
    "cycle",
    "compose_all",
    "composite",
    "expand",
    "Encoding",
    "FiniteVar",
    "SymbolicSystem",
    "composite_view",
]
