"""repro — compositional CTL model checking.

A production-quality reproduction of *An Approach to Compositional Model
Checking* (Hector Andrade and Beverly Sanders, TR-02-006, University of
Florida, 2002): interleaving system composition, fair CTL, explicit and
symbolic (BDD) model checkers, an SMV-subset front end, the paper's
universal/existential/guarantees property theory (Rules 1–5, Lemmas 1–11)
as a machine-checked proof engine, and the AFS-1/AFS-2 cache-coherence
case studies.

Quickstart
----------
>>> from repro import System, compose, ExplicitChecker, parse_ctl
>>> m = System.from_pairs({"x"}, [((), ("x",))])
>>> n = System.from_pairs({"y"}, [((), ("y",))])
>>> bool(ExplicitChecker(compose(m, n)).holds(parse_ctl("!x -> EX x")))
True
"""

from repro.checking import (
    CheckResult,
    CheckStats,
    ExplicitChecker,
    SymbolicChecker,
)
from repro.logic import (
    UNRESTRICTED,
    Formula,
    Restriction,
    atom,
    land,
    lor,
    parse_ctl,
)
from repro.systems import (
    Encoding,
    FiniteVar,
    SymbolicSystem,
    System,
    compose,
    compose_all,
    expand,
    identity_system,
)

__version__ = "1.0.0"

__all__ = [
    "System",
    "identity_system",
    "compose",
    "compose_all",
    "expand",
    "SymbolicSystem",
    "Encoding",
    "FiniteVar",
    "Formula",
    "atom",
    "land",
    "lor",
    "parse_ctl",
    "Restriction",
    "UNRESTRICTED",
    "ExplicitChecker",
    "SymbolicChecker",
    "CheckResult",
    "CheckStats",
    "__version__",
]
