"""Shared plumbing for the AFS case studies.

A :class:`ProtocolComponent` wraps an SMV source: it lazily elaborates the
model and provides the three views the case studies need — the raw SMV
semantics for figure reproduction, a reflexive (paper-style) system for
composition, and formula builders (``eq``/``state``/``valid``) over the
encoded atoms for writing specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.logic.ctl import Formula, land
from repro.smv.compile_explicit import to_system
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.elaborate import SmvModel
from repro.smv.parser import parse_module
from repro.systems.symbolic import SymbolicSystem
from repro.systems.system import System

# Process-wide memos keyed by source text.  Elaboration and symbolic
# compilation are pure functions of the source, and study objects are
# rebuilt per proof — without the memos an incremental *re*check would
# pay the full compile cost for components whose obligations all replay
# from the store.  Bounded FIFO: component sets are tiny in practice.
_MEMO_CAP = 64
_MODEL_MEMO: dict[str, SmvModel] = {}
_SYMBOLIC_MEMO: dict[tuple[str, bool], SymbolicSystem] = {}


def _memo_put(memo: dict, key, value):
    while len(memo) >= _MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value
    return value


def shared_model(source: str) -> SmvModel:
    """The elaborated model for ``source`` (memoized process-wide)."""
    model = _MODEL_MEMO.get(source)
    if model is None:
        model = _memo_put(_MODEL_MEMO, source, SmvModel(parse_module(source)))
    return model


@dataclass
class ProtocolComponent:
    """One protocol participant defined by SMV source text."""

    name: str
    source: str
    _model: SmvModel | None = field(default=None, repr=False)

    @property
    def model(self) -> SmvModel:
        """The elaborated SMV model (parsed on first use)."""
        if self._model is None:
            self._model = shared_model(self.source)
        return self._model

    # ------------------------------------------------------------------
    # systems
    # ------------------------------------------------------------------
    def system(self, reflexive: bool = True) -> System:
        """Explicit system; reflexive (stutter-closed) by default."""
        return to_system(self.model, reflexive=reflexive)

    def symbolic(self, reflexive: bool = True) -> SymbolicSystem:
        """Symbolic system; reflexive (stutter-closed) by default.

        The SMV source rides along (``smv_source``/``smv_reflexive``)
        so the parallel engine can rebuild the system in worker
        processes (:func:`repro.parallel.workitem.spec_of_component`).
        Compiled systems are shared per ``(source, reflexive)``:
        components are immutable value objects, so a recheck of an
        unchanged component reuses the compiled relation.
        """
        key = (self.source, reflexive)
        sym = _SYMBOLIC_MEMO.get(key)
        if sym is None:
            sym = to_symbolic(self.model, reflexive=reflexive)
            sym.smv_source = self.source
            sym.smv_reflexive = reflexive
            _memo_put(_SYMBOLIC_MEMO, key, sym)
        return sym

    # ------------------------------------------------------------------
    # formula builders
    # ------------------------------------------------------------------
    def eq(self, var: str, value: Hashable) -> Formula:
        """``var = value`` over the encoded boolean atoms."""
        return self.model.encoding.eq_formula(var, value)

    def state(self, assignment: dict[str, Hashable]) -> Formula:
        """Conjunction of equalities, e.g. ``{"belief": "nofile", "r": "null"}``."""
        return land(*(self.eq(var, val) for var, val in assignment.items()))

    def valid(self) -> Formula:
        """The component's non-junk-encoding predicate."""
        return self.model.valid_formula()
