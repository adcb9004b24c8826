"""SMV ``process`` instances → paper-style interleaving components.

SMV's ``process`` keyword selects interleaving semantics: at each step one
process runs and every variable it does not assign keeps its value.  That
is exactly the paper's composition ``∘`` of reflexive components — so a
multi-process SMV program is a *complete compositional verification
problem in one file*::

    MODULE main
    VAR
      r : {null, fetch, val};
      server : process serverproc(r);
      client : process clientproc(r);
    SPEC AG (client.got -> r = val)

``load_processes`` splits such a program into one elaborated
:class:`~repro.smv.elaborate.SmvModel` per process instance (each over its
own variables plus the shared main-level state, which it pins unless it
assigns it), plus the main-level ``SPEC``/``FAIRNESS``/``INIT`` items
elaborated over the combined vocabulary.  From there,
:meth:`ProcessProgram.proof` enters the compositional framework and
:func:`check_processes` model-checks the main specs against the
interleaving composite.

Supported shape (kept deliberately strict): with processes present, main
may contain only plain variable declarations, process instances, ``INIT``,
``SPEC`` and ``FAIRNESS`` — main-level ``ASSIGN``/``DEFINE`` and mixing
synchronous submodule instances raise :class:`ElaborationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ElaborationError
from repro.logic.ctl import Formula, TRUE, land
from repro.smv.ast import (
    Assign,
    BinOp,
    Case,
    Expr,
    InstanceType,
    Module,
    Name,
    SetLit,
    SpecAtom,
    SpecBinary,
    SpecNode,
    SpecUnary,
    UnaryOp,
    VarDecl,
)
from repro.smv.elaborate import SmvModel
from repro.smv.modules import _flatten_into
from repro.smv.parser import parse_program


def _expr_names(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, Name):
        out.add(expr.ident)
    elif isinstance(expr, UnaryOp):
        _expr_names(expr.operand, out)
    elif isinstance(expr, BinOp):
        _expr_names(expr.left, out)
        _expr_names(expr.right, out)
    elif isinstance(expr, SetLit):
        for c in expr.choices:
            _expr_names(c, out)
    elif isinstance(expr, Case):
        for c, v in expr.branches:
            _expr_names(c, out)
            _expr_names(v, out)


def _spec_names(node: SpecNode, out: set[str]) -> None:
    if isinstance(node, SpecAtom):
        _expr_names(node.expr, out)
    elif isinstance(node, SpecUnary):
        _spec_names(node.operand, out)
    elif isinstance(node, SpecBinary):
        _spec_names(node.left, out)
        _spec_names(node.right, out)


@dataclass
class ProcessProgram:
    """A split multi-process program: components + global specification."""

    components: dict[str, SmvModel]
    #: SmvModel over *all* variables (no transitions) — the vocabulary for
    #: elaborating main-level formulas and for `Encoding.describe`.
    vocabulary: SmvModel
    specs: list[Formula] = field(default_factory=list)
    spec_nodes: list[SpecNode] = field(default_factory=list)
    fairness: list[Formula] = field(default_factory=list)
    init: Formula = TRUE

    def systems(self) -> dict:
        """Reflexive explicit systems, ready for :class:`CompositionProof`."""
        from repro.smv.compile_explicit import to_system

        return {
            name: to_system(model, reflexive=True)
            for name, model in self.components.items()
        }

    def symbolic_systems(self) -> dict:
        """Reflexive symbolic systems (for large alphabets)."""
        from repro.smv.compile_symbolic import to_symbolic

        return {
            name: to_symbolic(model, reflexive=True)
            for name, model in self.components.items()
        }

    def proof(self, backend: str = "explicit"):
        """A :class:`CompositionProof` over the process components."""
        from repro.compositional.proof import CompositionProof

        components = (
            self.symbolic_systems() if backend == "symbolic" else self.systems()
        )
        return CompositionProof(components, backend=backend)  # type: ignore[arg-type]


def load_processes(source: str) -> ProcessProgram:
    """Parse and split a multi-process SMV program."""
    program = parse_program(source)
    main = program.get("main")
    if main is None:
        raise ElaborationError("process programs need a main module")
    process_decls = [
        d
        for d in main.variables
        if d.is_instance and isinstance(d.type, InstanceType) and d.type.process
    ]
    if not process_decls:
        raise ElaborationError("main declares no process instances")
    if main.assigns or main.defines:
        raise ElaborationError(
            "main-level ASSIGN/DEFINE are not supported alongside processes"
        )
    if any(
        d.is_instance and not d.type.process  # type: ignore[union-attr]
        for d in main.variables
    ):
        raise ElaborationError(
            "mixing synchronous and process instances in main is not supported"
        )
    shared_decls = {d.name: d for d in main.variables if not d.is_instance}

    components: dict[str, SmvModel] = {}
    all_prefixed_decls: list[VarDecl] = []
    for decl in process_decls:
        inst = decl.type
        assert isinstance(inst, InstanceType)
        if inst.module not in program:
            raise ElaborationError(
                f"process {decl.name!r} instantiates unknown module "
                f"{inst.module!r}"
            )
        flat = Module(name=decl.name)
        target = program[inst.module]
        if len(inst.args) != len(target.params):
            raise ElaborationError(
                f"module {inst.module!r} expects {len(target.params)} "
                f"argument(s), process {decl.name!r} passes {len(inst.args)}"
            )
        bound = dict(zip(target.params, inst.args))
        _flatten_into(
            program, inst.module, f"{decl.name}.", bound, ("main",), flat
        )
        all_prefixed_decls.extend(flat.variables)
        # declare referenced shared variables; pin the unassigned ones
        # (SMV process semantics: variables the running process does not
        # assign retain their values)
        referenced: set[str] = set()
        for assign in flat.assigns:
            _expr_names(assign.rhs, referenced)
        for body in flat.defines.values():
            _expr_names(body, referenced)
        for constraint in flat.init_constraints:
            _expr_names(constraint, referenced)
        for spec in flat.specs + flat.fairness:
            _spec_names(spec, referenced)
        assigned = {a.target for a in flat.assigns if a.kind == "next"}
        for name, shared in shared_decls.items():
            if name in referenced or name in assigned:
                flat.variables.append(shared)
                if name not in assigned:
                    flat.assigns.append(Assign("next", name, Name(name)))
        components[decl.name] = SmvModel(flat)

    # the combined vocabulary: shared + every process's variables
    vocab_module = Module(
        name="vocabulary",
        variables=list(shared_decls.values()) + all_prefixed_decls,
    )
    vocabulary = SmvModel(vocab_module)

    specs = [vocabulary.spec_formula(s) for s in main.specs]
    fairness = [vocabulary.spec_formula(s) for s in main.fairness]
    init_parts = [vocabulary.bool_formula(c) for c in main.init_constraints]
    init_parts.append(vocabulary.valid_formula())
    return ProcessProgram(
        components=components,
        vocabulary=vocabulary,
        specs=specs,
        spec_nodes=list(main.specs),
        fairness=fairness,
        init=land(*init_parts) if init_parts else TRUE,
    )


def check_processes(source: str, backend: str = "symbolic"):
    """Model-check the main SPECs against the interleaving composite.

    Returns an :class:`~repro.smv.run.SmvReport`-style report; the
    composite is built with the paper's ``∘`` (symbolically by default),
    so this is the *monolithic* semantics for process programs — the
    compositional route is :meth:`ProcessProgram.proof`.
    """
    from repro.checking.explicit import ExplicitChecker
    from repro.checking.symbolic import SymbolicChecker
    from repro.logic.restriction import Restriction
    from repro.obs.tracer import TRACER
    from repro.smv.pretty import spec_to_str
    from repro.smv.run import SmvReport
    from repro.systems.compose import composite

    with TRACER.span(
        "smv.check_processes", category="smv", backend=backend
    ) as root:
        with TRACER.span("smv.load_processes", category="smv"):
            split = load_processes(source)
        with TRACER.span("smv.compose", category="smv", backend=backend):
            if backend == "symbolic":
                system = composite(split.symbolic_systems().values(), backend)
                checker = SymbolicChecker(system)
                # the components' own relations: the view builds no product
                nodes, transition = (
                    system.bdd.nodes_allocated,
                    system.node_count(),
                )
            else:
                checker = ExplicitChecker(
                    composite(split.systems().values(), backend)
                )
                nodes = transition = 0
        restriction = Restriction(
            init=split.init, fairness=tuple(split.fairness) or (TRUE,)
        )
        report = SmvReport(
            module_name="main",
            spec_texts=[spec_to_str(s) for s in split.spec_nodes],
        )
        for spec in split.specs:
            report.results.append(checker.holds(spec, restriction))
            report.counterexamples.append(None)
        report.user_time = root.elapsed()
    report.bdd_nodes_allocated = nodes
    report.transition_nodes = transition
    report.num_fairness = len([f for f in split.fairness if f != TRUE])
    return report
