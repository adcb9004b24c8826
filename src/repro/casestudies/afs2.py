"""AFS-2 — callback-based cache coherence with failures and updates (§4.3).

AFS-2 extends AFS-1: the server promises to notify ("callback") clients
whose cached copy gets invalidated by another client's update, failures
may strike at any time, and a *transmission delay* is modeled by the
shared boolean ``time_i`` — the server sets it false when an invalidation
message is in flight, the client sets it true when it takes its next step.

Model reconstruction
--------------------
The paper's Figure 12 prints only a fragment ("variable declarations
omitted, see appendix") and Figure 13 leaves ``response``/``failure``
unassigned.  We reconstruct the intended models:

* each module *pins* the variables it merely reads (``next(x) := x``) so
  interleaving composition gives them a single writer — the exception is
  ``failure``, which stays unconstrained (free) in every module: a failure
  may be injected by the environment at any step, exactly the paper's
  "a failure might occur at any time during a run";
* Figure 13's client must pin ``response`` (otherwise its own spec Cli1,
  reported true in Figure 17, would be false) — this is how we resolve the
  omitted appendix;
* the server is *parametric in the number of clients n*: client ``j``'s
  ``update`` revokes the callback of every other client ``i`` (Figure 12
  shows the ``n = 2`` instance where ``request2 = update`` invalidates
  client 1's copy).

Properties
----------
(Afs1) for AFS-2 (§4.3.1): for every client i::

    AG (Client_i.belief = valid  ⇒  Server.belief_i = valid ∨ ¬time_i)

proved from the inductive invariant ``Inv`` (§4.3.4) — ``Inv ⇒ AX Inv``
is universal, so it is checked on the server expansion and each client
expansion separately; composition is never built.  This is the experiment
where compositional checking is *linear* in n while the monolithic check
is exponential (see ``benchmarks/bench_scaling_compositional_vs_monolithic``).
"""

from __future__ import annotations

from repro.compositional.proof import CompositionProof, Proven
from repro.logic.ctl import Formula, Implies, Not, Or, land
from repro.casestudies.afs_common import ProtocolComponent
from repro.smv.run import SmvReport, check_source


# ----------------------------------------------------------------------
# source generators
# ----------------------------------------------------------------------
def server_source(n: int = 2, rename: bool = True) -> str:
    """SMV source of the AFS-2 server managing ``n`` clients.

    ``rename=True`` produces the composition names (``Server.belief1``);
    ``rename=False`` matches the paper's Figure 12 names (``belief1``).
    """
    if n < 1:
        raise ValueError("need at least one client")
    b = (lambda i: f"Server.belief{i}") if rename else (lambda i: f"belief{i}")
    lines = ["MODULE main", "VAR", "  failure : boolean;"]
    for i in range(1, n + 1):
        lines += [
            f"  validFile{i} : boolean;",
            f"  {b(i)} : {{nocall, valid}};",
            f"  response{i} : {{null, val, inval}};",
            f"  time{i} : boolean;",
            f"  request{i} : {{null, fetch, validate, update}};",
        ]
    lines.append("ASSIGN")
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        update_guard = " | ".join(f"(request{j} = update)" for j in others)
        lines.append(f"  next(validFile{i}) := validFile{i};")
        # the server reads the clients' request channels but never writes them
        lines.append(f"  next(request{i}) := request{i};")
        lines.append(f"  next({b(i)}) :=")
        lines.append("    case")
        lines.append(f"      failure : nocall;")
        lines.append(f"      ({b(i)} = nocall) & (request{i} = fetch) : valid;")
        lines.append(
            f"      ({b(i)} = nocall) & (request{i} = validate) & validFile{i} : valid;"
        )
        lines.append(
            f"      ({b(i)} = nocall) & (request{i} = validate) & !validFile{i} : nocall;"
        )
        if others:
            lines.append(f"      ({b(i)} = valid) & ({update_guard}) : nocall;")
        lines.append(f"      1 : {b(i)};")
        lines.append("    esac;")
        lines.append(f"  next(response{i}) :=")
        lines.append("    case")
        lines.append(f"      failure : null;")
        lines.append(f"      ({b(i)} = nocall) & (request{i} = fetch) : val;")
        lines.append(
            f"      ({b(i)} = nocall) & (request{i} = validate) & validFile{i} : val;"
        )
        lines.append(
            f"      ({b(i)} = nocall) & (request{i} = validate) & !validFile{i} : inval;"
        )
        if others:
            lines.append(f"      ({b(i)} = valid) & ({update_guard}) : inval;")
        lines.append(f"      1 : response{i};")
        lines.append("    esac;")
        lines.append(f"  next(time{i}) :=")
        lines.append("    case")
        lines.append(f"      failure : 0;")
        lines.append(
            f"      ({b(i)} = nocall) & (request{i} = validate) & !validFile{i} : 0;"
        )
        if others:
            lines.append(f"      ({b(i)} = valid) & ({update_guard}) : 0;")
        lines.append(f"      1 : time{i};")
        lines.append("    esac;")
    return "\n".join(lines)


def client_source(i: int = 1, rename: bool = True) -> str:
    """SMV source of AFS-2 client ``i``.

    ``rename=True`` produces composition names (``Client1.belief``,
    ``request1``); ``rename=False`` matches Figure 13 (``belief``,
    ``request``).
    """
    b = f"Client{i}.belief" if rename else "belief"
    sfx = str(i) if rename else ""
    return f"""
MODULE main
VAR
  time{sfx} : boolean;
  request{sfx} : {{null, fetch, validate, update}};
  {b} : {{valid, suspect, nofile}};
  response{sfx} : {{null, val, inval}};
  failure : boolean;
ASSIGN
  -- the client reads the server's response channel but never writes it
  next(response{sfx}) := response{sfx};
  next({b}) :=
    case
      ({b} = nofile) & (response{sfx} = val) : valid;
      ({b} = suspect) & (response{sfx} = val) : valid;
      ({b} = suspect) & (response{sfx} = inval) : nofile;
      ({b} = valid) & failure : suspect;
      ({b} = valid) & (response{sfx} = inval) : nofile;
      1 : {b};
    esac;
  next(request{sfx}) :=
    case
      ({b} = nofile) & (response{sfx} = null) : {{fetch, null}};
      ({b} = suspect) & (response{sfx} = null) : {{validate, null}};
      ({b} = valid) & failure : null;
      ({b} = valid) & (response{sfx} = inval) : null;
      ({b} = valid) & (response{sfx} != inval) : update;
      1 : request{sfx};
    esac;
  next(time{sfx}) :=
    case
      ({b} = nofile) & (response{sfx} = val) : 1;
      ({b} = suspect) & (response{sfx} = val) : 1;
      ({b} = suspect) & (response{sfx} = inval) : 1;
      ({b} = valid) & failure : 1;
      ({b} = valid) & (response{sfx} = inval) : 1;
      1 : time{sfx};
    esac;
"""


def client_source_variant(i: int = 1, rename: bool = True) -> str:
    """:func:`client_source` after a semantically-neutral edit.

    Swaps the first two ``case`` branches of ``next(belief)``.  The two
    guards are mutually exclusive and both map to ``valid``, so the
    transition function — and every proof obligation's verdict — is
    unchanged; but the elaborated module's canonical text differs, so
    the edited client's obligation fingerprints miss while Σ* and every
    other component's records are untouched.  This is the "edit one
    component" step of ``tests/store/test_incremental_proof.py``.
    """
    source = client_source(i, rename)
    b = f"Client{i}.belief" if rename else "belief"
    sfx = str(i) if rename else ""
    first = f"      ({b} = nofile) & (response{sfx} = val) : valid;\n"
    second = f"      ({b} = suspect) & (response{sfx} = val) : valid;\n"
    edited = source.replace(first + second, second + first)
    if edited == source:
        raise ValueError(
            "client_source layout changed; update client_source_variant"
        )
    return edited


# ----------------------------------------------------------------------
# figure reproductions (Figures 12–17)
# ----------------------------------------------------------------------
SERVER_SPECS_FIGURE = """
-- Specification of the Server of the AFS-2 (paper Figure 14)
-- Srv1
SPEC (belief1 = valid | !time1) -> AX (belief1 = valid | !time1)
-- Srv2
SPEC (response1 = val -> belief1 = valid) ->
     AX (response1 = val -> belief1 = valid)
"""

CLIENT_SPECS_FIGURE = """
-- Specification of the Client of the AFS-2 (paper Figure 16)
-- Cli1
SPEC ((belief = valid -> !time) & response != val) ->
     AX ((belief = valid -> !time) & response != val)
"""


def check_server_figure(n: int = 2) -> SmvReport:
    """Model-check the AFS-2 server (Srv1/Srv2) — Figure 15's output."""
    return check_source(server_source(n, rename=False) + SERVER_SPECS_FIGURE)


def check_client_figure() -> SmvReport:
    """Model-check the AFS-2 client (Cli1) — Figure 17's output."""
    return check_source(client_source(rename=False) + CLIENT_SPECS_FIGURE)


# ----------------------------------------------------------------------
# compositional safety proof, parametric in n
# ----------------------------------------------------------------------
class Afs2:
    """Vocabulary and safety proof for AFS-2 with ``n`` clients."""

    def __init__(
        self,
        n: int = 2,
        backend: str = "symbolic",
        jobs: int | None = None,
        store=None,
        variant_client: int | None = None,
    ):
        if n < 1:
            raise ValueError("need at least one client")
        if variant_client is not None and not (1 <= variant_client <= n):
            raise ValueError(f"variant_client {variant_client} out of range")
        self.n = n
        self.backend = backend
        self.jobs = jobs
        #: A :class:`~repro.store.ResultStore` making proofs incremental:
        #: unchanged components replay their obligations from disk.
        self.store = store
        self.server = ProtocolComponent("server", server_source(n))
        self.clients = [
            ProtocolComponent(
                f"client{i}",
                client_source_variant(i)
                if i == variant_client
                else client_source(i),
            )
            for i in range(1, n + 1)
        ]

    # formula vocabulary ---------------------------------------------------
    def sb(self, i: int, value: str) -> Formula:
        """``Server.belief_i = value``."""
        return self.server.eq(f"Server.belief{i}", value)

    def cb(self, i: int, value: str) -> Formula:
        """``Client_i.belief = value``."""
        return self.clients[i - 1].eq(f"Client{i}.belief", value)

    def resp(self, i: int, value: str) -> Formula:
        """``response_i = value``."""
        return self.server.eq(f"response{i}", value)

    def time(self, i: int) -> Formula:
        """``time_i`` (true = transmission window expired)."""
        return self.server.eq(f"time{i}", True)

    def req(self, i: int, value: str) -> Formula:
        """``request_i = value``."""
        return self.server.eq(f"request{i}", value)

    def invariant(self) -> Formula:
        """§4.3.1's ``Inv``, conjoined over all clients."""
        parts = []
        for i in range(1, self.n + 1):
            parts.append(
                Implies(
                    self.cb(i, "valid"),
                    Or(self.sb(i, "valid"), Not(self.time(i))),
                )
            )
            parts.append(Implies(self.resp(i, "val"), self.sb(i, "valid")))
        return land(*parts)

    def initial(self) -> Formula:
        """§4.3.1's initial condition ``I`` plus encoding validity."""
        parts = [self.server.valid()]
        for i, client in enumerate(self.clients, start=1):
            parts.append(client.valid())
            parts.append(Or(self.cb(i, "nofile"), self.cb(i, "suspect")))
            parts.append(self.req(i, "null"))
            parts.append(self.sb(i, "nocall"))
            parts.append(self.resp(i, "null"))
        return land(*parts)

    def afs1_property(self) -> Formula:
        """The (Afs1) matrix for AFS-2: valid copies are covered or in flight."""
        return land(
            *(
                Implies(
                    self.cb(i, "valid"),
                    Or(self.sb(i, "valid"), Not(self.time(i))),
                )
                for i in range(1, self.n + 1)
            )
        )

    def combined_encoding(self):
        """One Encoding over the server's and clients' variables."""
        from repro.systems.encode import Encoding

        merged = list(self.server.model.encoding.variables)
        seen = {v.name for v in merged}
        for client in self.clients:
            for v in client.model.encoding.variables:
                if v.name not in seen:
                    seen.add(v.name)
                    merged.append(v)
        return Encoding(merged)

    def proof(self) -> CompositionProof:
        """Fresh proof context over server + n clients."""
        if self.backend == "symbolic":
            components = {"server": self.server.symbolic()}
            for i, c in enumerate(self.clients, start=1):
                components[f"client{i}"] = c.symbolic()
        else:
            components = {"server": self.server.system()}
            for i, c in enumerate(self.clients, start=1):
                components[f"client{i}"] = c.system()
        return CompositionProof(
            components,
            backend=self.backend,  # type: ignore[arg-type]
            parallel=self.jobs,
            store=self.store,
        )

    def prove_safety(self) -> tuple[CompositionProof, Proven]:
        """Machine-checked §4.3.4: the n-client composite satisfies (Afs1).

        ``n + 1`` model-checking obligations (one per expansion), each
        linear in the number of components — never the product system.
        """
        pf = self.proof()
        ag_inv = pf.invariant(self.initial(), self.invariant())
        afs1 = pf.ag_weaken(ag_inv, self.afs1_property())
        return pf, afs1


def prove_afs2_safety(
    n: int = 2,
    backend: str = "symbolic",
    jobs: int | None = None,
    store=None,
) -> tuple[CompositionProof, Proven]:
    """Convenience wrapper: the AFS-2 (Afs1) safety proof for n clients."""
    return Afs2(n, backend, jobs=jobs, store=store).prove_safety()
