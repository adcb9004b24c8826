"""Fingerprints pinned to recorded digests.

Every store record is addressed by these digests.  A change to the
parser, the elaborator or the canonical rendering that moves one of them
would silently orphan every existing store, so a drift must fail here
and come with a :data:`~repro.store.fingerprint.STORE_SCHEMA_VERSION`
bump.  Each digest is the first 16 hex digits of the SHA-256.
"""

from pathlib import Path

import pytest

from repro.casestudies import afs1, afs2
from repro.smv.run import load_model
from repro.store.fingerprint import report_fingerprint, spec_fingerprint

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: DEFINE, INIT, FAIRNESS, a range type and both untils, which the
#: figure sources lack.
FEATURES = """
MODULE main
VAR
  x : boolean;
  s : {idle, busy, done};
  n : 0..3;
DEFINE ready := s = idle & !x;
ASSIGN
  init(s) := idle;
  next(s) := case ready : busy; s = busy : {busy, done}; 1 : idle; esac;
  next(x) := !x;
INIT n = 0
FAIRNESS s = done
SPEC AG (ready -> AF s = done)
SPEC A[s = idle U s = busy] | E[!x U x]
"""


def _source(name: str) -> str:
    if name.endswith(".smv"):
        return (EXAMPLES / name).read_text()
    if name == "features":
        return FEATURES
    if name == "afs1_server":
        return afs1.AFS1_SERVER_FIGURE
    if name == "afs1_client":
        return afs1.AFS1_CLIENT_FIGURE
    if name == "afs2_client":
        return afs2.client_source(rename=False) + afs2.CLIENT_SPECS_FIGURE
    n = int(name.removeprefix("afs2_server"))
    return afs2.server_source(n, rename=False) + afs2.SERVER_SPECS_FIGURE


#: name → (engine, reflexive, report digest, per-SPEC digests)
GOLDEN = {
    "figure1.smv": (
        "symbolic", False, "03b49f469f8c01ee",
        ["2ea4fc683605823a", "07c21651f317102d", "84b89294f4463ec9"],
    ),
    "afs1_server": (
        "symbolic", False, "63d3daf7c71c513f",
        [
            "3a007da8ecedc96c", "5207826d2f492879", "55868018109ccb9e",
            "41c22b1107c8a877", "9c3e55ed4bb7107f",
        ],
    ),
    "afs1_client": (
        "symbolic", False, "b40e6f5f54398e86",
        [
            "ae26a9e4861347b9", "4d3daae4217033fb", "9691fba76c3180ac",
            "8357096040575dc6", "124efbe440aa8ac6", "39a09bbff2ed4d20",
        ],
    ),
    "afs2_client": ("symbolic", False, "beae03d98a249f39", ["fa5b15d123947f34"]),
    "afs2_server2": (
        "symbolic", False, "6289c931681b9183",
        ["9b0c9be90a6d9ab0", "297c0cff5fc80f85"],
    ),
    "afs2_server3": (
        "symbolic", False, "88e5335951101322",
        ["5fec242c8f3eb9bd", "66aedb247b8c570e"],
    ),
    "afs2_server4": (
        "symbolic", False, "0f1090b03ac361af",
        ["047045c12afbe291", "4221a6bc2a8e265e"],
    ),
    "features": (
        "explicit", True, "e8b46c9bbe3be6fc",
        ["9a8483d2731de724", "10f7b416abc43f60"],
    ),
}


def test_every_example_source_is_pinned():
    assert {p.name for p in EXAMPLES.glob("*.smv")} <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprints_match_recorded_digests(name):
    engine, reflexive, report, specs = GOLDEN[name]
    model = load_model(_source(name))
    options = {"reflexive": reflexive}
    restriction = model.restriction
    assert [
        spec_fingerprint(model, spec, restriction, engine, options)[:16]
        for spec in model.specs
    ] == specs
    assert report_fingerprint(model, restriction, engine, options)[:16] == report
