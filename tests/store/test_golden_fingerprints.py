"""Fingerprints pinned to recorded digests.

Every store record is addressed by these digests.  A change to the
parser, the elaborator or the canonical rendering that moves one of them
would silently orphan every existing store, so a drift must fail here
and come with a :data:`~repro.store.fingerprint.STORE_SCHEMA_VERSION`
bump.  Each digest is the first 16 hex digits of the SHA-256, recorded
under schema 5.
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
        "symbolic", False, "fe43b0f6dc6b5d8e",
        ["8fdced32843e0f48", "7f239b951e7dfab9", "d2e321fe9628eb73"],
    ),
    "afs1_server": (
        "symbolic", False, "5e39fbe7996c978f",
        [
            "94f3e996adc94496", "ffda6c343ad29ae7", "ccd2e855c203b3b3",
            "8aae6db2d8f44b80", "2c44f7ed54ed03cd",
        ],
    ),
    "afs1_client": (
        "symbolic", False, "0a1251fa57d24491",
        [
            "f9dda5b1f9557be1", "775faf03c7d9484a", "aab7eff1880c5824",
            "709be299966eb0af", "a708048bb22dd1f4", "6294101d0bab62ca",
        ],
    ),
    "afs2_client": ("symbolic", False, "6bf02b55dee565bf", ["28eca3dbc8d7e47c"]),
    "afs2_server2": (
        "symbolic", False, "09167b1d8c62e8bf",
        ["ede62ec2c9a55aa2", "d9378c1f988e291f"],
    ),
    "afs2_server3": (
        "symbolic", False, "4074a1f28f08115b",
        ["6146e4cc602a256b", "b64208d1ce94ed15"],
    ),
    "afs2_server4": (
        "symbolic", False, "92bdca69836659af",
        ["7925583636d429a8", "d7cde2f5f69c1d03"],
    ),
    "features": (
        "explicit", True, "ca6d67b7d3f551c1",
        ["7abb229d6e06ae29", "63d65506202fa20a"],
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
