"""Micro-benchmarks of the SMV front end: every check pays these first.

Tokenize, parse, ``load_model`` (parse + elaborate) and the store
fingerprints of one whole-module check (every SPEC plus the report), on
the largest figure source (the AFS-2 server for four clients) and the
AFS-1 client.  Each benchmark also asserts what its stage produced, so
with ``--benchmark-disable`` the file is a front-end smoke test.
"""

import pytest

from repro.casestudies import afs1, afs2
from repro.smv.lexer import tokenize
from repro.smv.parser import parse_program
from repro.smv.run import load_model
from repro.store.fingerprint import report_fingerprint, spec_fingerprint

SOURCES = {
    "afs2_server4": afs2.server_source(4, rename=False) + afs2.SERVER_SPECS_FIGURE,
    "afs1_client": afs1.AFS1_CLIENT_FIGURE,
}
SPEC_COUNTS = {"afs2_server4": 2, "afs1_client": 6}


@pytest.fixture(params=sorted(SOURCES))
def source(request):
    return request.param, SOURCES[request.param]


def test_tokenize(benchmark, source):
    _, text = source
    tokens = benchmark(tokenize, text)
    assert tokens[-1].kind == "eof"


def test_parse(benchmark, source):
    _, text = source
    program = benchmark(parse_program, text)
    assert list(program) == ["main"]


def test_load_model(benchmark, source):
    name, text = source
    model = benchmark(load_model, text)
    assert len(model.specs) == SPEC_COUNTS[name]


def test_fingerprints(benchmark, source):
    """A fresh model per round, so the once-per-model rendering is paid
    as a cold check pays it."""
    name, text = source
    options = {"reflexive": False}

    def fingerprints(model):
        restriction = model.restriction
        specs = [
            spec_fingerprint(model, spec, restriction, "symbolic", options)
            for spec in model.specs
        ]
        return specs, report_fingerprint(model, restriction, "symbolic", options)

    specs, report = benchmark.pedantic(
        fingerprints,
        setup=lambda: ((load_model(text),), {}),
        rounds=20,
    )
    assert len(set(specs)) == SPEC_COUNTS[name]
    assert report not in specs
