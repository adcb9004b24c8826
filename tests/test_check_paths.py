"""Every ``repro check`` flag combination against the plain run.

``repro check`` takes one code path whatever its flags: the verdicts,
counterexamples and exit code of ``--jobs``, ``--cache``, ``--json`` and
``--explicit`` runs equal the plain run's, the stdout of a run that
differs from another only in ``--cache`` is the same bar its wall time,
and every combination records the same root spans.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.parallel import shutdown_shared
from repro.smv.run import check_source

#: a failing ``AG`` spec and a failing ``p -> AX q`` spec, both with
#: decoded counterexamples, next to two true specs
FAILING = """
MODULE main
VAR x : boolean; y : boolean;
INIT x & !y
ASSIGN
  next(x) := {0, 1};
  next(y) := x;
SPEC AG x
SPEC x -> AX y
SPEC x -> AX x
SPEC AG EF x
"""

FIGURE1 = Path(__file__).resolve().parents[1] / "examples" / "figure1.smv"

#: (name, extra flags, use a store) for every combination compared
COMBINATIONS = [
    ("plain", [], False),
    ("jobs", ["--jobs", "2"], False),
    ("cache", [], True),
    ("json", ["--json"], False),
    ("explicit", ["--explicit"], False),
    ("explicit-jobs", ["--explicit", "--jobs", "2"], False),
]


@pytest.fixture(scope="module", autouse=True)
def _pool():
    yield
    shutdown_shared()


@pytest.fixture(params=["failing", "figure1"])
def model_file(request, tmp_path):
    if request.param == "figure1":
        return str(FIGURE1)
    path = tmp_path / "failing.smv"
    path.write_text(FAILING)
    return str(path)


def _run(capsys, path, flags):
    code = main(["check", path, *flags])
    return code, capsys.readouterr().out


def _head(out: str) -> str:
    """The verdict lines and counterexamples: stdout up to the
    ``resources used:`` block."""
    return out.split("\nresources used:")[0]


def _without_user_time(out: str) -> str:
    return "\n".join(
        ln for ln in out.splitlines() if not ln.startswith("user time:")
    )


def _verdict_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.startswith("-- spec.")]


def test_every_combination_matches_the_plain_run(model_file, tmp_path, capsys):
    code, plain = _run(capsys, model_file, [])
    report = check_source(Path(model_file).read_text())
    assert code == (0 if report.all_true else 1)
    assert "resources used:" in plain

    cache = str(tmp_path / "store")
    cold_code, cold = _run(capsys, model_file, ["--cache", cache])
    warm_code, warm = _run(capsys, model_file, ["--cache", cache])
    assert cold_code == warm_code == code
    assert _without_user_time(cold) == _without_user_time(plain)
    assert warm == cold  # the replay restores the cold run's wall time

    jobs_code, jobs = _run(capsys, model_file, ["--jobs", "2"])
    assert jobs_code == code
    assert _head(jobs) == _head(plain)
    jobs_cache = str(tmp_path / "jobs-store")
    pooled_code, pooled = _run(
        capsys, model_file, ["--jobs", "2", "--cache", jobs_cache]
    )
    assert pooled_code == code
    assert _without_user_time(pooled) == _without_user_time(jobs)

    json_code, out = _run(capsys, model_file, ["--json"])
    assert json_code == code
    payload = json.loads(out)
    assert [(s["holds"], s["counterexample"]) for s in payload["specs"]] == [
        (r.holds, trace)
        for r, trace in zip(report.results, report.counterexamples)
    ]

    for flags in (["--explicit"], ["--explicit", "--jobs", "2"]):
        explicit_code, explicit = _run(capsys, model_file, flags)
        assert explicit_code == code
        # the explicit engine decodes no counterexamples
        assert explicit.splitlines() == _verdict_lines(plain)


def test_every_combination_records_the_same_root_spans(
    model_file, tmp_path, capsys
):
    roots = {}
    for name, flags, with_store in COMBINATIONS:
        trace = tmp_path / f"{name}.jsonl"
        store = ["--cache", str(tmp_path / f"{name}-store")] if with_store else []
        main(
            [
                "check", model_file, *flags, *store,
                "--trace", str(trace), "--trace-format", "jsonl",
            ]
        )
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        roots[name] = {r["name"] for r in records if r["parent"] is None}
        names = {r["name"] for r in records}
        if "--jobs" not in flags:
            assert "smv.check_model" in names, name
    capsys.readouterr()
    assert all(got == roots["plain"] for got in roots.values()), roots
