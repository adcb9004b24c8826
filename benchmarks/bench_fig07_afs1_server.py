"""Experiment F5–F7 — paper Figures 5/6/7: model checking the AFS-1 server.

Runs the full SMV pipeline (parse → elaborate → compile to BDDs → check
Srv1–Srv5) and prints the paper-style output.  Paper reference values:
all 5 specs true, 403 BDD nodes allocated, 43 + 7 transition nodes.
The paper's transition count is the product relation's; the report's
counts the partitions the checker holds, and both are printed.
"""

from repro.casestudies.afs1 import AFS1_SERVER_FIGURE, check_server_figure


def test_fig07_afs1_server_output(benchmark, product_nodes):
    report = benchmark(check_server_figure)
    print()
    print(report.format())
    print(
        f"product relation: {product_nodes(AFS1_SERVER_FIGURE)} nodes "
        f"(partitioned: {report.transition_nodes})"
    )
    assert report.all_true
    assert len(report.results) == 5
    # same order of magnitude as the paper's 403 nodes
    assert 100 < report.bdd_nodes_allocated < 4000
