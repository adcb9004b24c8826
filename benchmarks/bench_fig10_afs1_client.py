"""Experiment F8–F10 — paper Figures 8/9/10: model checking the AFS-1 client.

Paper reference values: all 6 specs true, 330 BDD nodes allocated,
34 + 7 transition nodes.  The paper's transition count is the product
relation's; the report's counts the partitions the checker holds, and
both are printed.
"""

from repro.casestudies.afs1 import AFS1_CLIENT_FIGURE, check_client_figure


def test_fig10_afs1_client_output(benchmark, product_nodes):
    report = benchmark(check_client_figure)
    print()
    print(report.format())
    print(
        f"product relation: {product_nodes(AFS1_CLIENT_FIGURE)} nodes "
        f"(partitioned: {report.transition_nodes})"
    )
    assert report.all_true
    assert len(report.results) == 6
    assert 100 < report.bdd_nodes_allocated < 4000
