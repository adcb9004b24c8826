"""Experiment F13/F16/F17 — paper Figures 13/16/17: AFS-2 client check.

Paper reference values: Cli1 true, 592 BDD nodes allocated, 120 + 6
transition nodes.  The paper's transition count is the product
relation's; the report's counts the partitions the checker holds, and
both are printed.
"""

from repro.casestudies.afs2 import (
    CLIENT_SPECS_FIGURE,
    check_client_figure,
    client_source,
)


def test_fig17_afs2_client_output(benchmark, product_nodes):
    report = benchmark(check_client_figure)
    product = product_nodes(client_source(rename=False) + CLIENT_SPECS_FIGURE)
    print()
    print(report.format())
    print(f"product relation: {product} nodes (partitioned: {report.transition_nodes})")
    assert report.all_true
    assert len(report.results) == 1
    assert 100 < report.bdd_nodes_allocated < 6000
