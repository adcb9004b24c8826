"""Experiment F12/F14/F15 — paper Figures 12/14/15: AFS-2 server checks.

Paper reference values: Srv1 and Srv2 true, 2737 BDD nodes allocated,
1145 + 6 transition nodes.  The AFS-2 server is roughly an order of
magnitude larger than the AFS-1 server — that relation must reproduce,
on the product relation the paper's count is of (the report's
``transition_nodes`` counts the partitions the checker holds; both are
printed).
"""

from repro.casestudies.afs1 import AFS1_SERVER_FIGURE
from repro.casestudies.afs2 import (
    SERVER_SPECS_FIGURE,
    check_server_figure,
    server_source,
)


def test_fig15_afs2_server_output(benchmark, product_nodes):
    report = benchmark(check_server_figure)
    product = product_nodes(server_source(2, rename=False) + SERVER_SPECS_FIGURE)
    print()
    print(report.format())
    print(f"product relation: {product} nodes (partitioned: {report.transition_nodes})")
    assert report.all_true
    assert len(report.results) == 2
    # shape: AFS-2 server is much bigger than the AFS-1 server
    assert product > 3 * product_nodes(AFS1_SERVER_FIGURE)
