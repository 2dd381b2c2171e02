"""Design ablations beyond the paper's explicit baselines.

DESIGN.md calls out three separable design choices; this bench isolates
each on a fixed workload (400-reference graph, q(5,7) and q(10,20),
α = 0.5, L = 3):

* context pruning on/off (Section 5.2.2),
* reduction by structure only vs structure + upperbounds (Section 5.2.4),
* the default exact decomposition vs the paper's greedy one vs random
  (Section 5.2.1; q(10,20) is past the exact DP's work budget, so its
  "full" plan is greedy too).
"""

import pytest

from benchmarks import harness
from repro.query import QueryOptions

ALPHA = 0.5
WORKLOADS = [(5, 7), (10, 20)]

ABLATIONS = {
    "full": QueryOptions(),
    "no-context": QueryOptions(use_context_pruning=False),
    "structure-only": QueryOptions(use_upperbound_reduction=False),
    "no-reduction": QueryOptions(
        use_structure_reduction=False, use_upperbound_reduction=False
    ),
    "greedy-decomposition": QueryOptions(decomposition="greedy"),
    "random-decomposition": QueryOptions(decomposition="random", seed=11),
}


@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("size", WORKLOADS, ids=lambda s: f"q{s[0]}-{s[1]}")
def test_ablation(benchmark, size, ablation):
    engine = harness.synthetic_engine(max_length=3, beta=0.5)
    queries = harness.synthetic_queries(engine.peg, *size)
    options = ABLATIONS[ablation]

    results = benchmark.pedantic(
        lambda: harness.run_queries(engine, queries, ALPHA, options),
        rounds=2,
        iterations=1,
    )
    matches = sum(len(r.matches) for r in results)
    final_ss = sum(r.search_space_final for r in results)
    harness.report(
        "ablation",
        "# nodes edges ablation seconds_per_query matches final_search_space",
        [(size[0], size[1], ablation,
          f"{benchmark.stats.stats.mean / len(queries):.5f}",
          matches, f"{final_ss:.3e}")],
    )
