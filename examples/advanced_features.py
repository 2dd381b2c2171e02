"""Tour of the library features beyond the paper's core algorithm.

1. PGD interchange: build an uncertain graph, export to JSON, reload.
2. Transitive-closure merge constraints (the paper's future work).
3. The textual pattern language + EXPLAIN output.
4. Top-k matching without choosing a threshold.
5. Offline-bundle persistence: build the index once, reopen instantly.

Run:  python examples/advanced_features.py
"""

import os
import tempfile
import time

from repro import (
    PGD,
    QueryEngine,
    build_peg,
)
from repro.pgd import add_transitive_closure, load_pgd_json, save_pgd_json
from repro.query import explain, parse_pattern, top_k_matches


def build_input() -> PGD:
    """A small team network with chained duplicate evidence."""
    pgd = PGD(merge="average")
    people = {
        "ann": "eng", "ann_k": "eng", "a_kim": "mgr",
        "bob": "mgr", "carol": "eng", "dave": "sci",
        "erin": "sci", "frank": "eng",
    }
    for person, role in people.items():
        pgd.add_reference(person, role)
    edges = [
        ("ann", "bob", 0.9), ("ann_k", "carol", 0.8),
        ("a_kim", "dave", 0.7), ("bob", "carol", 1.0),
        ("carol", "dave", 0.6), ("dave", "erin", 0.9),
        ("erin", "frank", 0.8), ("frank", "ann", 0.5),
    ]
    for left, right, prob in edges:
        pgd.add_edge(left, right, prob)
    # Two pieces of pairwise duplicate evidence that chain:
    # ann ~ ann_k and ann_k ~ a_kim.
    pgd.add_reference_set(("ann", "ann_k"), 0.7)
    pgd.add_reference_set(("ann_k", "a_kim"), 0.5)
    return pgd


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        # 1. JSON interchange ------------------------------------------
        pgd = build_input()
        json_path = os.path.join(workdir, "team.json")
        save_pgd_json(pgd, json_path)
        pgd = load_pgd_json(json_path)
        print(f"PGD round-tripped through {os.path.basename(json_path)}:",
              pgd.stats())

        # 2. transitive closure ----------------------------------------
        added = add_transitive_closure(pgd)
        print("closure added candidate entities:",
              [sorted(s) for s in added])
        peg = build_peg(pgd)
        triple = frozenset({"ann", "ann_k", "a_kim"})
        print(
            "Pr(all three mentions are one person) =",
            round(peg.existence_probability(triple), 3),
        )

        # 3. pattern language + EXPLAIN --------------------------------
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        query = parse_pattern("(x:eng)-(y:mgr)-(z:eng)")
        result = engine.query(query, alpha=0.2)
        print("\n" + explain(result, max_matches=3))

        # 4. top-k without a threshold ---------------------------------
        chain = parse_pattern("(p:eng)-(q:sci)")
        top = top_k_matches(engine, chain, k=3, floor=0.01)
        print("\ntop-3 (eng)-(sci) pairs:")
        for match in top:
            rendered = " - ".join(
                "{" + ",".join(sorted(e)) + "}" for e, _ in match.nodes
            )
            print(f"  Pr={match.probability:.3f}  {rendered}")

        # 5. offline bundle --------------------------------------------
        bundle_dir = os.path.join(workdir, "offline")
        engine.save_offline(bundle_dir)
        start = time.perf_counter()
        reopened = QueryEngine.from_saved(peg, bundle_dir)
        reopen_ms = (time.perf_counter() - start) * 1000
        again = reopened.query(query, alpha=0.2)
        assert len(again.matches) == len(result.matches)
        print(f"\nreopened offline bundle in {reopen_ms:.1f} ms "
              f"({reopened.index.num_paths()} indexed paths)")


if __name__ == "__main__":
    main()
