"""The paper's Section 6 as one table, run by one runner::

    PYTHONPATH=src python benchmarks/reproduce.py

A row of :data:`TABLE` is a figure (Figs. 6(a)-7(h)), the ablations or the
SQL baseline: a grid of :class:`Point` s at laptop scale (see ``harness``)
and claims quoted from the paper, each with a predicate. A violated
*invariant* (true at any scale) sets the exit code; a *shape* (a CPU-time or
size ratio) is reported as ``holds`` or ``does not hold at this scale``.
CPU time is the fastest of 3 ``time.process_time`` runs of a point's query
batch (``paired.fastest``) after a warm-up run that records answers and
search spaces (a build is timed once, the SQL plan once after its
warm-up). Writes ``results/REPRODUCTION.json``.
"""

import collections
import itertools
import json
import math
import operator
import os
import statistics
import sys
import textwrap
import time
from typing import NamedTuple

if __package__ in (None, ""):  # run as a script: put src/ and the repo root on the path
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks import harness
from benchmarks.paired import fastest
from repro.datasets.queries import PATTERN_NAMES
from repro.index import build_path_index
from repro.query import QueryGraph, QueryOptions, direct_matches
from repro.relational import RowLimitExceeded, sql_baseline_matches

OUT = os.path.join(harness.RESULTS_DIR, "REPRODUCTION.json")
HOLDS, SHAPE_FAILS, VIOLATED = "holds", "does not hold at this scale", "violated"
REL_TOL = 1e-12  # answers are sets; the factor order follows the plan
REPEATS = 3
SQL_ROW_LIMIT = 500_000
VARIANTS = {
    "exact": QueryOptions(), "greedy": QueryOptions(decomposition="greedy"),
    "random-3": QueryOptions(decomposition="random", seed=3),
    "random-11": QueryOptions(decomposition="random", seed=11),
    "no-context": QueryOptions(use_context_pruning=False),
    "structure-only": QueryOptions(use_upperbound_reduction=False),
    "no-reduction": QueryOptions(
        use_structure_reduction=False, use_upperbound_reduction=False),
}


class Point(NamedTuple):
    """``method`` is engine / build / direct / sql. ``graph`` is
    ``("synthetic", references, uncertainty)``, ``("dblp",)`` or
    ``("imdb",)``; ``workload`` is ``("random", nodes, edges)`` (one query
    per ``harness.QUERY_SEEDS``), ``("cycle",)`` or ``("pattern", name)``."""

    method: str = "engine"
    graph: tuple = ("synthetic", 400, 0.2)
    max_length: int = 3
    beta: float = 0.5
    alpha: float = 0.7
    workload: tuple = ("random", 5, 7)
    variant: str = "exact"


class Measured(NamedTuple):
    cpu_ms: float = 0.0  # per query, or per build
    paths: int = 0
    size_bytes: int = 0
    spaces: tuple = ()  # (path, context, final) search space per query
    answers: tuple = ()  # {(nodes, edges): probability} per query; None: SQL DNF


# ``check(measurements, points)`` returns (measured text, holds).
Claim = collections.namedtuple("Claim", "text check invariant", defaults=(False,))
Row = collections.namedtuple("Row", "figure title points claims")


def grid(**axes) -> tuple:
    """Every combination of the axes (each a sequence of values)."""
    return tuple(Point(**dict(zip(axes, values)))
                 for values in itertools.product(*axes.values()))


def q(nodes, edges) -> tuple:
    return ("random", nodes, edges)


def _queries(point, peg) -> list:
    kind, *args = point.workload
    if kind == "random":
        return harness.synthetic_queries(peg, *args)
    if kind == "pattern":
        return [harness.dblp_pattern(args[0]) if point.graph == ("dblp",)
                else harness.imdb_pattern(args[0], genre="Comedy")]
    sigma = sorted(peg.sigma)  # Fig. 7(f)'s 5-node cycle (high diameter)
    return [QueryGraph({f"c{i}": sigma[i % len(sigma)] for i in range(5)},
                       [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)])]


def _sql(peg, query, alpha):
    try:
        return sql_baseline_matches(peg, query, alpha, row_limit=SQL_ROW_LIMIT)
    except RowLimitExceeded:
        return None


def measure(point: Point) -> Measured:
    """Run one grid point."""
    kind, *args = point.graph
    if point.method == "engine":
        engine = (harness.synthetic_engine(*args, point.max_length, point.beta)
                  if kind == "synthetic"
                  else getattr(harness, f"{kind}_engine")(point.max_length))
        peg, options = engine.peg, VARIANTS[point.variant]
        evaluate = lambda qy: engine.query(qy, point.alpha, options)  # noqa: E731
    else:
        peg = harness.synthetic_peg(*args, harness.SEED)
        evaluate = lambda qy: {"direct": direct_matches, "sql": _sql}[  # noqa: E731
            point.method](peg, qy, point.alpha)
    if point.method == "build":
        start = time.process_time()
        index = build_path_index(peg, max_length=point.max_length, beta=point.beta)
        return Measured((time.process_time() - start) * 1e3, index.num_paths(),
                        index.size_bytes())
    queries = _queries(point, peg)
    results = [evaluate(qy) for qy in queries]
    cpu = fastest(lambda: [evaluate(qy) for qy in queries],
                  1 if point.method == "sql" else REPEATS,
                  time.process_time) * 1e3 / len(queries)
    return Measured(cpu, spaces=tuple(
        (r.search_space_path, r.search_space_context, r.search_space_final)
        for r in results if point.method == "engine"), answers=tuple(
        None if r is None else {(m.nodes, m.edges): m.probability
                                for m in getattr(r, "matches", r)} for r in results))


_cpu, _paths, _bytes = (operator.attrgetter(f) for f in ("cpu_ms", "paths", "size_bytes"))
PATH, CONTEXT, FINAL = ((lambda m, i=i: sum(s[i] for s in m.spaces)) for i in range(3))


def _div(a, b) -> float:
    return a / b if b else (math.inf if a else 1.0)


def _reduced(m) -> float:  # the final search space over the one reduced from
    return _div(FINAL(m), CONTEXT(m))


def _label(change: dict) -> str:
    names = {"max_length": "L", "beta": "β", "alpha": "α"}
    return " ".join(
        f"G({v[1]}, u={v[2]})" if k == "graph" else f"q({v[1]},{v[2]})"
        if k == "workload" else f"{names[k]}={v}" if k in names else str(v)
        for k, v in change.items())


def _ratios(sweep, points, base, other, value, where=None) -> list:
    """``value(other) / value(base)`` at every base point of the grid."""
    ratios = []
    for p in points:
        if all(getattr(p, k) == v for k, v in base.items()) and (
                where is None or where(p)):
            assert p._replace(**other) in points, f"{other} is off the grid"
            ratios.append(_div(value(sweep[p._replace(**other)]), value(sweep[p])))
    assert ratios, f"no grid point matches {base}"
    return ratios


def ratio(base, *others, value=_cpu, what="CPU", lo=1.0, hi=math.inf,
          where=None, median=False):
    """``value(other) / value(base)`` in ``[lo, hi]`` at every base point (or
    in the median) for each of ``others``; by default, ``base`` is ahead."""
    def check(sweep, points):
        text, holds = [], True
        for other in others:
            r = _ratios(sweep, points, base, other, value, where)
            head = f"{_label(other)} / {_label(base)} {what}"
            if median:
                m = statistics.median(r)
                text.append(f"{head} median {m:.3g}x (in [{lo:g}, {hi:g}])")
                holds &= lo <= m <= hi
            else:
                inside = sum(lo <= x <= hi for x in r)
                text.append(f"{head} {min(r):.3g}-{max(r):.3g}x, {inside}/{len(r)} "
                            f"in [{lo:g}, {hi:g}]")
                holds &= inside == len(r)
        return "; ".join(text), holds
    return check


def all_of(*checks):
    def check(sweep, points):
        results = [c(sweep, points) for c in checks]
        return "; ".join(m for m, _ in results), all(h for _, h in results)
    return check


def stronger(base, other, first, second, value=_cpu, what="CPU", on=None):
    """Median ``value(other) / value(base)``: larger at ``first`` than at ``second``."""
    def check(sweep, points):
        m = [statistics.median(_ratios(sweep, grid, {**base, **at}, other, value))
             for at, grid in ((first, points), (second, on or points))]
        return (f"{_label(other)} / {_label(base)} {what} median {m[0]:.3g}x at "
                f"{_label(first) or 'this row'}, {m[1]:.3g}x at "
                f"{_label(second) or 'the smaller queries'}"), m[0] > m[1]
    return check


def every(test, what, where=lambda p: True):
    def check(sweep, points):
        results = [test(sweep[p]) for p in points if where(p)]
        return f"{sum(results)}/{len(results)} points {what}", all(results)
    return check


def same_answers(sweep, points):
    groups, worst, compared, differ = {}, 0.0, 0, 0
    for p in points:
        groups.setdefault((p.graph, p.alpha, p.workload), []).append(sweep[p].answers)
    for members in groups.values():
        for runs in zip(*members):
            first, *rest = [a for a in runs if a is not None]
            for a in rest:
                compared, differ = compared + 1, differ + (a.keys() != first.keys())
                worst = max([worst] + [abs(p - first[k]) / max(p, first[k])
                                       for k, p in a.items() if k in first])
    return (f"{len(groups)} answer groups, {compared} comparisons, {differ} differ, "
            f"largest relative |Δp| {worst:.1e}"), differ == 0 and worst <= REL_TOL


# The table.

LS = harness.PATH_LENGTHS
L1, L2, L3 = ({"max_length": n} for n in LS)
EXACT, STRUCTURE = {"variant": "exact"}, {"variant": "structure-only"}
OPT_L3, ABLATED = {**L3, **EXACT}, ({"variant": "random-3"}, {"variant": "no-reduction"})
G = {n: ("synthetic", n, 0.2) for n in harness.GRAPH_SIZES}  # by reference count
UNCERTAIN = [("synthetic", 400, u) for u in (0.2, 0.4, 0.6, 0.8)]
LOW_U, HIGH_U = {"graph": UNCERTAIN[0]}, {"graph": UNCERTAIN[-1]}
Q5, Q10 = [q(5, 5), q(5, 9)], [q(10, 20), q(10, 40)]
SIZES = [q(3, 3), q(5, 10), q(7, 21), q(9, 36), q(11, 44), q(13, 52), q(15, 60)]
DENSITIES = [q(15, m) for m in (20, 40, 60, 80, 100)]
BUILDS = grid(method=("build",), graph=[G[100], G[200], G[400]],
              beta=harness.OFFLINE_BETAS, max_length=LS)
SHRINK = every(lambda m: all(f <= c <= p for p, c, f in m.spaces),
               "with search_space_final ≤ search_space_context ≤ search_space_path")
ENGINE = Claim("answers agree across L = 1..3, every variant and every method (the SQL "
               "plan where it finishes inside its row budget), and search spaces only "
               "shrink", all_of(same_answers, SHRINK), True)
L3_AHEAD = Claim("L=3 always ahead", ratio(L3, L1, L2))
L2_OVERTAKES = Claim("L=2 overtakes L=1 for uncertainty above 20%",
                     ratio(L2, L1, where=lambda p: p.graph[2] > 0.2))


def _row(figure, title, points, *claims, engine=True):
    """A row; an engine row also checks :data:`ENGINE` on every point."""
    return Row(figure, title, points, claims + (ENGINE,) * engine)


def _versus_ablated(figure, title, workloads, *claims):
    return _row(figure, title, grid(max_length=LS, workload=workloads) + grid(
        workload=workloads, variant=[v["variant"] for v in ABLATED]), *claims,
        Claim("optimized L=3 stays ahead of the ablated baselines",
              ratio(OPT_L3, *ABLATED)))


TABLE = (
    _row("Fig. 6(a)", "offline phase running time", BUILDS,
         Claim("time grows ~10–14x from L=1 to L=2 and ~7–30x from L=2 to L=3",
               all_of(ratio(L1, L2, lo=10, hi=14, median=True),
                      ratio(L2, L3, lo=7, hi=30, median=True))),
         Claim("lower β (more indexed paths) is slower",
               ratio({"beta": 0.9}, {"beta": 0.3})),
         Claim("growth with graph size is superlinear at higher L", ratio(
             {"graph": G[100], **L3}, {"graph": G[400]}, lo=4)),
         engine=False),
    # "~30x" is read as within a factor of 2, and the growth with the graph
    # as an exponent within L ± 0.5 from 100 to 400 references.
    _row("Fig. 6(b)", "path index size", BUILDS,
         Claim("size multiplies by ~30x per unit of L", all_of(*(ratio(
             a, b, value=_bytes, what="bytes", lo=15, hi=60, median=True)
             for a, b in ((L1, L2), (L2, L3))))),
         Claim("the index grows linearly with the graph at L=1, quadratically at "
               "L=2, cubically at L=3", all_of(*(ratio(
                   {"graph": G[100], "max_length": n}, {"graph": G[400]},
                   value=_paths, what="paths", lo=4 ** (n - 0.5), hi=4 ** (n + 0.5),
                   median=True) for n in LS))),
         Claim("index paths grow strictly with L and never shrink as β drops", all_of(
             *(ratio(a, b, value=_paths, what="paths", lo=math.nextafter(1, 2))
               for a, b in ((L1, L2), (L2, L3))),
             *(ratio({"beta": a}, {"beta": b}, value=_paths, what="paths")
               for a, b in itertools.pairwise(harness.OFFLINE_BETAS))), True),
         engine=False),
    _versus_ablated(
        "Fig. 6(c)", "online time vs query size", SIZES,
        Claim("optimized L=3 wins overall", ratio(OPT_L3, L1, L2, *ABLATED, median=True)),
        Claim("L=2 beats L=1 on small queries",
              ratio(L2, L1, where=lambda p: p.workload in SIZES[:2]))),
    _versus_ablated(
        "Fig. 6(d)", "online time vs query density", DENSITIES,
        Claim("sparse queries (q(15,20)) are the hard case", all_of(*(
            ratio({"workload": w}, {"workload": DENSITIES[0]}) for w in DENSITIES[1:]))),
        Claim("dense queries are highly selective", ratio(
            {"workload": DENSITIES[-1]}, {"workload": DENSITIES[0]},
            value=lambda m: sum(map(len, m.answers)), what="matches"))),
    _row("Fig. 6(e)", "uncertainty sweep (5-node)",
         grid(max_length=LS, graph=UNCERTAIN, workload=Q5), L3_AHEAD, L2_OVERTAKES),
    _row("Fig. 6(f)", "uncertainty sweep (10-node)",
         grid(max_length=LS, graph=UNCERTAIN, workload=Q10), L3_AHEAD, L2_OVERTAKES,
         Claim("the larger queries amplify the pruning benefit of longer indexed "
               "paths", stronger(L3, L1, {}, {}, on=grid(
                   max_length=LS, graph=UNCERTAIN, workload=Q5)))),
    *(_row(figure, f"graph size sweep ({w[0][1]}-node)", grid(
        max_length=LS, graph=list(G.values()), workload=w),
        L3_AHEAD, Claim("runtime grows with graph size", ratio(
            {"graph": G[100]}, {"graph": G[800]})))
      for figure, w in (("Fig. 7(a)", Q5), ("Fig. 7(b)", Q10))),
    *(_row(figure, f"threshold sweep ({w[0][1]}-node)", grid(
        max_length=LS, alpha=(0.3, 0.5, 0.7, 0.9), workload=w, beta=(0.3,)),
        L3_AHEAD,
        Claim("all lengths speed up as α rises", ratio({"alpha": 0.9}, {"alpha": 0.3})),
        Claim("short path lengths are the most threshold-sensitive, long ones the "
              "most stable", stronger({"alpha": 0.9}, {"alpha": 0.3}, L1, L3)))
      for figure, w in (("Fig. 7(c)", Q5), ("Fig. 7(d)", Q10))),
    _row("Fig. 7(e)", "search-space progression", grid(
        graph=[UNCERTAIN[0], UNCERTAIN[-1]], max_length=LS),
         Claim("the final reduction is effective at every L", every(
             lambda m: FINAL(m) < CONTEXT(m) or not CONTEXT(m),
             "reduce (or have nothing to reduce)")),
         Claim("but most dramatic for short paths",
               ratio(L1, L3, value=_reduced, what="final/context")),
         Claim("context pruning contributes most for long paths", ratio(
             L3, L1, value=lambda m: _div(CONTEXT(m), PATH(m)), what="context/path")),
         Claim("higher uncertainty shrinks every stage", all_of(*(
             ratio(HIGH_U, LOW_U, value=stage, what=name) for stage, name in
             ((PATH, "path"), (CONTEXT, "context"), (FINAL, "final"))))),
         Claim("the final search space of L=3 is many orders of magnitude below "
               "L=1", ratio(L3, L1, value=FINAL, what="final", lo=100))),
    _row("Fig. 7(f)", "structure vs upperbound reduction", grid(
        graph=UNCERTAIN, max_length=LS, beta=(0.1,), alpha=(0.1,),
        workload=[("cycle",)], variant=("structure-only", "exact")),
         Claim("both reductions strengthen with uncertainty",
               ratio(HIGH_U, LOW_U, value=_reduced, what="final/context")),
         Claim("the upperbound pass adds the most on top of structure for short "
               "path lengths",
               stronger(EXACT, STRUCTURE, L1, L3, _reduced, "final/context")),
         Claim("at L=3 structure alone often already converges", ratio(
             OPT_L3, STRUCTURE, value=FINAL, what="final", hi=1.0, median=True)),
         Claim("structure + upperbound leaves a final search space no larger than "
               "structure only", ratio(EXACT, STRUCTURE, value=FINAL, what="final"),
               True)),
    *(_row(figure, title, grid(
        graph=[graph], beta=(0.05,), alpha=(alpha,), max_length=LS,
        workload=[("pattern", name) for name in PATTERN_NAMES]), Claim(claim, all_of(
            ratio(L3, L2, where=where), ratio(L2, L1, where=where))))
      for figure, title, graph, alpha, claim, where in (
          ("Fig. 7(g)", "DBLP collaboration patterns", ("dblp",), 0.1,
           "L=3 beats L=2 beats L=1 for every query except the tree",
           lambda p: p.workload != ("pattern", "TR")),
          ("Fig. 7(h)", "IMDB co-starring patterns", ("imdb",), 0.25,
           "L=3 beats L=2 beats L=1", None))),
    _row("Ablations", "context pruning, reduction, decomposition", grid(
        alpha=(0.5,), workload=[q(5, 7), q(10, 20)], variant=(
            "exact", "no-context", "structure-only", "no-reduction", "greedy",
            "random-11")),
         Claim("each separable design choice pays for itself: the full "
               "configuration is ahead of every ablation", ratio(EXACT, *(
                   {"variant": v} for v in ("no-context", "structure-only",
                                            "no-reduction", "greedy", "random-11"))))),
    _row("SQL baseline", "§6.2.1 baseline 4", grid(
        graph=[G[100], G[200], G[400]], method=("engine", "direct", "sql")),
         Claim("a q(5,7) query at α = 0.7 answers in under a second with the "
               "optimized engine", every(lambda m: m.cpu_ms < 1000, "under 1 s",
                                         lambda p: p.method == "engine")),
         Claim("on anything beyond the smallest configuration it blows the budget "
               "(reported as DNF)", every(
                   lambda m: None in m.answers, "with a DNF",
                   lambda p: p.method == "sql" and p.graph[1] > 100)),
         Claim("we reproduce the gap at laptop scale",
               ratio({"method": "engine"}, {"method": "sql"}))),
)


def run(table=TABLE, measure_point=measure, out=OUT) -> int:
    """Measure and check every row; 1 if an invariant is violated."""
    sweep, records, start = {}, [], time.process_time()
    for row in table:
        sweep.update((p, measure_point(p)) for p in row.points if p not in sweep)
        print(f"\n== {row.figure}: {row.title} ({len(row.points)} points)")
        for claim in row.claims:
            measured, holds = claim.check(sweep, row.points)
            verdict = HOLDS if holds else VIOLATED if claim.invariant else SHAPE_FAILS
            records.append({
                "figure": row.figure, "claim": claim.text, "measured": measured,
                "kind": "invariant" if claim.invariant else "shape",
                "verdict": verdict, "cpus": harness.available_cpus()})
            for i, (c, m) in enumerate(itertools.zip_longest(
                    textwrap.wrap(claim.text, 44), textwrap.wrap(measured, 60),
                    fillvalue="")):
                print(f"  {c:44s}  {m:60s}  {'' if i else verdict}".rstrip())
        for cached in (harness.synthetic_engine, harness.dblp_engine, harness.imdb_engine):
            cached.cache_clear()  # one row's engines at a time
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("[" + ",\n ".join(  # one line per figure
                ", ".join(json.dumps(r, ensure_ascii=False) for r in rs)
                for _, rs in itertools.groupby(records, lambda r: r["figure"])) + "]\n")
    violated = [r for r in records if r["verdict"] == VIOLATED]
    print(f"\n{len(sweep)} points, {time.process_time() - start:.0f} s CPU; "
          f"{sum(r['verdict'] == HOLDS for r in records if r['kind'] == 'shape')} "
          f"shapes hold, {len(violated)} invariants violated", *(
              f"invariant violated: {r['figure']}: {r['claim']}" for r in violated),
          sep="\n", file=sys.stderr if violated else sys.stdout)
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(run())
