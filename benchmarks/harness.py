"""Shared infrastructure for ``reproduce.py``, which regenerates the
paper's Section 6 at laptop scale, and the scaling benchmarks:

* cached PEG / engine constructors (building a PEG and its index is the
  expensive part; measurements of the *online* phase share them),
* the scaled-down parameter grids (the paper's 50k–1m references become
  100–800; all ratios — edges = 5x references, k = refs/1000 groups,
  s = r = 4, 20% uncertainty — are preserved),
* workload helpers (the averaged random queries, Figure-8 patterns),
* a tiny reporter writing paper-style series to ``benchmarks/results/``,
  and the writer of the ``bench_*.py`` scripts' ``BENCH_*.json`` reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os

from repro.datasets import (
    SyntheticConfig,
    generate_dblp_pgd,
    generate_imdb_pgd,
    generate_synthetic_pgd,
    pattern_query,
    random_query,
)
from repro.peg import build_peg
from repro.query import QueryEngine

#: Base seed for every synthetic artifact; change to resample the study.
SEED = 7

#: Scaled-down graph sizes standing in for the paper's 50k/100k/500k/1m.
GRAPH_SIZES = (100, 200, 400, 800)

#: Index thresholds swept in the offline experiments (Figure 6a/6b).
OFFLINE_BETAS = (0.9, 0.7, 0.5, 0.3)

#: Index path lengths, as in the paper.
PATH_LENGTHS = (1, 2, 3)

#: Query seeds averaged per measurement (the paper averages 5 queries).
QUERY_SEEDS = (0, 1, 2)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware when possible)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Cached builders
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def synthetic_peg(num_references: int = 400, uncertainty: float = 0.2,
                  seed: int = SEED):
    """Cached synthetic PEG with the paper's parameter ratios."""
    config = SyntheticConfig(
        num_references=num_references,
        uncertainty=uncertainty,
        seed=seed,
    )
    return build_peg(generate_synthetic_pgd(config))


@functools.lru_cache(maxsize=None)
def synthetic_engine(
    num_references: int = 400,
    uncertainty: float = 0.2,
    max_length: int = 3,
    beta: float = 0.5,
    seed: int = SEED,
) -> QueryEngine:
    """Cached engine (offline phase included) over a synthetic PEG."""
    return QueryEngine(
        synthetic_peg(num_references, uncertainty, seed),
        max_length=max_length,
        beta=beta,
    )


@functools.lru_cache(maxsize=None)
def dblp_peg(num_authors: int = 400, seed: int = SEED):
    return build_peg(generate_dblp_pgd(num_authors=num_authors, seed=seed))


@functools.lru_cache(maxsize=None)
def dblp_engine(max_length: int, num_authors: int = 400) -> QueryEngine:
    return QueryEngine(
        dblp_peg(num_authors), max_length=max_length, beta=0.05
    )


@functools.lru_cache(maxsize=None)
def imdb_peg(num_actors: int = 400, seed: int = SEED):
    return build_peg(generate_imdb_pgd(num_actors=num_actors, seed=seed))


@functools.lru_cache(maxsize=None)
def imdb_engine(max_length: int, num_actors: int = 400) -> QueryEngine:
    return QueryEngine(
        imdb_peg(num_actors), max_length=max_length, beta=0.05
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def synthetic_queries(peg, num_nodes: int, num_edges: int, seeds=QUERY_SEEDS):
    """The averaged random-query workload of the synthetic experiments."""
    sigma = sorted(peg.sigma)
    return [
        random_query(num_nodes, num_edges, sigma, seed=seed)
        for seed in seeds
    ]


#: Figure-8 pattern labels for the DBLP experiment (mixing areas, as the
#: paper's collaboration patterns do).
DBLP_PATTERN_LABELS = {
    "BF1": {"n0": "SE", "n1": "DB", "n2": "ML", "n3": "DB", "n4": "ML"},
    "BF2": {
        "n0": "SE", "n1": "DB", "n2": "ML", "n3": "DB",
        "n4": "DB", "n5": "ML", "n6": "DB",
    },
    "GR": {"n0": "DB", "n1": "DB", "n2": "ML", "n3": "ML"},
    "ST": {"n0": "SE", "n1": "DB", "n2": "DB", "n3": "ML", "n4": "ML"},
    "TR": {
        "n0": "DB", "n1": "ML", "n2": "ML",
        "n3": "DB", "n4": "DB", "n5": "SE", "n6": "SE",
    },
}


def dblp_pattern(name: str):
    return pattern_query(name, DBLP_PATTERN_LABELS[name])


def imdb_pattern(name: str, genre: str = "Drama"):
    """IMDB patterns use one genre for all nodes (co-starring cliques)."""
    return pattern_query(name, genre)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


#: Report files already initialized by this process (truncate on first
#: touch so each pytest session regenerates its own series, then append).
_initialized_reports: set = set()


def report(name: str, header: str, rows) -> str:
    """Write a paper-style series to ``benchmarks/results/<name>.txt``.

    The first write of a process truncates the file and emits the header;
    subsequent writes append rows only. Returns the formatted text so
    callers may print it.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    lines = []
    if name not in _initialized_reports:
        _initialized_reports.add(name)
        mode = "w"
        lines.append(header)
    else:
        mode = "a"
    for row in rows:
        lines.append("  ".join(str(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text)
    return text


def bench_parser(doc: str, family: str, smoke: str):
    """The flags every ``bench_*.py`` script shares: ``--smoke`` (help
    text ``smoke``), ``--out`` (default ``<family>.json``) and
    ``--trajectory``; the script adds its own."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help=smoke)
    parser.add_argument(
        "--out", default=f"{family}.json",
        help="where to write the machine-readable results",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help=f"also write benchmarks/results/{family}-v<version>.json "
        "(the committed perf-trajectory point for this version)",
    )
    return parser


def write_bench(report: dict, args, family: str) -> list:
    """Write a ``BENCH_*.json`` report to ``args.out`` and, with
    ``args.trajectory``, a copy for this version to
    ``results/<family>-v<version>.json``; returns the paths written."""
    outputs = [args.out]
    if args.trajectory:
        outputs.append(os.path.join(
            RESULTS_DIR, f"{family}-v{report['repro_version']}.json"
        ))
    for path in outputs:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return outputs
