"""Build-at-scale benchmark: the offline build's peak memory against
the bytes it stores.

Not an end-to-end workload: this is the measure of how far the offline
phase (Section 5.1) reaches before memory stops it. Fig. 7(a)/(b) run
on 50k-1m references; a build whose peak is a large multiple of its
store cannot get there. It builds the ``match_heavy`` graph recipe
(``benchmarks/e2e/workloads.py``: uncertainty 0.2, L=3, β=0.5, an
in-memory store) at 1,000 and 2,000 references, or at ``--sizes``
(8,000 is worth a run by hand on a host with a few GiB free), and
records per size the build seconds, the store bytes, the path count,
the RSS before the build, the peak RSS and the CPUs.

Each size builds in a fresh child process, which reads its own
``getrusage(RUSAGE_SELF)`` peak and its RSS just before the build. The
parent never reads ``RUSAGE_CHILDREN``, and imports nothing of the
program: a child's peak starts at its parent's high-water mark (exec
inherits it), so ``RUSAGE_CHILDREN`` can report the parent, and a
parent that had built an index would raise every child's floor.

``--smoke`` (the CI gate) builds 1,000 references only and exits
non-zero unless the build's growth — peak RSS minus the RSS before the
build — is at most ``SMOKE_STORE_MULTIPLE`` times the store bytes plus
``SMOKE_SLACK_MB`` MiB. A level-at-a-time build grew 256 MiB for a
25.8 MiB store there (9.9x); the depth-first build grows 93 MiB (3.6x;
2-CPU host).

Usage::

    python benchmarks/bench_scale.py
    python benchmarks/bench_scale.py --sizes 1000 2000 8000
    python benchmarks/bench_scale.py --smoke --out BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

SOURCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

DATA_SEED = 20140331
MAX_LENGTH = 3
BETA = 0.5
SIZES = (1000, 2000)
SMOKE_SIZE = 1000
#: The smoke gate: build growth <= this many store bytes + the slack.
SMOKE_STORE_MULTIPLE = 6
SMOKE_SLACK_MB = 32

_MB = 1 << 20


def _maxrss_bytes() -> int:
    """This process's peak RSS (``ru_maxrss`` is KiB on Linux, bytes on
    macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def _rss_bytes() -> int:
    """This process's current RSS, or its peak where ``/proc`` is absent."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            resident = int(handle.read().split()[1])
    except OSError:
        return _maxrss_bytes()
    return resident * os.sysconf("SC_PAGE_SIZE")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def measure_build(num_references: int) -> dict:
    """Build one size in this process; its figures, sizes in MiB."""
    sys.path.insert(0, SOURCE)
    from repro import __version__
    from repro.datasets import SyntheticConfig, generate_synthetic_pgd
    from repro.index import build_path_index
    from repro.peg import build_peg

    peg = build_peg(generate_synthetic_pgd(SyntheticConfig(
        num_references=num_references, uncertainty=0.2, seed=DATA_SEED,
    )))
    rss_before = _rss_bytes()
    started = time.perf_counter()
    index = build_path_index(peg, max_length=MAX_LENGTH, beta=BETA)
    seconds = time.perf_counter() - started
    peak = _maxrss_bytes()
    store = index.size_bytes()
    return {
        "references": num_references,
        "build_s": round(seconds, 3),
        "store_mb": round(store / _MB, 2),
        "paths": index.num_paths(),
        "rss_before_mb": round(rss_before / _MB, 1),
        "peak_rss_mb": round(peak / _MB, 1),
        "build_growth_mb": round((peak - rss_before) / _MB, 1),
        "growth_per_store_byte": round((peak - rss_before) / store, 2),
        "cpus": _cpus(),
        "repro_version": __version__,
    }


def measure_in_child(num_references: int) -> dict:
    """:func:`measure_build` in a fresh interpreter: one size's peak is
    never another's."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         str(num_references)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def smoke_gate(row: dict) -> bool:
    return row["build_growth_mb"] <= (
        SMOKE_STORE_MULTIPLE * row["store_mb"] + SMOKE_SLACK_MB
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_SIZE} references + CI gate: build growth <= "
        f"{SMOKE_STORE_MULTIPLE}x store bytes + {SMOKE_SLACK_MB} MiB",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="graph sizes in references (default: "
        f"{' '.join(map(str, SIZES))})",
    )
    parser.add_argument(
        "--out", default=None, help="also write the results here as JSON"
    )
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure_build(args.child)))
        return 0

    sizes = args.sizes or ((SMOKE_SIZE,) if args.smoke else SIZES)
    rows = []
    for size in sizes:
        row = measure_in_child(size)
        rows.append(row)
        print(
            f"[build] {row['references']:>6} refs: {row['build_s']:.3f}s, "
            f"store {row['store_mb']:.1f} MiB, {row['paths']} paths, "
            f"RSS {row['rss_before_mb']:.1f} -> {row['peak_rss_mb']:.1f} MiB "
            f"(+{row['build_growth_mb']:.1f}, "
            f"{row['growth_per_store_byte']:.2f}x the store), "
            f"{row['cpus']} CPUs"
        )
    if args.out:
        report = {
            "benchmark": "scale",
            "repro_version": rows[0]["repro_version"],
            "mode": "smoke" if args.smoke else "sizes",
            "workload": {"max_length": MAX_LENGTH, "beta": BETA},
            "builds": {str(row["references"]): row for row in rows},
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.smoke:
        gated = [row for row in rows if row["references"] == SMOKE_SIZE]
        failed = [row for row in gated if not smoke_gate(row)]
        for row in failed:
            print(
                f"FAIL: build grew {row['build_growth_mb']:.1f} MiB for a "
                f"{row['store_mb']:.1f} MiB store at {row['references']} "
                f"references (gate {SMOKE_STORE_MULTIPLE}x + "
                f"{SMOKE_SLACK_MB} MiB)"
            )
        if failed or not gated:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
