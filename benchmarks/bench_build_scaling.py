"""Build-scaling benchmark: the offline build, serial against a process pool.

Not a paper figure — this measures the process-pool build added on top
of the reproduction (``PathIndexBuilder(build_processes=)``), writing
into one plain disk store:

* the offline build must get faster with a parallel enumeration —
  *given CPUs to scale onto*: the build uses a process pool whose
  workers warm-start with the pickled PEG, and on a single-core host
  the ratio is pinned near (or below) 1.0 by hardware, so the strict
  assertion only applies when >= 2 CPUs are available;
* the serial and parallel builds must hold exactly the same paths
  (count parity is asserted here; byte-for-byte store agreement is
  ``tests/test_index_builder.py``'s digest test).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_build_scaling.py -v``.
"""

import pytest

from benchmarks import harness
from repro.index import build_path_index
from repro.index.bundle import clear_offline_artifacts
from repro.obs.timing import Timer
from repro.storage import DiskPathStore

#: Large enough that the serial build (~1 s on a 2-CPU host) is past
#: the 0.4 s below which the scaling gate skips itself: since the
#: array-native enumeration a 600-reference build is ~0.1 s, and at 4000
#: (~0.6 s) two processes lost to one in a run out of three.
NUM_REFERENCES = 6000
MAX_LENGTH = 2
BETA = 0.1
BUILD_PROCESSES = 2


@pytest.fixture(scope="module")
def peg():
    return harness.synthetic_peg(NUM_REFERENCES)


def _best_of(runs: int, build) -> tuple:
    """Minimum wall-clock over ``runs`` builds (noise suppression)."""
    best_seconds = None
    index = None
    for _ in range(runs):
        with Timer() as timer:
            index = build()
        if best_seconds is None or timer.elapsed < best_seconds:
            best_seconds = timer.elapsed
    return best_seconds, index


def test_parallel_build_scaling(peg, tmp_path_factory):
    cpus = harness.available_cpus()

    def build(directory: str, build_processes: int):
        # Rebuilding into the same directory: clear the previous run's
        # store first, as every build into a reused directory does.
        clear_offline_artifacts(directory)
        index = build_path_index(
            peg,
            max_length=MAX_LENGTH,
            beta=BETA,
            store=DiskPathStore(directory),
            build_processes=build_processes,
        )
        index.store.close()
        return index

    # Best-of-2 on both sides: one noisy scheduler hiccup on a small
    # shared CI runner must not decide the comparison.
    serial_dir = str(tmp_path_factory.mktemp("serial"))
    serial_seconds, serial = _best_of(2, lambda: build(serial_dir, 0))

    parallel_dir = str(tmp_path_factory.mktemp("parallel"))
    parallel_seconds, parallel = _best_of(
        2, lambda: build(parallel_dir, BUILD_PROCESSES)
    )

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    harness.report(
        "build_scaling",
        "measurement  value",
        [
            ("cpus", cpus),
            ("build_processes", BUILD_PROCESSES),
            ("paths", serial.num_paths()),
            ("serial_build_s", round(serial_seconds, 3)),
            ("parallel_build_s", round(parallel_seconds, 3)),
            ("parallel_speedup", round(speedup, 2)),
        ],
    )

    assert parallel.num_paths() == serial.num_paths()
    assert set(parallel.histograms) == set(serial.histograms)

    if cpus >= 2 and serial_seconds >= 0.4:
        # On a multi-CPU host the pool build must beat the same build
        # run serially. A serial baseline under 0.4s is too small to
        # amortize pool startup and is skipped — it means the host is
        # far faster than this workload, not that the parallel build
        # failed to scale.
        assert parallel_seconds < serial_seconds, (
            f"parallel build ({parallel_seconds:.3f}s) did not improve "
            f"on the serial one ({serial_seconds:.3f}s) with {cpus} CPUs"
        )
