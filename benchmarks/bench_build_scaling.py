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

The estimator is the median parallel / serial build-time ratio of two
paired rounds (:func:`benchmarks.paired.paired`, one build of each per
round, the first alternating), with its IQR, range and verdict against
the claim "the parallel build is faster" (bound 1.0); the assertion
wants that median below 1.0 when the median serial build takes at
least 0.4 s.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_build_scaling.py -v``.
"""

import pytest

from benchmarks import harness
from benchmarks.paired import describe, paired
from repro.index import build_path_index
from repro.index.bundle import clear_offline_artifacts
from repro.storage import DiskPathStore

#: Large enough that the serial build (~1 s on a 2-CPU host) is past
#: the 0.4 s below which the scaling gate skips itself: since the
#: array-native enumeration a 600-reference build is ~0.1 s, and at 4000
#: (~0.6 s) two processes lost to one in a run out of three.
NUM_REFERENCES = 6000
MAX_LENGTH = 2
BETA = 0.1
BUILD_PROCESSES = 2
#: Paired rounds: one noisy scheduler hiccup on a small shared CI
#: runner must not decide the comparison.
ROUNDS = 2


@pytest.fixture(scope="module")
def peg():
    return harness.synthetic_peg(NUM_REFERENCES)


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

    serial_dir = str(tmp_path_factory.mktemp("serial"))
    parallel_dir = str(tmp_path_factory.mktemp("parallel"))
    built = {}

    def serial_build():
        built["serial"] = build(serial_dir, 0)

    def parallel_build():
        built["parallel"] = build(parallel_dir, BUILD_PROCESSES)

    ratio = paired(serial_build, parallel_build, ROUNDS, 1.0)
    serial, parallel = built["serial"], built["parallel"]
    serial_seconds, parallel_seconds = ratio["a"], ratio["b"]
    harness.report(
        "build_scaling",
        "measurement  value",
        [
            ("cpus", cpus),
            ("build_processes", BUILD_PROCESSES),
            ("paths", serial.num_paths()),
            ("serial_build_s", round(serial_seconds, 3)),
            ("parallel_build_s", round(parallel_seconds, 3)),
            ("parallel_speedup", round(1.0 / ratio["median"], 2)),
            ("parallel_over_serial_iqr",
             "{:.3f}-{:.3f}".format(*ratio["iqr"])),
            ("verdict", ratio["verdict"].replace(" ", "_")),
        ],
    )

    assert parallel.num_paths() == serial.num_paths()
    assert set(parallel.histograms) == set(serial.histograms)

    if cpus >= 2 and serial_seconds >= 0.4:
        # On a multi-CPU host the pool build must beat the same build
        # run serially, as a median of the paired rounds. A serial
        # baseline under 0.4s is too small to amortize pool startup and
        # is skipped — it means the host is far faster than this
        # workload, not that the parallel build failed to scale.
        assert ratio["median"] < 1.0, (
            f"parallel build ({parallel_seconds:.3f}s) did not improve "
            f"on the serial one ({serial_seconds:.3f}s) with {cpus} CPUs: "
            f"parallel/serial {describe(ratio)}"
        )
