"""The benchmark's set-up, resolution and gate (``bench/run.py``) run against
the program on tiny variants of its three workloads. An API change that the
benchmark's calls depend on fails here, and not only in a benchmark run."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import calib  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

# one workload of each kind the benchmark runs, each small enough for tier-1
TINY = {
    # planted embeddings, no blocking, exact oracle
    "dense-block": dict(datasets=1, entities=12, dupes=3),
    # hashed TF-IDF embeddings built with the index in set-up, LSH blocking
    "wide-lsh": dict(datasets=2, entities=15, dupes=3),
    # oracle error 0.3, two workers, no latency
    "noisy-live": dict(datasets=2, entities=6, dupes=3, latency_s=0.0),
}


def test_tiny_variants_cover_the_three_kinds():
    assert set(TINY) == set(inputs.WORKLOADS)
    dense, wide, noisy = (inputs.WORKLOADS[n] for n in TINY)
    assert dense.planted_noise is not None and dense.blocking == "none" and dense.exact
    assert wide.planted_noise is None and wide.blocking == "lsh"
    assert noisy.error_rate == 0.3 and noisy.workers == 2


@pytest.mark.parametrize("name", sorted(TINY))
def test_bench_sets_up_resolves_and_passes_the_gate(name, tmp_path):
    workload = dataclasses.replace(inputs.WORKLOADS[name], **TINY[name])
    files = inputs.write_inputs(workload, 1, str(tmp_path))
    bench = run.Bench(
        workload, files, calib.Calibrator(), run._import_program(), workload.workers
    )
    for _ in range(2):  # the second repetition is gated against the first
        prepared, timings = bench.setup_round()
        assert len(timings) == workload.datasets
        outcomes = [bench.resolve(p) for p in prepared]
        assert bench.gate(outcomes) == []
        for p, o in zip(prepared, outcomes):
            assert o.quality["api_calls"] > 0
            assert set(p.index.token_sets) == set(p.records)
            assert all(
                v.dtype == float and v.ndim == 1 for v in p.index.embeddings.values()
            )
