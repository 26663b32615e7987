"""The correctness gates of the subsystem benchmarks, on small inputs.

Each ``benchmarks/bench_*.py`` below has one mode, its full run, which
checks these gates at full size and adds its timing gates.  Here each
script is loaded by path and only its gated scenarios run, on the small
inputs given in each test.  A gate's condition lives in the script, in
the scenario itself (an ``AssertionError``) or in its
``correctness_failures``, which ``main()`` reads too.
"""

import importlib.util
import multiprocessing
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor

from annotation_goldens import SCALED_SWDE_QUICK_PAGES
from repro.obs import MetricsRegistry

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


def load_bench(name: str):
    """Import ``benchmarks/<name>.py`` as the module ``name`` (the script
    puts ``benchmarks/`` on ``sys.path``, so a spawned process can
    import it by that name too)."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_cache_memory_flat_and_byte_identical(tmp_path):
    """40 pages x 8 warm batches: every batch's rows equal the one-shot
    pipeline's, and resident memory stays flat.  The batches run in a
    process of their own, so the drift is the serving path's alone."""
    bench = load_bench("bench_cache_memory")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        stats = pool.submit(bench.run_benchmark, 40, 8, tmp_path / "models").result()
    assert bench.correctness_failures(stats) == []


def test_scoring_hotpath_batched_equals_per_node_chain(tmp_path):
    """40 pages x 5 batches per path: batched rows == the per-node
    reference chain's == one-shot, byte for byte (the batches raise)."""
    bench = load_bench("bench_scoring_hotpath")
    bench.run_benchmark(n_pages=40, n_batches=5, tmp_registry=tmp_path / "models")


def test_fusion_deterministic_and_lifts_precision():
    """A 20-site stream of 30K rows fuses to the same bytes under 8 or 3
    shards and any spill pressure (``run_streaming`` raises), and on 3
    SWDE sites plus a hazard site fusion keeps precision at equal yield."""
    bench = load_bench("bench_fusion")
    bench.run_streaming(n_sites=20, rows_per_site=1500, n_facts=6000)
    precision = bench.run_precision(n_sites=3, pages_per_site=12)
    assert bench.correctness_failures(precision) == []


def test_transfer_loso_precision_and_tagged_yield(tmp_path):
    """4 sites x 12 pages: LOSO micro precision clears the floor, and the
    held-out site's zero-shot yield is non-empty and tagged transfer."""
    bench = load_bench("bench_transfer")
    stats = bench.run_benchmark(4, 12, tmp_path / "models")
    assert bench.correctness_failures(stats) == []


def test_annotation_hotpath_models_equal_reference_chain():
    """At the size its golden pins, every cluster model of the scaled
    SWDE fixture equals the reference chain's bit for bit (the run
    raises).  ``test_annotation_hotpath.py`` checks both fixtures'
    goldens at that size."""
    bench = load_bench("bench_annotation_hotpath")
    bench.bench_cold_pipeline(n_pages=SCALED_SWDE_QUICK_PAGES, n_batches=1)


def test_serving_answers_steady_load_and_sheds_burst():
    """24 pages, 4 clients x 6 requests: steady load is all 200; a burst
    of 32 is answered in full, at least one request is shed 429, and the
    ``serving.shed`` counter agrees."""
    bench = load_bench("bench_serving")
    registry = MetricsRegistry()
    world = bench.build_world(24)
    steady = bench.run_steady(world, 4, 6, registry)
    burst = bench.run_burst(world, registry)
    assert bench.correctness_failures(steady, burst) == []


def test_resilience_kill_resume_and_chaos(tmp_path):
    """3 sites x 10 pages: a run-corpus SIGKILLed after its first commit
    resumes to byte-identical rows and fused facts with >= 1 site
    resumed; a chaos plan loses no site, retries the transient failure
    and quarantines exactly the poison page."""
    bench = load_bench("bench_resilience")
    registry = MetricsRegistry()
    kill_resume = bench.run_kill_resume(tmp_path, 3, 10, registry)
    chaos = bench.run_chaos(tmp_path, 3, 10, registry)
    assert bench.correctness_failures(kill_resume, chaos) == []
