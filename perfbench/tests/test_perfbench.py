"""Fast checks of the benchmark itself: span arithmetic, thread pinning,
seeded inputs, wrapper restoration, and every workload at toy scale."""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads
from conftest import BENCH, ROOT


def _span_tracer(spans, counts=None):
    tracer = tracing.Tracer()
    tracer.spans = [list(s) for s in spans]
    tracer.counts.update(counts or {})
    return tracer


def test_self_times_subtract_the_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union [1, 6] counts once
        ["c", 8.0, 12.0, 0],     # clipped to the parent's end
        ["a.1", 2.0, 3.0, 1],    # a grandchild does not touch root
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_from_a_synthetic_span_tree():
    tracer = _span_tracer([
        ["trainer.train", 0.0, 10.0, -1],
        ["objective.loss", 1.0, 5.0, 0],
        ["objective.supcon", 1.5, 2.5, 1],
        ["objective.kl", 3.0, 4.0, 1],
        ["prototype.ema", 5.0, 9.0, 0],
        ["trainer.evaluate", 9.0, 9.5, 0],
        ["trainer.evaluate", 20.0, 21.0, -1],   # outside train(): not counted
    ], {"evaluation.hungarian_calls": 2, "evaluation.lsa_solves": 8,
        "prototype.gated_views": 3, "prototype.unlabeled_views": 12})
    m = tracing.layer_metrics(tracer)
    assert m["objective.loss_s"] == pytest.approx(4.0)
    assert m["objective.assemble_s"] == pytest.approx(2.0)
    assert m["objective.loss_share"] == pytest.approx(0.4)
    assert m["prototype.ema_share"] == pytest.approx(0.4)
    assert m["trainer.self_s"] == pytest.approx(1.5)
    assert m["trainer.evaluate_s"] == pytest.approx(0.5)
    assert m["evaluation.lsa_per_hungarian"] == 4.0
    assert m["prototype.gated_ratio"] == 0.25
    assert m["trainer.variant_imbalance"] == 1.0


def test_variant_imbalance_is_slowest_over_mean():
    tracer = _span_tracer([
        ["bench.ablate", 0.0, 6.0, -1],
        ["trainer.train", 0.0, 1.0, 0],
        ["trainer.train", 1.0, 4.0, 0],
        ["trainer.train", 4.0, 6.0, 0],
    ])
    assert tracing.layer_metrics(tracer)["trainer.variant_imbalance"] == pytest.approx(1.5)


def test_iteration_percentiles_state_their_sample_count():
    p = tracing.iteration_percentiles([float(v) for v in range(1, 101)])
    assert p["trainer.iter_ms.p50"] == pytest.approx(50.5)
    assert p["trainer.iter_ms.p99"] == pytest.approx(99.01)
    assert p["trainer.iter_samples"] == 100


def test_pin_threads_sets_every_variable_before_numpy():
    env = {"OPENBLAS_NUM_THREADS": "8"}
    run.pin_threads(env, modules={})
    assert all(env[name] == "1" for name in run.THREAD_VARS)


def test_pin_threads_refuses_numpy_imported_unpinned():
    with pytest.raises(RuntimeError, match="numpy was imported"):
        run.pin_threads({"OPENBLAS_NUM_THREADS": "4"}, modules={"numpy": np})
    run.pin_threads({name: "1" for name in run.THREAD_VARS}, modules={"numpy": np})


@pytest.fixture(scope="module")
def mods():
    return run.import_opencon()


def _context(mods, seed, scale="toy", workdir=None, tracer=None):
    return workloads.Context(mods, seed, workloads.SCALES[scale], workdir, None, tracer)


def test_seed_changes_the_generated_inputs(mods):
    a = _context(mods, 1).s1_split()
    b = _context(mods, 2).s1_split()
    assert a.features.shape == b.features.shape
    assert not np.array_equal(a.features, b.features)
    again = _context(mods, 1).s1_split()
    assert np.array_equal(a.features, again.features)
    assert np.array_equal(a.labeled_idx, again.labeled_idx)


def test_default_seed_reproduces_s1(mods):
    import test_acceptance as acceptance
    from opencon.core import Rng
    from opencon.data import generate_synthetic, make_split

    ctx = _context(mods, workloads.DEFAULT_SEED, scale="full")
    ours = ctx.s1_split()
    rng = Rng(1, "data")
    frozen = make_split(generate_synthetic(10, 500, 32, 30.0, rng), 0.5, 0.5, rng)
    assert np.array_equal(ours.features, frozen.features)
    assert np.array_equal(ours.labeled_idx, frozen.labeled_idx)
    assert np.array_equal(ours.known_classes, frozen.known_classes)
    assert ctx.s1_config(100, eval_every=25) == acceptance.s1_config()


def test_iterations_per_epoch_matches_the_sampler(mods):
    ctx = _context(mods, 4, scale="full")
    split = ctx.s1_split()
    sampler = mods["data"].BatchSampler(split, 64, 64, None, None)
    assert workloads.iterations_per_epoch(10, 500, 64) == sampler.iterations_per_epoch == 59


def test_tracer_restores_every_wrapper(mods):
    before = {name: dict(vars(module)) for name, module in mods.items()}
    tracer = tracing.Tracer()
    with tracer.installed(mods):
        assert len(tracing.wrapped_names(mods)) == len(tracing.TIMED) + len(tracing.COUNTED) + 2
    assert tracing.wrapped_names(mods) == []
    for name, module in mods.items():
        assert {k: v for k, v in vars(module).items()} == before[name]


def test_traced_repetition_emits_the_untraced_metric_lines(mods, tmp_path):
    plain = workloads.run_s2_wide(_context(mods, 5, workdir=tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed(mods):
        traced = workloads.run_s2_wide(_context(mods, 5, workdir=tmp_path, tracer=tracer))
    assert plain.ok and traced.ok
    assert plain.digest == traced.digest
    assert tracer.counts["trainer.iterations"] == plain.iterations
    assert len(tracer.iter_ms) == plain.iterations


def test_digest_mismatch_counts_as_a_failed_operation():
    args = SimpleNamespace(seed=7, scale="toy", workload="s1-cli")
    reps = [workloads.Rep(digest="a", attempted=1), workloads.Rep(digest="b", attempted=1)]
    run.check_digests(args, reps)
    assert [r.failed for r in reps] == [0, 1]


def _benchmark_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_at_toy_scale(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _benchmark_names(trace)
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s1-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
