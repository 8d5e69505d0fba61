"""What `import opencon` and the `opencon` command load, run in fresh
interpreters with no BLAS thread variables set."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import opencon

SRC = Path(opencon.__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `opencon.__all__` before the package became lazy; every name must still
# import from the package
PUBLIC_NAMES = (
    "AccuracyTriple", "AugmentConfig", "BatchSampler", "ContrastSets", "Dataset",
    "EpochReport", "GateResult", "LossBreakdown", "LossWeights", "Mlp",
    "MultiViewBatch", "OpenConError", "Optimizer", "OptimizerConfig",
    "PrototypeStore", "Rng", "SplitDataset", "TrainConfig", "TrainResult",
    "VmfParams", "ablate", "accuracy_triple", "augment", "backward",
    "build_sets_novel", "build_sets_simclr", "build_sets_supcon",
    "calibrate_threshold", "converged_cluster_count", "core", "data",
    "decompose_alignment", "detection_metrics", "encoder", "estimate_class_number",
    "evaluation", "forward", "generate_synthetic", "hungarian", "ingest_features",
    "init_prototypes", "kl_regularizer", "l2_normalize", "loss_modified",
    "loss_novel", "loss_opencon", "make_split", "objective", "ood_gate",
    "ood_scores", "per_sample_loss", "percentile_threshold", "prototype",
    "pseudo_labels", "sample_vmf", "softmax", "spherical_kmeans", "train",
    "trainer", "update_prototypes", "verify_alignment_identity",
    "verify_collision_bound", "verify_optimal_prototypes", "write_features",
)


def run_python(code: str, *args, **env) -> str:
    """Run `code` in a fresh interpreter without the thread variables (plus
    `env`); return its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child_env.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=child_env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy():
    out = run_python("""
        import sys
        import opencon
        print(opencon.__version__, "numpy" in sys.modules)
    """)
    assert out.split() == [opencon.__version__, "False"]


def test_cli_pins_blas_to_one_thread():
    out = run_python("""
        import json, os, sys
        import opencon.cli
        print(json.dumps({v: os.environ.get(v) for v in sys.argv[1:]}))
    """, *THREAD_VARS)
    assert json.loads(out) == dict.fromkeys(THREAD_VARS, "1")


def test_cli_keeps_a_thread_count_from_the_environment():
    out = run_python("""
        import os
        import opencon.cli
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """, OPENBLAS_NUM_THREADS="2")
    assert out.strip() == "2"


def test_every_public_name_imports():
    out = run_python("""
        import sys
        import opencon
        for name in sys.argv[1:]:
            exec(f"from opencon import {name}")
        print(sorted(set(sys.argv[1:]) - set(opencon.__all__)))
    """, *PUBLIC_NAMES)
    assert out.strip() == "[]"


def test_only_verify_loads_scipy(tmp_path):
    out = run_python("""
        import sys
        from opencon.cli import main

        work = sys.argv[1]
        data = work + "/tiny.ocft"
        split = ["--data", data, "--known-frac", "0.5", "--label-ratio", "0.5"]
        train = ["--epochs", "1", "--b-l", "8", "--b-u", "8", "--embed-dim", "8"]
        commands = [
            ["gen-data", "--classes", "4", "--per-class", "12", "--dim", "6",
             "--kappa", "40", "--out", data],
            ["train", *split, *train, "--metrics", work + "/m.jsonl",
             "--summary", work + "/s.json", "--checkpoint-out", work + "/c.ockp"],
            ["eval", *split, "--checkpoint", work + "/c.ockp", "--out", work + "/e.json"],
            ["estimate-k", *split, "--range", "2:4", "--out", work + "/k.json"],
            ["ablate", *split, *train, "--preset", "modified-loss",
             "--out", work + "/a.json"],
        ]
        codes = [main([*argv, "--no-timestamps"]) for argv in commands]
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        codes.append(main(["verify", "--trials", "1", "--out", work + "/v.json"]))
        print(codes, loaded)
    """, str(tmp_path))
    assert out.strip() == "[0, 0, 0, 0, 0, 0] []"
