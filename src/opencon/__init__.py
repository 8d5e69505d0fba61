"""Open-world contrastive learning on mixed labeled/unlabeled data.

Train an L2-normalized encoder with a composite contrastive objective,
discover novel classes through prototype-gated pseudo-labeling, and evaluate
with assignment-based accuracy. Includes a synthetic data generator, a
manual-gradient MLP encoder, and numerical verification of the objective's
clustering interpretation.

Importing the package loads nothing else: each name below imports its
submodule (and NumPy) on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "OpenConError", "Rng", "VmfParams", "l2_normalize", "percentile_threshold",
        "sample_vmf", "softmax",
    ),
    "data": (
        "AugmentConfig", "BatchSampler", "Dataset", "MultiViewBatch", "SplitDataset",
        "augment", "generate_synthetic", "ingest_features", "make_split",
        "write_features",
    ),
    "encoder": ("Mlp", "Optimizer", "OptimizerConfig", "backward", "forward"),
    "objective": (
        "ContrastSets", "LossBreakdown", "LossWeights", "build_sets_novel",
        "build_sets_simclr", "build_sets_supcon", "decompose_alignment",
        "kl_regularizer", "loss_modified", "loss_novel", "loss_opencon",
        "per_sample_loss",
    ),
    "prototype": (
        "GateResult", "PrototypeStore", "calibrate_threshold", "detection_metrics",
        "init_prototypes", "ood_gate", "ood_scores", "pseudo_labels",
        "update_prototypes",
    ),
    "evaluation": (
        "AccuracyTriple", "accuracy_triple", "converged_cluster_count",
        "estimate_class_number", "hungarian", "spherical_kmeans",
        "verify_alignment_identity", "verify_collision_bound",
        "verify_optimal_prototypes",
    ),
    "trainer": ("EpochReport", "TrainConfig", "TrainResult", "ablate", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
