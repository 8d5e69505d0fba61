"""Open-world contrastive learning on mixed labeled/unlabeled data.

Train an L2-normalized encoder with a composite contrastive objective,
discover novel classes through prototype-gated pseudo-labeling, and evaluate
with assignment-based accuracy. Includes a synthetic data generator, a
manual-gradient MLP encoder, and numerical verification of the objective's
clustering interpretation.
"""

from opencon.core import (
    OpenConError,
    Rng,
    VmfParams,
    l2_normalize,
    percentile_threshold,
    sample_vmf,
    softmax,
)
from opencon.data import (
    AugmentConfig,
    BatchSampler,
    Dataset,
    MultiViewBatch,
    SplitDataset,
    augment,
    generate_synthetic,
    ingest_features,
    make_split,
    write_features,
)
from opencon.encoder import Mlp, Optimizer, OptimizerConfig, backward, forward
from opencon.objective import (
    ContrastSets,
    LossBreakdown,
    LossWeights,
    build_sets_novel,
    build_sets_simclr,
    build_sets_supcon,
    decompose_alignment,
    kl_regularizer,
    loss_modified,
    loss_novel,
    loss_opencon,
    per_sample_loss,
)
from opencon.prototype import (
    GateResult,
    PrototypeStore,
    calibrate_threshold,
    detection_metrics,
    init_prototypes,
    ood_gate,
    ood_scores,
    pseudo_labels,
    update_prototypes,
)
from opencon.evaluation import (
    AccuracyTriple,
    accuracy_triple,
    converged_cluster_count,
    estimate_class_number,
    hungarian,
    spherical_kmeans,
    verify_alignment_identity,
    verify_collision_bound,
    verify_optimal_prototypes,
)
from opencon.trainer import EpochReport, TrainConfig, TrainResult, ablate, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
