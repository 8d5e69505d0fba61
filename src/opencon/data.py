"""Open-world datasets: synthetic mixtures on the sphere, known/novel class
splits, two-view augmentation, epoch batch sampling, and feature-file I/O.

A dataset is immutable after construction. The only mutable cursor lives in
:class:`BatchSampler`, which is owned by the training thread.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from opencon.core import (
    OpenConError,
    Rng,
    VmfParams,
    as_f64,
    sample_uniform_sphere,
    sample_vmf,
)

UNLABELED = -1

FEATURE_MAGIC = b"OCFT"
FEATURE_VERSION = 1

MEAN_PLACEMENT_TRIES = 10_000  # draws per class mean in generate_synthetic


class InvalidDimension(OpenConError):
    """Feature dimension too small for the requested construction."""


class EmptyLabeledSet(OpenConError):
    """A split configuration would leave the labeled pool empty."""


class BatchTooLarge(OpenConError):
    """Requested batch size exceeds the available pool."""


class ParseError(OpenConError):
    """A feature file failed to parse; carries the CSV line, when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class DimensionMismatch(OpenConError):
    """Rows of a feature file disagree on dimension."""


@dataclass(frozen=True)
class Dataset:
    """A flat pool of feature rows with (possibly hidden) integer labels.

    label -1 means unlabeled/unknown.
    """

    features: np.ndarray  # (n, m) float64
    labels: np.ndarray    # (n,) int64, -1 = unlabeled
    ids: np.ndarray       # (n,) int64

    def __post_init__(self):
        object.__setattr__(self, "features", as_f64(self.features))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.int64))
        if self.features.ndim != 2:
            raise InvalidDimension("features must be 2-D (n, m)")
        if len(self.labels) != len(self.features) or len(self.ids) != len(self.features):
            raise DimensionMismatch("features/labels/ids length mismatch")
        ids = np.sort(self.ids)
        if (ids[1:] == ids[:-1]).any():
            # views are paired by id: a shared id makes other samples positives
            raise ValueError("sample ids must be unique")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def generate_synthetic(
    n_classes: int,
    per_class: int,
    ambient_dim: int,
    kappa: float,
    rng: Rng,
    max_mean_cosine: float = 0.5,
) -> Dataset:
    """Class-balanced mixture of von Mises-Fisher clusters.

    Class mean directions are drawn uniformly on the sphere, redrawing any
    mean whose cosine to an earlier mean exceeds `max_mean_cosine` so the
    benchmark stays solvable at small concentration.
    """
    if ambient_dim < 2:
        raise InvalidDimension(f"ambient_dim must be >= 2, got {ambient_dim}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if per_class < 0:
        raise ValueError(f"per_class must be >= 0, got {per_class}")
    means = np.zeros((n_classes, ambient_dim))
    for c in range(n_classes):
        for _ in range(MEAN_PLACEMENT_TRIES):
            cand = sample_uniform_sphere(ambient_dim, 1, rng)[0]
            if c == 0 or np.max(means[:c] @ cand) <= max_mean_cosine:
                means[c] = cand
                break
        else:
            raise OpenConError(
                f"could not place {n_classes} class means with pairwise cosine "
                f"<= {max_mean_cosine} in dim {ambient_dim}"
            )
    feats = np.zeros((n_classes * per_class, ambient_dim))
    labels = np.zeros(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        block = sample_vmf(VmfParams(means[c], kappa), per_class, rng)
        feats[c * per_class:(c + 1) * per_class] = block
        labels[c * per_class:(c + 1) * per_class] = c
    return Dataset(feats, labels, np.arange(len(labels)))


@dataclass(frozen=True)
class SplitDataset:
    """Labeled pool, unlabeled pool, and the class bookkeeping around them.

    `labels` holds the full ground truth; labels of unlabeled rows are kept
    only so evaluation can score transductively. Training code must only read
    labels of rows in `labeled_idx`.
    """

    features: np.ndarray      # (n, m)
    labels: np.ndarray        # (n,) ground truth
    ids: np.ndarray           # (n,)
    labeled_idx: np.ndarray   # indices into rows
    unlabeled_idx: np.ndarray
    known_classes: np.ndarray  # sorted class ids with labeled data
    all_classes: np.ndarray    # sorted, hidden truth (evaluation only)

    def __post_init__(self):
        n = len(self.labels)
        rows = np.concatenate([self.labeled_idx, self.unlabeled_idx])
        if np.isin(self.labeled_idx, self.unlabeled_idx).any():
            raise OpenConError("labeled and unlabeled pools overlap")
        # range first: bincount rejects a row below 0 and grows past n for one above
        in_range = not rows.size or 0 <= rows.min() <= rows.max() < n
        if not in_range or not (counts := np.bincount(rows, minlength=n)).all():
            raise OpenConError("labeled/unlabeled pools do not partition the dataset")
        if (repeated := np.flatnonzero(counts > 1)).size:
            # a repeated row is sampled twice an epoch and scored twice
            raise OpenConError(f"a split pool repeats row {repeated[0]}")
        if not np.isin(self.labels[self.labeled_idx], self.known_classes).all():
            raise OpenConError("a labeled sample carries a non-known class")

    @property
    def novel_classes(self) -> np.ndarray:
        return np.setdiff1d(self.all_classes, self.known_classes)

    @property
    def n_labeled(self) -> int:
        return len(self.labeled_idx)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unlabeled_idx)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def labeled_features(self) -> np.ndarray:
        return self.features[self.labeled_idx]

    def labeled_labels(self) -> np.ndarray:
        return self.labels[self.labeled_idx]

    def unlabeled_features(self) -> np.ndarray:
        return self.features[self.unlabeled_idx]

    def unlabeled_true_labels(self) -> np.ndarray:
        """Ground truth of the unlabeled pool. Evaluation only."""
        return self.labels[self.unlabeled_idx]


def make_split(
    dataset: Dataset,
    known_fraction: float,
    labeling_ratio: float,
    rng: Rng,
) -> SplitDataset:
    """Partition a fully labeled dataset into an open-world split.

    The floor(known_fraction * C) lowest class ids become known; within each
    known class, floor(labeling_ratio * count) samples (chosen by `rng`) form
    the labeled pool. Everything else - the rest of the known samples plus
    every novel-class sample - is the unlabeled pool.
    """
    if not 0.0 < known_fraction <= 1.0 or not 0.0 < labeling_ratio <= 1.0:
        raise ValueError("known_fraction and labeling_ratio must lie in (0, 1]")
    classes = np.unique(dataset.labels)
    if np.any(classes < 0):
        raise ValueError("make_split needs a fully labeled dataset")
    if not np.array_equal(classes, np.arange(len(classes))):
        # known prototype rows are index-aligned with class ids
        raise ValueError(f"class ids must be 0..{len(classes) - 1}, "
                         f"got {classes.min()}..{classes.max()}")
    n_known = int(np.floor(known_fraction * len(classes)))
    if n_known == 0:
        raise EmptyLabeledSet("known_fraction selects zero classes")
    known = classes[:n_known]
    labeled: list[np.ndarray] = []
    for c in known:
        rows = np.flatnonzero(dataset.labels == c)
        take = int(np.floor(labeling_ratio * len(rows)))
        perm = rng.permutation(len(rows))
        labeled.append(rows[perm[:take]])
    labeled_idx = np.sort(np.concatenate(labeled)) if labeled else np.zeros(0, np.int64)
    if labeled_idx.size == 0:
        raise EmptyLabeledSet("labeling_ratio leaves no labeled samples")
    mask = np.ones(dataset.n, dtype=bool)
    mask[labeled_idx] = False
    unlabeled_idx = np.flatnonzero(mask)
    return SplitDataset(
        features=dataset.features,
        labels=dataset.labels,
        ids=dataset.ids,
        labeled_idx=labeled_idx.astype(np.int64),
        unlabeled_idx=unlabeled_idx.astype(np.int64),
        known_classes=known.astype(np.int64),
        all_classes=classes.astype(np.int64),
    )


@dataclass(frozen=True)
class AugmentConfig:
    """Vector-space stand-in for image augmentation: additive Gaussian noise
    plus independent coordinate masking."""

    sigma: float = 0.1
    p_mask: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(
                f"augmentation sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 <= self.p_mask < 1.0:
            raise ValueError(f"augmentation p_mask must lie in [0, 1), got {self.p_mask}")


def augment(x: np.ndarray, rng: Rng, cfg: AugmentConfig) -> np.ndarray:
    """One stochastic view of `x` (vector or row stack): add noise, then zero
    each coordinate independently with probability p_mask."""
    x = as_f64(x)
    out = x + cfg.sigma * rng.normal(size=x.shape) if cfg.sigma > 0 else x.copy()
    if cfg.p_mask > 0:
        keep = rng.random(size=x.shape) >= cfg.p_mask
        out = out * keep
    return out


@dataclass(frozen=True)
class MultiViewBatch:
    """Two augmented views per selected sample, pair-adjacent: views of
    sample k sit at rows 2k and 2k+1."""

    sample_ids: np.ndarray  # (2b,)
    inputs: np.ndarray      # (2b, m) augmented
    labels: np.ndarray      # (2b,) int64, -1 = none

    @property
    def n_views(self) -> int:
        return len(self.sample_ids)


def _two_views(
    features: np.ndarray,
    sample_ids: np.ndarray,
    labels: np.ndarray,
    rng_augment: Rng,
    cfg: AugmentConfig,
) -> MultiViewBatch:
    rep = np.repeat(np.arange(len(sample_ids)), 2)
    views = augment(features[rep], rng_augment, cfg)
    return MultiViewBatch(
        sample_ids=np.asarray(sample_ids, np.int64)[rep],
        inputs=views,
        labels=np.asarray(labels, np.int64)[rep],
    )


class BatchSampler:
    """Epoch-wise two-view batch cursor over a split.

    Each epoch draws one fresh permutation of the labeled pool and one of the
    unlabeled pool. The unlabeled pool is consumed without replacement (last
    batch is the remainder); the labeled permutation is cycled so labeled
    batches keep full size. All sampler state at an epoch boundary lives in
    the rng streams, which keeps checkpoints small and resumes exact.
    """

    def __init__(
        self,
        split: SplitDataset,
        b_l: int,
        b_u: int,
        rng_data: Rng,
        rng_augment: Rng,
        cfg: AugmentConfig | None = None,
    ):
        if b_l > split.n_labeled:
            raise BatchTooLarge(f"b_l={b_l} > labeled pool {split.n_labeled}")
        if b_u > split.n_unlabeled:
            raise BatchTooLarge(f"b_u={b_u} > unlabeled pool {split.n_unlabeled}")
        if b_l <= 0:
            raise ValueError("b_l must be >= 1 (calibration needs labeled views)")
        if b_u < 0:
            raise ValueError("b_u must be >= 0")
        self.split = split
        self.b_l = b_l
        self.b_u = b_u
        self.rng_data = rng_data
        self.rng_augment = rng_augment
        self.cfg = cfg if cfg is not None else AugmentConfig()

    @property
    def iterations_per_epoch(self) -> int:
        if self.b_u > 0:
            return -(-self.split.n_unlabeled // self.b_u)
        return -(-self.split.n_labeled // self.b_l)

    def epoch(self):
        """Yield (labeled batch, unlabeled batch) pairs for one epoch."""
        split = self.split
        perm_l = self.rng_data.permutation(split.n_labeled)
        perm_u = self.rng_data.permutation(split.n_unlabeled)
        for it in range(self.iterations_per_epoch):
            lsel = perm_l[(it * self.b_l + np.arange(self.b_l)) % split.n_labeled]
            rows_l = split.labeled_idx[lsel]
            batch_l = _two_views(
                split.features[rows_l], split.ids[rows_l], split.labels[rows_l],
                self.rng_augment, self.cfg,
            )
            usel = perm_u[it * self.b_u:(it + 1) * self.b_u]
            rows_u = split.unlabeled_idx[usel]
            batch_u = _two_views(
                split.features[rows_u], split.ids[rows_u],
                np.full(len(rows_u), UNLABELED, np.int64),
                self.rng_augment, self.cfg,
            )
            yield batch_l, batch_u


# ---------------------------------------------------------------------------
# Feature file formats
#
# CSV: header `id,label,f0,...,f{m-1}`; label -1 = unlabeled; UTF-8, LF.
# Binary: magic OCFT, then the blocks (3,) <u4 [version=1, n, m],
#         () u1 has_labels, (n, m) <f4 row-major, and (if has_labels) (n,) <i4.
# ---------------------------------------------------------------------------

def write_features(path, dataset: Dataset, fmt: str = "binary") -> None:
    if fmt == "csv":
        _write_csv(path, dataset)
    elif fmt == "binary":
        _write_binary(path, dataset)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def ingest_features(path, fmt: str = "auto") -> Dataset:
    """Load a feature file. fmt `auto` sniffs the binary magic."""
    if fmt == "auto":
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == FEATURE_MAGIC else "csv"
    if fmt == "csv":
        return _read_csv(path)
    if fmt == "binary":
        return _read_binary(path)
    raise ValueError(f"unknown format {fmt!r}")


def _write_csv(path, dataset: Dataset) -> None:
    m = dataset.dim
    header = "id,label," + ",".join(f"f{j}" for j in range(m))
    f32 = dataset.features.astype(np.float32)
    with open_atomic(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(dataset.n):
            row = ",".join(np.format_float_positional(v, unique=True) for v in f32[i])
            fh.write(f"{dataset.ids[i]},{dataset.labels[i]},{row}\n")


def _read_csv(path) -> Dataset:
    ids, labels, rows = [], [], []
    dim = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("id,label,"):
                raise ParseError("missing `id,label,f0,...` header", line=1)
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 3:
                    raise ParseError("row needs id, label and at least one feature", line=lineno)
                try:
                    ids.append(int(parts[0]))
                    labels.append(int(parts[1]))
                    rows.append(np.array([np.float32(p) for p in parts[2:]], dtype=np.float32))
                except ValueError as exc:
                    raise ParseError(f"bad value: {exc}", line=lineno) from exc
                if dim is None:
                    dim = len(parts) - 2
                elif len(parts) - 2 != dim:
                    raise DimensionMismatch(
                        f"row at line {lineno} has {len(parts) - 2} features, expected {dim}"
                    )
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from exc
    if dim is None:
        dim = 0
    feats = np.vstack(rows).astype(np.float64) if rows else np.zeros((0, dim))
    return Dataset(feats, np.array(labels, np.int64), np.array(ids, np.int64))


def _write_binary(path, dataset: Dataset) -> None:
    has_labels = int(np.any(dataset.labels != UNLABELED)) if dataset.n else 1
    blocks = [np.array([FEATURE_VERSION, dataset.n, dataset.dim], "<u4"),
              np.array(has_labels, "u1"),
              dataset.features.astype("<f4")]
    if has_labels:
        blocks.append(dataset.labels.astype("<i4"))
    write_blocks(path, FEATURE_MAGIC, blocks)


def _read_binary(path) -> Dataset:
    reader = BlockReader(path, FEATURE_MAGIC, ParseError)
    version, n, m = (int(v) for v in reader.take((3,), "<u4"))
    if version != FEATURE_VERSION:
        raise ParseError(f"unsupported version {version} (offset 4)")
    if m == 0:
        raise ParseError("rows need at least one feature, the file has m = 0 (offset 12)")
    has_labels = reader.flag("has_labels")
    feats = reader.take((n, m), "<f4", np.float64)
    labels = reader.take((n,), "<i4", np.int64) if has_labels else np.full(n, UNLABELED)
    reader.done()
    return Dataset(feats, labels, np.arange(n))


@contextlib.contextmanager
def open_atomic(path, mode: str = "wb", **kwargs):
    """Open a temporary sibling of `path` for writing and move it onto `path`
    with `os.replace` when the block ends without an exception, so `path`
    holds either its previous bytes or all of the new ones. On an exception
    the temporary file is removed and `path` is left untouched. Nothing is
    fsynced: this guards against a failed or killed process, not power loss."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


# Binary block codec shared by feature files and checkpoints: a magic, then
# fixed-dtype arrays back to back with no padding (header fields included).

def write_blocks(path, magic: bytes, blocks) -> None:
    """Write `magic`, then the C-order bytes of each array in `blocks`,
    atomically (see :func:`open_atomic`)."""
    with open_atomic(path) as fh:
        fh.write(magic)
        for block in blocks:
            fh.write(block.tobytes(order="C"))


class BlockReader:
    """Reads back a :func:`write_blocks` file one block at a time; a bad
    magic, a truncated block or trailing bytes raise `error`."""

    def __init__(self, path, magic: bytes, error: type[Exception]):
        with open(path, "rb") as fh:
            self._blob = fh.read()
        self._error = error
        if self._blob[:len(magic)] != magic:
            raise error(f"bad magic {self._blob[:len(magic)]!r}, expected {magic!r}")
        self._off = len(magic)

    def take(self, shape: tuple[int, ...], dtype: str, as_dtype: type | None = None) -> np.ndarray:
        """The next block, copied (converted to `as_dtype` when given) so that
        it is aligned and writable."""
        count = math.prod(shape)
        need = count * np.dtype(dtype).itemsize
        if len(self._blob) < self._off + need:
            raise self._error(f"truncated block at offset {self._off}")
        arr = np.frombuffer(self._blob, dtype, count, self._off).reshape(shape)
        self._off += need
        return arr.astype(as_dtype or dtype)

    def flag(self, name: str) -> int:
        """The next block, a () u1 named `name` that must be 0 or 1."""
        at, value = self._off, int(self.take((), "u1"))
        if value > 1:
            raise self._error(f"{name} byte {value} at offset {at}, expected 0 or 1")
        return value

    def done(self) -> None:
        """Call after the last block: the file must end exactly there."""
        if self._off != len(self._blob):
            raise self._error(f"trailing bytes at offset {self._off}")
