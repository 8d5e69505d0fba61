import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.core import OpenConError, Rng, l2_normalize
from opencon.data import (
    AugmentConfig,
    BatchSampler,
    BatchTooLarge,
    Dataset,
    DimensionMismatch,
    EmptyLabeledSet,
    InvalidDimension,
    ParseError,
    SplitDataset,
    augment,
    generate_synthetic,
    ingest_features,
    make_split,
    write_features,
)


@pytest.fixture
def small_dataset():
    return generate_synthetic(10, 100, 16, 40.0, Rng(0, "data"))


class TestGenerateSynthetic:
    def test_counts(self):
        ds = generate_synthetic(2, 10, 8, 50.0, Rng(1, "data"))
        assert ds.n == 20
        assert ds.dim == 8
        assert np.sum(ds.labels == 0) == 10
        assert np.sum(ds.labels == 1) == 10

    def test_empty(self):
        ds = generate_synthetic(3, 0, 8, 50.0, Rng(1, "data"))
        assert ds.n == 0

    def test_negative_per_class_rejected(self):
        with pytest.raises(ValueError, match="per_class"):
            generate_synthetic(3, -5, 8, 50.0, Rng(1, "data"))

    def test_bad_dim(self):
        with pytest.raises(InvalidDimension):
            generate_synthetic(2, 10, 1, 50.0, Rng(1, "data"))

    def test_high_kappa_concentrates(self):
        ds = generate_synthetic(4, 30, 12, 1e6, Rng(2, "data"))
        for c in range(4):
            block = ds.features[ds.labels == c]
            center = l2_normalize(block.mean(axis=0))
            angles = np.degrees(np.arccos(np.clip(block @ center, -1, 1)))
            assert np.max(angles) < 1.0

    def test_means_spread(self):
        # at extreme concentration the per-class mean is the class direction
        ds = generate_synthetic(6, 20, 16, 1e6, Rng(3, "data"))
        means = np.stack([
            l2_normalize(ds.features[ds.labels == c].mean(axis=0)) for c in range(6)
        ])
        cos = means @ means.T - np.eye(6)
        assert cos.max() <= 0.5 + 1e-3

    def test_unit_inputs(self, small_dataset):
        np.testing.assert_allclose(
            np.linalg.norm(small_dataset.features, axis=1), 1.0, atol=1e-9)


class TestMakeSplit:
    def test_half_half_counts(self):
        ds = generate_synthetic(10, 100, 8, 50.0, Rng(4, "data"))
        split = make_split(ds, 0.5, 0.5, Rng(4, "data"))
        assert len(split.known_classes) == 5
        assert split.n_labeled == 250
        assert split.n_unlabeled == 750

    def test_floor_rule(self):
        ds = generate_synthetic(10, 20, 8, 50.0, Rng(5, "data"))
        split = make_split(ds, 0.25, 0.5, Rng(5, "data"))
        assert len(split.known_classes) == 2
        assert len(split.novel_classes) == 8

    def test_closed_world(self):
        ds = generate_synthetic(4, 10, 8, 50.0, Rng(6, "data"))
        split = make_split(ds, 1.0, 1.0, Rng(6, "data"))
        assert split.n_unlabeled == 0
        assert split.n_labeled == ds.n

    def test_partition(self, small_dataset):
        split = make_split(small_dataset, 0.5, 0.3, Rng(7, "data"))
        joined = np.sort(np.concatenate([split.labeled_idx, split.unlabeled_idx]))
        np.testing.assert_array_equal(joined, np.arange(small_dataset.n))

    def test_novel_classes_have_no_labels(self, small_dataset):
        split = make_split(small_dataset, 0.4, 0.5, Rng(8, "data"))
        labeled_classes = set(split.labeled_labels().tolist())
        assert labeled_classes.isdisjoint(set(split.novel_classes.tolist()))

    def test_empty_labeled_raises(self):
        ds = generate_synthetic(4, 10, 8, 50.0, Rng(9, "data"))
        with pytest.raises(EmptyLabeledSet):
            make_split(ds, 0.5, 0.05, Rng(9, "data"))  # floor(0.05*10) = 0 per class

    @pytest.mark.parametrize("shift", [lambda y: y + 1, lambda y: np.where(y >= 2, y + 1, y)],
                             ids=["from-one", "gap"])
    def test_class_ids_must_be_zero_to_c_minus_one(self, shift):
        # known prototype rows are index-aligned with class ids
        ds = generate_synthetic(6, 10, 8, 50.0, Rng(9, "data"))
        shifted = Dataset(ds.features, shift(ds.labels), ds.ids)
        with pytest.raises(ValueError, match="class ids"):
            make_split(shifted, 0.5, 0.5, Rng(9, "data"))

    def test_bad_fractions(self):
        ds = generate_synthetic(4, 10, 8, 50.0, Rng(9, "data"))
        with pytest.raises(ValueError):
            make_split(ds, 0.0, 0.5, Rng(9, "data"))
        with pytest.raises(ValueError):
            make_split(ds, 0.5, 1.5, Rng(9, "data"))



OVERLAP = "labeled and unlabeled pools overlap"
PARTITION = "labeled/unlabeled pools do not partition the dataset"
NON_KNOWN = "a labeled sample carries a non-known class"


def split_of(labeled, unlabeled, labels, known):
    n = len(labels)
    return SplitDataset(np.zeros((n, 2)), np.asarray(labels, np.int64), np.arange(n),
                        np.asarray(labeled, np.int64), np.asarray(unlabeled, np.int64),
                        np.asarray(known, np.int64), np.arange(3))


def set_reference(labeled, unlabeled, labels, known):
    """The set-based split checks that the NumPy ones replaced: the message
    they raised, or None. They never saw a repeated row."""
    labels, labeled = np.asarray(labels, np.int64), np.asarray(labeled, np.int64)
    li, ui = set(labeled.tolist()), set(unlabeled)
    if li & ui:
        return OVERLAP
    if li | ui != set(range(len(labels))):
        return PARTITION
    lab_classes = set(labels[labeled].tolist())
    if not lab_classes <= set(known):
        return NON_KNOWN
    return None


class TestSplitChecks:
    @pytest.mark.parametrize("labeled, unlabeled, message", [
        ([0, 1], [1, 2, 3], OVERLAP),
        ([0, 1], [3], PARTITION),            # row 2 is in neither pool
        ([0, 1], [2, -1], PARTITION),        # -1 is no row, not row 3
        ([0, 1], [2, 3, 4], PARTITION),
        ([0, 1, 1], [2, 3], "a split pool repeats row 1"),
        ([0, 1], [3, 2, 3], "a split pool repeats row 3"),
        ([0, 2], [1, 3], NON_KNOWN),         # row 2 is of class 2
    ], ids=["overlap", "gap", "negative", "past-n", "repeat-labeled", "repeat-unlabeled",
            "novel-labeled"])
    def test_rejections(self, labeled, unlabeled, message):
        with pytest.raises(OpenConError) as exc:
            split_of(labeled, unlabeled, [0, 1, 2, 0], known=[0, 1])
        assert type(exc.value) is OpenConError
        assert str(exc.value) == message

    def test_repeated_labeled_row_of_a_three_row_pool(self):
        with pytest.raises(OpenConError, match="repeats row 0"):
            SplitDataset(np.zeros((3, 2)), np.array([0, 0, 1]), np.arange(3),
                         np.array([0, 0, 1]), np.array([2]), np.array([0]),
                         np.array([0, 1]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_set_reference(self, data):
        n = data.draw(st.integers(0, 6), "n")
        rows = data.draw(st.permutations(range(n)), "rows")
        cut = data.draw(st.integers(0, n), "cut")
        stray = st.lists(st.integers(-2, n + 1), max_size=2)
        gap = data.draw(st.integers(0, 1), "gap")  # 1 leaves row rows[cut - 1] out
        labeled = rows[:max(cut - gap, 0)] + data.draw(stray, "labeled extra")
        unlabeled = rows[cut:] + data.draw(stray, "unlabeled extra")
        if data.draw(st.booleans(), "repeat"):  # list the first row of one pool twice
            pool = data.draw(st.sampled_from([labeled, unlabeled]), "pool")
            pool += pool[:1]
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), "labels")
        known = data.draw(st.lists(st.integers(0, 2), unique=True), "known")

        expected = set_reference(labeled, unlabeled, labels, known)
        pooled = labeled + unlabeled
        repeated = sorted(r for r in set(pooled) if pooled.count(r) > 1)
        if repeated and expected in (None, NON_KNOWN):
            expected = f"a split pool repeats row {repeated[0]}"
        if expected is None:
            split = split_of(labeled, unlabeled, labels, known)
            assert split.n_labeled + split.n_unlabeled == n
        else:
            with pytest.raises(OpenConError) as exc:
                split_of(labeled, unlabeled, labels, known)
            assert str(exc.value) == expected


class TestAugment:
    def test_identity(self):
        x = np.linspace(-1, 1, 10)
        out = augment(x, Rng(0, "augment"), AugmentConfig(sigma=0.0, p_mask=0.0))
        np.testing.assert_array_equal(out, x)

    def test_views_differ(self):
        x = np.ones(16)
        rng = Rng(1, "augment")
        cfg = AugmentConfig(sigma=0.1, p_mask=0.1)
        assert not np.array_equal(augment(x, rng, cfg), augment(x, rng, cfg))

    def test_noise_magnitude(self):
        m = 32
        x = l2_normalize(np.ones(m))
        rng = Rng(2, "augment")
        cfg = AugmentConfig(sigma=0.1, p_mask=0.0)
        sq = [np.sum((augment(x, rng, cfg) - x) ** 2) for _ in range(10_000)]
        assert abs(np.mean(sq) - m * 0.01) < m * 0.01 * 0.1

    def test_masking_rate(self):
        x = np.ones(50)
        rng = Rng(3, "augment")
        cfg = AugmentConfig(sigma=0.0, p_mask=0.25)
        zeros = np.mean([np.mean(augment(x, rng, cfg) == 0) for _ in range(2000)])
        assert abs(zeros - 0.25) < 0.02


class TestBatchSampler:
    def make_split(self, n_classes=4, per_class=50):
        ds = generate_synthetic(n_classes, per_class, 8, 50.0, Rng(10, "data"))
        return make_split(ds, 0.5, 0.5, Rng(10, "data"))

    def test_two_views_per_sample(self):
        split = self.make_split()
        sampler = BatchSampler(split, 2, 4, Rng(11, "data"), Rng(11, "augment"))
        batch_l, batch_u = next(iter(sampler.epoch()))
        assert batch_l.n_views == 4
        assert batch_u.n_views == 8
        np.testing.assert_array_equal(batch_l.view_index, [0, 1, 0, 1])
        assert batch_l.sample_ids[0] == batch_l.sample_ids[1]

    def test_epoch_batch_shapes(self):
        ds = generate_synthetic(2, 60, 8, 50.0, Rng(12, "data"))
        split = make_split(ds, 1.0, 10 / 60 + 1e-9, Rng(12, "data"))  # 100 unlabeled
        assert split.n_unlabeled == 100
        sampler = BatchSampler(split, 4, 32, Rng(12, "data"), Rng(12, "augment"))
        sizes = [bu.n_samples for _, bu in sampler.epoch()]
        assert sizes == [32, 32, 32, 4]

    def test_epoch_covers_unlabeled_once(self):
        split = self.make_split()
        sampler = BatchSampler(split, 4, 16, Rng(13, "data"), Rng(13, "augment"))
        seen = np.concatenate([bu.sample_ids[::2] for _, bu in sampler.epoch()])
        np.testing.assert_array_equal(np.sort(seen),
                                      np.sort(split.ids[split.unlabeled_idx]))

    def test_unlabeled_disabled(self):
        split = self.make_split()
        sampler = BatchSampler(split, 8, 0, Rng(14, "data"), Rng(14, "augment"))
        batches = list(sampler.epoch())
        assert all(bu.n_views == 0 for _, bu in batches)
        assert len(batches) == -(-split.n_labeled // 8)

    def test_batch_too_large(self):
        split = self.make_split()
        with pytest.raises(BatchTooLarge):
            BatchSampler(split, split.n_labeled + 1, 4, Rng(0, "data"), Rng(0, "augment"))
        with pytest.raises(BatchTooLarge):
            BatchSampler(split, 4, split.n_unlabeled + 1, Rng(0, "data"), Rng(0, "augment"))

    @pytest.mark.parametrize("b_u", [-1, -5])
    def test_negative_unlabeled_batch(self, b_u):
        split = self.make_split()
        with pytest.raises(ValueError, match="b_u"):
            BatchSampler(split, 4, b_u, Rng(0, "data"), Rng(0, "augment"))

    def test_labels_attached(self):
        split = self.make_split()
        sampler = BatchSampler(split, 4, 4, Rng(15, "data"), Rng(15, "augment"))
        batch_l, batch_u = next(iter(sampler.epoch()))
        assert np.all(batch_l.labels >= 0)
        assert np.all(batch_u.labels == -1)


class TestFeatureFiles:
    def test_csv_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,label,f0,f1\n0,3,0.1,0.2\n")
        ds = ingest_features(path, fmt="csv")
        assert ds.n == 1 and ds.dim == 2
        assert ds.labels[0] == 3
        np.testing.assert_allclose(ds.features[0], [0.1, 0.2], atol=1e-7)

    def test_csv_duplicate_ids_rejected(self, tmp_path):
        # views are paired by sample id: a shared id would leak SimCLR positives
        path = tmp_path / "dup.csv"
        path.write_text("id,label,f0,f1\n0,0,0.1,0.2\n0,1,0.3,0.4\n1,1,0.5,0.6\n")
        with pytest.raises(ValueError, match="unique"):
            ingest_features(path, fmt="csv")

    def test_csv_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\n0,1,0.1,0.2\n1,1,0.1,0.2,0.3\n")
        with pytest.raises(DimensionMismatch):
            ingest_features(path, fmt="csv")

    def test_csv_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("id,label,f0\n0,1,0.1\nx,1,0.2\n")
        with pytest.raises(ParseError) as err:
            ingest_features(path, fmt="csv")
        assert err.value.line == 3

    @pytest.mark.parametrize("blob", [b"\xff\xfeid,label", b"id,label,f0\n0,1,\xe9\n"])
    def test_csv_not_utf8_is_parse_error(self, tmp_path, blob):
        path = tmp_path / "bad.csv"
        path.write_bytes(blob)
        for fmt in ("auto", "csv"):
            with pytest.raises(ParseError, match="not UTF-8"):
                ingest_features(path, fmt=fmt)

    def test_binary_empty(self, tmp_path):
        path = tmp_path / "empty.ocft"
        ds = Dataset(np.zeros((0, 4)), np.zeros(0, np.int64), np.zeros(0, np.int64))
        write_features(path, ds, fmt="binary")
        back = ingest_features(path, fmt="binary")
        assert back.n == 0

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        ds = generate_synthetic(3, 20, 6, 30.0, Rng(16, "data"))
        p1, p2 = tmp_path / "a.ocft", tmp_path / "b.ocft"
        write_features(p1, ds, fmt="binary")
        once = ingest_features(p1, fmt="binary")
        write_features(p2, once, fmt="binary")
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(once.features.astype(np.float32),
                                      ds.features.astype(np.float32))
        np.testing.assert_array_equal(once.labels, ds.labels)

    def test_csv_roundtrip_f32_exact(self, tmp_path):
        ds = generate_synthetic(2, 10, 5, 30.0, Rng(17, "data"))
        path = tmp_path / "a.csv"
        write_features(path, ds, fmt="csv")
        back = ingest_features(path, fmt="csv")
        np.testing.assert_array_equal(back.features.astype(np.float32),
                                      ds.features.astype(np.float32))

    def test_auto_sniff(self, tmp_path):
        ds = generate_synthetic(2, 5, 4, 30.0, Rng(18, "data"))
        bpath, cpath = tmp_path / "a.ocft", tmp_path / "a.csv"
        write_features(bpath, ds, fmt="binary")
        write_features(cpath, ds, fmt="csv")
        assert ingest_features(bpath).n == ds.n
        assert ingest_features(cpath).n == ds.n

    def test_truncated_binary(self, tmp_path):
        ds = generate_synthetic(2, 5, 4, 30.0, Rng(19, "data"))
        path = tmp_path / "trunc.ocft"
        write_features(path, ds, fmt="binary")
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ParseError):
            ingest_features(path, fmt="binary")
