import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.core import (
    EmptyScores,
    InvalidTemperature,
    OpenConError,
    Rng,
    check_temperature,
    l2_normalize,
    log_sum_exp,
    percentile_threshold,
    softmax,
    stable_sum,
)
from opencon.prototype import (
    SCORE_VARIANTS,
    DetectionMetrics,
    GateResult,
    PrototypeStore,
    UnknownVariant,
    calibrate_threshold,
    detection_metrics,
    init_prototypes,
    known_logit_scores,
    ood_gate,
    ood_scores,
    pseudo_labels,
    update_prototypes,
    warm_start_known,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def identity_store(n_known=1):
    return PrototypeStore(np.stack([E1, E2]), n_known)


def unit_with_first_coord(s):
    """Unit 2-vector whose dot with e1 equals s."""
    return np.array([s, np.sqrt(1 - s * s)])


class TestInit:
    def test_unit_rows(self):
        store = init_prototypes(7, 5, Rng(0, "init"), n_known=3)
        np.testing.assert_allclose(np.linalg.norm(store.matrix, axis=1), 1.0,
                                   atol=1e-9)
        assert store.n_known == 3

    def test_seeds_differ(self):
        a = init_prototypes(4, 3, Rng(1, "init"))
        b = init_prototypes(4, 3, Rng(2, "init"))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_no_duplicates(self):
        store = init_prototypes(4, 2, Rng(3, "init"))
        for i, j in itertools.combinations(range(4), 2):
            assert not np.allclose(store.matrix[i], store.matrix[j])

    def test_n_known_range_validated(self):
        for n_known in (-1, 3):
            with pytest.raises(OpenConError, match=rf"n_known must lie in \[0, 2\], got {n_known}"):
                PrototypeStore(np.stack([E1, E2]), n_known)

    def test_known_matrix_is_a_view(self):
        store = init_prototypes(5, 3, Rng(0, "init"), n_known=2)
        known = store.known_matrix()
        assert np.shares_memory(known, store.matrix)
        assert known.tobytes() == store.matrix[:2].tobytes()
        before = store.matrix.tobytes()
        z = l2_normalize(Rng(1, "data").normal(size=(6, 3)))
        for variant in SCORE_VARIANTS:
            ood_scores(z, store, variant, tau=0.5)
        calibrate_threshold(z, store, 50)
        ood_gate(z, store, 0.5)
        assert store.matrix.tobytes() == before


class TestPseudoLabel:
    def test_argmax(self):
        store = identity_store()
        assert pseudo_labels(unit_with_first_coord(0.8)[None, :], store)[0] == 0

    def test_scale_invariance(self):
        store = identity_store()
        z = unit_with_first_coord(0.8)
        before = pseudo_labels(z[None, :], store)[0]
        scaled = PrototypeStore(store.matrix.copy(), store.n_known)
        # argmax of similarities is unchanged by any positive rescaling of the
        # score vector, checked here through a monotone reparametrization
        sims = store.matrix @ z
        assert np.argmax(sims) == np.argmax(5.0 * sims) == before

    def test_restricted_to_novel(self):
        # a gated view closer to the known row still moves the novel row
        store = identity_store(n_known=1)
        z = unit_with_first_coord(0.8)
        update_prototypes(store, np.zeros((0, 2)), np.zeros(0, np.int64),
                          z[None, :], gamma=0.9)
        np.testing.assert_array_equal(store.matrix[0], E1)
        assert not np.array_equal(store.matrix[1], E2)
        assert store.assignment_counts.tolist() == [0, 1]

    def test_tie_breaks_low_id(self):
        matrix = np.stack([E1, E1, E2])
        store = PrototypeStore(matrix / np.linalg.norm(matrix, axis=1, keepdims=True), 1)
        assert pseudo_labels(E1[None, :], store)[0] == 0

    def test_batched(self):
        store = identity_store()
        z = np.stack([unit_with_first_coord(0.9), unit_with_first_coord(0.1)])
        np.testing.assert_array_equal(pseudo_labels(z, store), [0, 1])

    def test_empty_batch(self):
        out = pseudo_labels(np.zeros((0, 2)), identity_store())
        assert out.dtype == np.int64 and out.shape == (0,)


class TestCalibrate:
    def test_nearest_rank(self):
        store = identity_store()
        views = np.stack([unit_with_first_coord(s) for s in (0.2, 0.4, 0.6, 0.8)])
        lam = calibrate_threshold(views, store, 50)
        assert lam == pytest.approx(0.6, abs=1e-12)
        scores = ood_scores(views, store)
        assert np.mean(scores >= lam) == 0.5

    def test_p100_is_min(self):
        store = identity_store()
        views = np.stack([unit_with_first_coord(s) for s in (0.2, 0.4, 0.6, 0.8)])
        assert calibrate_threshold(views, store, 100) == pytest.approx(0.2, abs=1e-12)

    def test_p0_sentinel_gates_everything(self):
        store = identity_store()
        views = np.stack([unit_with_first_coord(0.5)])
        lam = calibrate_threshold(views, store, 0)
        assert lam == np.inf
        gate = ood_gate(np.stack([unit_with_first_coord(s) for s in (0.1, 0.99)]),
                        store, lam)
        assert gate.novel_view_ids.tolist() == [0, 1]

    def test_empty_raises(self):
        with pytest.raises(EmptyScores):
            calibrate_threshold(np.zeros((0, 2)), identity_store(), 50)


class TestGate:
    def test_threshold_comparison(self):
        store = identity_store()
        views = np.stack([unit_with_first_coord(0.9), unit_with_first_coord(0.1)])
        gate = ood_gate(views, store, 0.5)
        assert gate.novel_view_ids.tolist() == [1]

    def test_exact_threshold_rejected(self):
        store = identity_store()
        views = np.stack([unit_with_first_coord(0.5)])
        gate = ood_gate(views, store, 0.5)
        assert gate.novel_view_ids.size == 0

    def test_partition(self):
        rng = Rng(4, "data")
        store = init_prototypes(5, 4, Rng(5, "init"), n_known=2)
        views = l2_normalize(rng.normal(size=(20, 4)))
        for lam in (-np.inf, 0.0, 0.5, np.inf):
            gate = ood_gate(views, store, lam)
            np.testing.assert_array_equal(gate.novel_view_ids,
                                          np.flatnonzero(ood_scores(views, store) < lam))

    def test_empty_batch(self):
        gate = ood_gate(np.zeros((0, 2)), identity_store(), 0.5)
        assert gate.novel_view_ids.dtype == np.int64
        assert gate.novel_view_ids.shape == (0,)

    def test_monotone_in_p(self):
        rng = Rng(6, "data")
        store = init_prototypes(4, 4, Rng(7, "init"), n_known=2)
        labeled = l2_normalize(rng.normal(size=(50, 4)))
        views = l2_normalize(rng.normal(size=(40, 4)))
        sizes = []
        for p in (0, 10, 30, 50, 70, 90):
            lam = calibrate_threshold(labeled, store, p)
            sizes.append(ood_gate(views, store, lam).novel_view_ids.size)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def per_view_update(store, labeled_z, labeled_y, novel_z, gamma):
    """Reference for update_prototypes: one view at a time, a novel view's
    row picked by pseudo_labels over the novel rows only."""
    for z, c in zip(labeled_z, labeled_y):
        store.matrix[c] = l2_normalize(gamma * store.matrix[c] + (1.0 - gamma) * z)
        store.assignment_counts[c] += 1
    rows = np.arange(store.n_known, store.n_classes)
    for z in novel_z:
        if rows.size == 0:
            raise OpenConError("no prototype rows to predict against")
        c = rows[pseudo_labels(z[None, :], SimpleNamespace(matrix=store.matrix[rows]))[0]]
        store.matrix[c] = l2_normalize(gamma * store.matrix[c] + (1.0 - gamma) * z)
        store.assignment_counts[c] += 1
    return store


@st.composite
def update_problems(draw):
    # d > 8 runs NumPy's unrolled pairwise norm, as at S1's d = 32; up to 64
    # labeled views over at most 6 classes make many views per class
    d = draw(st.integers(1, 40))
    n_classes = draw(st.integers(1, 6))
    n_known = draw(st.integers(0, n_classes))
    n_l = draw(st.integers(0, 64))
    n_u = draw(st.integers(0, 8))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integer lattice: exact ties, repeated rows and antipodal pairs
        def units(n):
            v = rng.integers(-1, 2, size=(n, d)).astype(float)
            v[~v.any(axis=1), 0] = 1.0
            return v / np.linalg.norm(v, axis=1, keepdims=True)
    else:
        def units(n):
            return l2_normalize(rng.normal(size=(n, d))) if n else np.zeros((0, d))
    store = PrototypeStore(units(n_classes), n_known)
    # any row, so that a label on a novel row pins the labeled-first order
    labeled_y = rng.integers(0, n_classes, size=n_l)
    return store, units(n_l), labeled_y, units(n_u), gamma


class TestUpdate:
    @settings(max_examples=400, deadline=None)
    @given(update_problems())
    def test_equals_per_view_reference(self, problem):
        store, labeled_z, labeled_y, novel_z, gamma = problem
        expect = store.copy()
        try:
            per_view_update(expect, labeled_z, labeled_y, novel_z, gamma)
        except OpenConError:
            # a degenerate step or gated views without novel rows
            with pytest.raises(OpenConError):
                update_prototypes(store, labeled_z, labeled_y, novel_z, gamma)
            return
        update_prototypes(store, labeled_z, labeled_y, novel_z, gamma)
        assert store.matrix.tobytes() == expect.matrix.tobytes()
        np.testing.assert_array_equal(store.assignment_counts,
                                      expect.assignment_counts)

    @staticmethod
    def check_against_reference(store, labeled_z, labeled_y, novel_z, gamma=0.9):
        expect = per_view_update(store.copy(), labeled_z, labeled_y, novel_z, gamma)
        update_prototypes(store, labeled_z, labeled_y, novel_z, gamma)
        assert store.matrix.tobytes() == expect.matrix.tobytes()
        assert store.assignment_counts.dtype == np.int64
        np.testing.assert_array_equal(store.assignment_counts,
                                      expect.assignment_counts)

    @staticmethod
    def units(seed, n, d=5):
        return l2_normalize(np.random.default_rng(seed).normal(size=(n, d)))

    def test_tied_view_counts(self):
        # classes 3 and 1 tie on three views, class 0 has one: the prefix
        # layout orders them 1, 3, 0
        store = PrototypeStore(self.units(0, 5), 4)
        labels = np.array([3, 1, 0, 1, 3, 3, 1])
        self.check_against_reference(store, self.units(1, 7), labels,
                                     self.units(2, 3))

    def test_known_class_without_labeled_view(self):
        store = PrototypeStore(self.units(3, 6), 4)
        before = store.matrix[2].copy()
        labels = np.array([0, 3, 0, 1, 3, 0])
        self.check_against_reference(store, self.units(4, 6), labels,
                                     self.units(5, 4))
        assert store.matrix[2].tobytes() == before.tobytes()
        assert store.assignment_counts[2] == 0

    def test_labeled_view_on_novel_row(self):
        # the labeled step on novel row 3 lands before the novel views pick
        store = PrototypeStore(self.units(6, 4), 2)
        labels = np.array([3, 0, 3, 1, 3])
        self.check_against_reference(store, self.units(7, 5), labels,
                                     self.units(8, 6))

    def test_hand_arithmetic(self):
        store = identity_store(n_known=1)
        update_prototypes(store, np.stack([E2]), np.array([0]),
                          np.zeros((0, 2)), gamma=0.9)
        np.testing.assert_allclose(store.matrix[0], [0.99388, 0.11043], atol=1e-5)

    def test_fixed_point(self):
        store = identity_store(n_known=1)
        update_prototypes(store, np.stack([E1]), np.array([0]),
                          np.zeros((0, 2)), gamma=0.9)
        np.testing.assert_allclose(store.matrix[0], E1, atol=1e-12)

    def test_unit_after_many_updates(self):
        rng = Rng(8, "data")
        store = init_prototypes(3, 4, Rng(9, "init"), n_known=2)
        for _ in range(50):
            z = l2_normalize(rng.normal(size=(6, 4)))
            y = rng.integers(0, 2, size=6)
            nz = l2_normalize(rng.normal(size=(4, 4)))
            update_prototypes(store, z, y, nz, gamma=0.9)
        np.testing.assert_allclose(np.linalg.norm(store.matrix, axis=1), 1.0,
                                   atol=1e-9)

    def test_geometric_convergence(self):
        store = identity_store(n_known=1)
        target = l2_normalize(np.array([1.0, 1.0]))
        angles = []
        for _ in range(25):
            update_prototypes(store, target[None, :], np.array([0]),
                              np.zeros((0, 2)), gamma=0.9)
            angles.append(np.arccos(np.clip(store.matrix[0] @ target, -1, 1)))
        start = np.pi / 4
        for k, angle in enumerate(angles, start=1):
            assert angle <= 1.5 * start * 0.9 ** k

    def test_known_novel_separation(self):
        store = init_prototypes(4, 3, Rng(10, "init"), n_known=2)
        known_before = store.matrix[:2].copy()
        novel_before = store.matrix[2:].copy()
        nz = l2_normalize(Rng(11, "data").normal(size=(5, 3)))
        update_prototypes(store, np.zeros((0, 3)), np.zeros(0, np.int64), nz, 0.9)
        np.testing.assert_array_equal(store.matrix[:2], known_before)
        assert not np.array_equal(store.matrix[2:], novel_before)

        store2 = init_prototypes(4, 3, Rng(10, "init"), n_known=2)
        novel_before2 = store2.matrix[2:].copy()
        z = l2_normalize(Rng(12, "data").normal(size=(5, 3)))
        y = np.array([0, 1, 0, 1, 0])
        update_prototypes(store2, z, y, np.zeros((0, 3)), 0.9)
        np.testing.assert_array_equal(store2.matrix[2:], novel_before2)

    def test_counts(self):
        store = identity_store(n_known=1)
        update_prototypes(store, np.stack([E1, E1]), np.array([0, 0]),
                          np.stack([E2]), gamma=0.9)
        assert store.assignment_counts[0] == 2
        assert store.assignment_counts[1] == 1
        store.reset_counts()
        assert store.assignment_counts.sum() == 0

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            update_prototypes(identity_store(), np.zeros((0, 2)),
                              np.zeros(0), np.zeros((0, 2)), gamma=1.0)

    @pytest.mark.parametrize("labels", [[0], [0, 1, 1], [0, -1], [0, 2]])
    def test_bad_labels(self, labels):
        store = identity_store()
        before = store.matrix.copy()
        with pytest.raises(ValueError, match="label"):
            update_prototypes(store, np.stack([E1, E2]), np.array(labels),
                              np.zeros((0, 2)), gamma=0.9)
        np.testing.assert_array_equal(store.matrix, before)

    def test_warm_start(self):
        store = init_prototypes(3, 2, Rng(13, "init"), n_known=2)
        # a view labeled with novel row 2 leaves that row alone
        z = np.stack([E1, E1, E2, E2, E1])
        y = np.array([0, 0, 1, 1, 2])
        novel_before = store.matrix[2].copy()
        warm_start_known(store, z, y)
        np.testing.assert_allclose(store.matrix[0], E1, atol=1e-12)
        np.testing.assert_allclose(store.matrix[1], E2, atol=1e-12)
        np.testing.assert_array_equal(store.matrix[2], novel_before)


class TestOodScores:
    def test_hand_values(self):
        store = identity_store(n_known=2)
        z = E1[None, :]
        assert ood_scores(z, store, "max_cosine") == pytest.approx([1.0])
        assert ood_scores(z, store, "msp", tau=1.0) == pytest.approx(
            [np.e / (np.e + 1)], abs=1e-12)
        assert ood_scores(z, store, "energy", tau=1.0) == pytest.approx(
            [np.log(np.e + 1)], abs=1e-12)

    @pytest.mark.parametrize("variant", SCORE_VARIANTS)
    def test_only_row_stacks(self, variant):
        # a single embedding is a (1, d) stack; an unknown variant or a bad
        # tau still raises its own error first (the tests above pass E1)
        with pytest.raises(ValueError, match=r"got shape \(2,\)"):
            ood_scores(E1, identity_store(n_known=2), variant)

    def test_unknown_variant(self):
        with pytest.raises(UnknownVariant):
            ood_scores(E1, identity_store(), "mahalanobis")

    @pytest.mark.parametrize("variant", ["max_cosine", "msp", "energy"])
    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_tau_raises(self, variant, tau):
        with pytest.raises(InvalidTemperature):
            ood_scores(E1, identity_store(n_known=2), variant, tau=tau)

    def test_single_prototype_same_ranking(self):
        store = PrototypeStore(np.stack([E1, E2]), 1)
        rng = Rng(14, "data")
        z = l2_normalize(rng.normal(size=(30, 2)))
        base = ood_scores(z, store, "max_cosine")
        for variant in ("msp", "energy"):
            other = ood_scores(z, store, variant, tau=0.7)
            if variant == "msp":
                # msp of a single known prototype is constant 1; skip ordering
                np.testing.assert_allclose(other, 1.0)
            else:
                assert np.array_equal(np.argsort(base), np.argsort(other))


class TestDetectionMetrics:
    def test_perfect_separation(self):
        out = detection_metrics([0.9, 0.8, 0.7], [0.2, 0.1])
        assert out.auroc == 1.0
        assert out.fpr95 == 0.0

    def test_identical_distributions(self):
        out = detection_metrics([0.5, 0.5], [0.5, 0.5])
        assert out.auroc == pytest.approx(0.5)

    def test_hand_cases(self):
        assert detection_metrics([0.9, 0.8, 0.7], [0.6, 0.5]).auroc == 1.0
        assert detection_metrics([0.9, 0.4], [0.6]).auroc == pytest.approx(0.5)

    def test_brute_force_pairs(self):
        rng = Rng(15, "theory")
        for _ in range(50):
            ids = rng.normal(size=12)
            oods = rng.normal(size=9)
            auroc = detection_metrics(ids, oods).auroc
            wins = sum((i > o) + 0.5 * (i == o) for i in ids for o in oods)
            assert auroc == pytest.approx(wins / (12 * 9), abs=1e-12)

    def test_fpr95_counts_ood_above_threshold(self):
        ids = np.linspace(0, 1, 100)
        oods = np.array([0.5] * 10)
        out = detection_metrics(ids, oods)
        # threshold sits at the 5th percentile of ID scores (~0.05)
        assert out.fpr95 == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyScores):
            detection_metrics([], [0.1])
        with pytest.raises(EmptyScores):
            detection_metrics([0.1], [])


def _fpr95_ceil_rank(id_scores, ood) -> float:
    """FPR95 with the threshold at rank n - ceil(0.95 n) of the sorted ID
    scores, written out independently of percentile_threshold."""
    id_scores = np.asarray(id_scores, float)
    n = id_scores.size
    threshold = np.sort(id_scores)[n - int(np.ceil(0.95 * n))]
    return float(np.mean(np.asarray(ood, float) >= threshold))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_fpr95_equals_ceil_rank(n_id, n_ood, levels, seed):
    # few distinct levels make ties between and across the two score sets
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, levels, size=n_id) / levels
    oods = rng.integers(0, levels, size=n_ood) / levels
    assert detection_metrics(ids, oods).fpr95 == _fpr95_ceil_rank(ids, oods)
    ids = rng.normal(size=n_id)
    oods = rng.normal(size=n_ood)
    assert detection_metrics(ids, oods).fpr95 == _fpr95_ceil_rank(ids, oods)


# ---------------------------------------------------------------------------
# Byte-for-byte oracles: the per-variant scoring and the argsort-and-scatter
# ranking that ood_scores and detection_metrics were before scoring took one
# known-logits product per call and ranking merged two sorted runs.
# ---------------------------------------------------------------------------

def ood_scores_per_variant(z, store, variant, tau):
    """One known-logits product and one score per call."""
    check_temperature(tau)
    logits = np.asarray(z, np.float64) @ store.known_matrix().T
    if variant == "max_cosine":
        out = np.max(logits, axis=1)
    elif variant == "msp":
        out = np.max(softmax(logits, tau), axis=1)
    else:
        out = tau * log_sum_exp(logits / tau, axis=1)
    return out


def detection_metrics_by_scatter(id_scores, ood):
    """AUROC from ranks scattered back through one stable argsort of the
    concatenated scores; FPR95 at percentile_threshold's ID score."""
    id_scores = np.asarray(id_scores, np.float64).ravel()
    ood = np.asarray(ood, np.float64).ravel()
    combined = np.concatenate([id_scores, ood])
    order = np.argsort(combined, kind="stable")
    sorted_vals = combined[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], combined.size] - 1
    ranks = np.empty(combined.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    n_id, n_ood = id_scores.size, ood.size
    u = stable_sum(ranks[:n_id]) - n_id * (n_id + 1) / 2.0
    fpr95 = float(np.mean(ood >= percentile_threshold(id_scores, 95.0)))
    return float(u / (n_id * n_ood)), fpr95


def metric_bytes(metrics) -> bytes:
    return np.array([metrics.auroc, metrics.fpr95]).tobytes()


@st.composite
def scoring_problems(draw):
    """Unit embeddings (n of 1, 2-40 or 256 rows) and a store with at least
    one known row; tau 0.05 makes exp underflow."""
    n = draw(st.one_of(st.just(1), st.integers(2, 40), st.just(256)))
    d = draw(st.integers(1, 16))
    n_classes = draw(st.integers(1, 8))
    n_known = draw(st.integers(1, n_classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = l2_normalize(rng.normal(size=(n, d)) + 1e-3)
    matrix = l2_normalize(rng.normal(size=(n_classes, d)) + 1e-3)
    store = PrototypeStore(matrix, n_known)
    tau = draw(st.sampled_from([0.05, 0.1, 0.7, 1.0, 2.0]))
    return z, store, tau


class TestOodScoresBytes:
    @settings(max_examples=300, deadline=None)
    @given(scoring_problems(), st.sampled_from(SCORE_VARIANTS))
    def test_single_variant_matches_per_variant_call(self, problem, name):
        z, store, tau = problem
        got, want = ood_scores(z, store, name, tau), ood_scores_per_variant(z, store, name, tau)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


BLOCK_ROWS = 256


@st.composite
def logit_stacks(draw):
    """Known logits of n rows (one row, about a block, or three blocks and a
    tail) against n_known prototypes: cosines in [-1, 1], about a tenth of
    the rows with every entry tied, a tenth with the max repeated and a
    twentieth with one NaN; tau 0.05 makes exp underflow."""
    n = draw(st.sampled_from([1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                              3 * BLOCK_ROWS + 7]))
    n_known = draw(st.sampled_from([1, 5, 8, 9, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-1.0, 1.0, size=(n, n_known))
    kind = rng.random(n)
    tied = kind < 0.1
    logits[tied] = rng.uniform(-1.0, 1.0, size=(tied.sum(), 1))
    repeated = (0.1 <= kind) & (kind < 0.2)
    logits[repeated, 0] = logits[repeated].max(axis=1)
    nan = kind >= 0.95
    logits[nan, rng.integers(0, n_known, nan.sum())] = np.nan
    return logits, draw(st.sampled_from([0.05, 0.7, 3.0]))


class TestKnownLogitScores:
    @settings(max_examples=300, deadline=None)
    @given(logit_stacks(), st.permutations(SCORE_VARIANTS))
    def test_stack_scores_to_the_bytes_of_its_blocks(self, problem, names):
        logits, tau = problem
        whole = known_logit_scores(logits.copy(), tuple(names), tau)
        blocks = [known_logit_scores(logits[start:start + BLOCK_ROWS].copy(), tuple(names),
                                     tau) for start in range(0, len(logits), BLOCK_ROWS)]
        assert len(whole) == len(names)
        for got, want in zip(whole, zip(*blocks)):
            assert got.shape == (len(logits),)
            assert got.tobytes() == np.concatenate(want).tobytes()

    def test_checks_names_and_tau(self):
        logits = np.array([[0.5, -0.25]])
        with pytest.raises(UnknownVariant, match="mahalanobis"):
            known_logit_scores(logits, ("msp", "mahalanobis"), 1.0)
        with pytest.raises(InvalidTemperature):
            known_logit_scores(logits, ("max_cosine",), 0.0)


@st.composite
def score_pairs(draw):
    """ID and OOD score sets: continuous, on a few tied levels, all equal, or
    with NaNs among them."""
    n_id, n_ood = (draw(st.one_of(st.just(1), st.integers(2, 80))) for _ in "io")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "levels", "equal", "nan"]))
    if kind == "normal":
        return rng.normal(size=n_id) + 0.5, rng.normal(size=n_ood)
    if kind == "equal":
        return np.full(n_id, 0.25), np.full(n_ood, 0.25)
    levels = draw(st.integers(1, 6))
    ids = rng.integers(0, levels, n_id) / levels
    oods = rng.integers(0, levels, n_ood) / levels
    if kind == "nan":
        ids[rng.random(n_id) < 0.3] = np.nan
        oods[rng.random(n_ood) < 0.3] = np.nan
    return ids, oods


@settings(max_examples=400, deadline=None)
@given(score_pairs())
def test_detection_metrics_match_the_scatter_ranking(pair):
    ids, oods = pair
    want = np.array(detection_metrics_by_scatter(ids, oods)).tobytes()
    assert metric_bytes(detection_metrics(ids, oods)) == want


def known_max_by_row(z, store):
    """The max_cosine score as a max along each row of the known logits."""
    return np.max(np.asarray(z, np.float64) @ store.known_matrix().T, axis=1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_known_max_scores_match_the_row_max(data):
    n = data.draw(st.one_of(st.just(1), st.integers(2, 40), st.just(128)), "n")
    d = data.draw(st.integers(1, 16), "d")
    n_classes = data.draw(st.integers(1, 8), "n_classes")
    n_known = data.draw(st.integers(1, n_classes), "n_known")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    z = l2_normalize(rng.normal(size=(n, d)) + 1e-3)
    if data.draw(st.booleans(), "nan_row"):
        z[rng.integers(n)] = np.nan
    matrix = l2_normalize(rng.normal(size=(n_classes, d)) + 1e-3)
    store = PrototypeStore(matrix, n_known)
    got, want = ood_scores(z, store), known_max_by_row(z, store)
    assert got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
