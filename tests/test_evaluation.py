import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opencon import evaluation
from opencon.core import Rng, VmfParams, l2_normalize, sample_uniform_sphere, sample_vmf
from opencon.evaluation import (
    AlignmentIdentityReport,
    EmptyEvaluationSet,
    _log_bessel_i,
    _matched_accuracy,
    accuracy_triple,
    converged_cluster_count,
    estimate_class_number,
    hungarian,
    linear_sum_assignment,
    make_alignment_instance,
    make_collision_instance,
    make_prototype_instance,
    run_verification_suite,
    spherical_kmeans,
    verify_alignment_identity,
    verify_collision_bound,
    verify_optimal_prototypes,
)
from opencon.prototype import init_prototypes


def brute_force_assignment(cost):
    n = cost.shape[0]
    best_cost, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best_cost - 1e-12 or (
            abs(total - best_cost) <= 1e-12 and (best_perm is None or perm < best_perm)
        ):
            best_cost, best_perm = total, perm
    return np.array(best_perm), best_cost


@st.composite
def assignment_costs(draw):
    """Rectangular cost matrices, empty and single-row/column shapes included:
    floats, small integers (many ties), one repeated value, and negated
    counts with some rows replaced by a penalty row that leaves one cell at
    its negated count (a solver input with positive costs and many ties)."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["float", "int", "tied", "pinned"]))
    if kind == "float":
        return draw(arrays(np.float64, (n, m),
                           elements=st.floats(-1e3, 1e3, allow_nan=False)))
    if kind == "tied":
        return np.full((n, m), draw(st.floats(-1e3, 1e3, allow_nan=False)))
    counts = draw(arrays(np.int64, (n, m), elements=st.integers(0, 6))).astype(float)
    if kind == "int":
        return counts - 3.0
    cost = -counts
    if n and m:
        big = counts.sum() + 1.0
        for row in draw(st.sets(st.integers(0, n - 1))):
            cost[row] = big
            col = draw(st.integers(0, m - 1))
            cost[row, col] = -counts[row, col]
    return cost


class TestLinearSumAssignment:
    """The in-repo solver against SciPy, used here as an oracle only."""

    @settings(max_examples=500, deadline=None)
    @given(assignment_costs())
    def test_matches_scipy_optimum(self, cost):
        rows, cols = linear_sum_assignment(cost)
        n, m = cost.shape
        assert len(rows) == len(cols) == min(n, m)
        assert len(set(rows.tolist())) == len(rows)
        assert len(set(cols.tolist())) == len(cols)
        assert np.all(np.diff(rows) > 0)
        assert np.all((0 <= cols) & (cols < m)) and np.all((0 <= rows) & (rows < n))
        ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[ref_rows, ref_cols].sum(),
                                                       abs=1e-9, rel=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        cost = np.zeros((2, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            linear_sum_assignment(cost)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            linear_sum_assignment(np.zeros(3))


class TestHungarian:
    def test_two_by_two(self):
        assign = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert assign.tolist() == [1, 0]

    def test_identity_dominant(self):
        cost = 1.0 - np.eye(5)
        assert hungarian(cost).tolist() == list(range(5))

    def test_matches_brute_force(self):
        rng = Rng(0, "theory")
        for n in range(2, 8):
            for _ in range(20):
                cost = rng.normal(size=(n, n))
                assign = hungarian(cost)
                bf_perm, bf_cost = brute_force_assignment(cost)
                ours = sum(cost[i, assign[i]] for i in range(n))
                assert ours == pytest.approx(bf_cost, abs=1e-9)
                np.testing.assert_array_equal(assign, bf_perm)

    def test_lexicographic_ties(self):
        # every assignment is optimal; the smallest by row order wins
        assign = hungarian(np.zeros((3, 3)))
        assert assign.tolist() == [0, 1, 2]

    def test_rectangular_wide(self):
        cost = np.array([[5.0, 1.0, 9.0], [4.0, 7.0, 2.0]])
        assign = hungarian(cost)
        assert assign.tolist() == [1, 2]

    def test_rectangular_tall(self):
        cost = np.array([[5.0], [1.0], [2.0]])
        assign = hungarian(cost)
        assert (assign >= 0).sum() == 1
        assert assign[1] == 0  # cheapest row claims the only column

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))


class TestAccuracyTriple:
    def test_novel_relabeling(self):
        triple = accuracy_triple(
            predictions=[0, 0, 1, 1],
            truth=[1, 1, 0, 0],
            known_classes=[2],
            novel_classes=[0, 1],
            n_prototypes=3,
        )
        assert triple.novel == 1.0
        assert triple.all == 1.0

    def test_perfect_predictor(self):
        preds = [0, 1, 2, 3]
        triple = accuracy_triple(preds, preds, [0, 1], [2, 3], 4)
        assert (triple.all, triple.novel, triple.seen) == (1.0, 1.0, 1.0)

    def test_seen_is_exact_match(self):
        triple = accuracy_triple(
            predictions=[0, 1, 1],
            truth=[0, 0, 2],
            known_classes=[0, 1],
            novel_classes=[2],
            n_prototypes=3,
        )
        assert triple.seen == pytest.approx(0.5)

    def test_novel_prototype_permutation_invariance(self):
        rng = Rng(1, "theory")
        truth = np.array([5, 5, 6, 6, 7, 7])
        preds = np.array([2, 2, 3, 3, 4, 4])
        base = accuracy_triple(preds, truth, [0, 1], [5, 6, 7], 5)
        remap = {2: 4, 3: 2, 4: 3}
        permuted = np.array([remap[p] for p in preds])
        again = accuracy_triple(permuted, truth, [0, 1], [5, 6, 7], 5)
        assert base.novel == again.novel
        assert base.all == again.all

    def test_empty_raises(self):
        with pytest.raises(EmptyEvaluationSet):
            accuracy_triple([], [], [0], [1], 2)


def matched_accuracy_via_hungarian(pred, truth, n_pred_ids, classes):
    """Reference: the matched count read off hungarian's assignment."""
    col_of = {int(c): j for j, c in enumerate(classes)}
    counts = np.zeros((n_pred_ids, len(classes)))
    for p, t in zip(pred, truth):
        counts[p, col_of[t]] += 1
    assign = hungarian(-counts)
    matched = sum(counts[r, assign[r]] for r in range(n_pred_ids) if assign[r] >= 0)
    return float(matched) / len(pred)


@st.composite
def labelings(draw, classes, n_pred_ids):
    """(predictions, truth) pairs of one length over the given id ranges."""
    n = draw(st.integers(1, 40))
    pred = draw(st.lists(st.integers(0, n_pred_ids - 1), min_size=n, max_size=n))
    truth = draw(st.lists(st.sampled_from(list(classes)), min_size=n, max_size=n))
    return np.array(pred), np.array(truth)


@st.composite
def free_problems(draw):
    # prediction ids below, at and above the class count
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True))
    classes = np.sort(np.array(ids))
    n_pred_ids = draw(st.integers(1, 8))
    pred, truth = draw(labelings(classes, n_pred_ids))
    return pred, truth, n_pred_ids, classes


@st.composite
def cluster_problems(draw):
    # estimate_class_number: k cluster ids scored against the labeled classes
    truth = np.array(draw(st.lists(st.integers(0, 6), min_size=1, max_size=40)))
    k = draw(st.integers(1, 8))
    pred = np.array(draw(st.lists(st.integers(0, k - 1), min_size=len(truth),
                                  max_size=len(truth))))
    return pred, truth, k, np.unique(truth)


class TestMatchedAccuracy:
    @settings(max_examples=300, deadline=None)
    @given(free_problems())
    def test_equals_hungarian_count(self, problem):
        assert _matched_accuracy(*problem) == matched_accuracy_via_hungarian(*problem)

    @settings(max_examples=300, deadline=None)
    @given(cluster_problems())
    def test_equals_hungarian_count_cluster_shape(self, problem):
        assert _matched_accuracy(*problem) == matched_accuracy_via_hungarian(*problem)

    def test_truth_outside_classes_raises(self):
        with pytest.raises(ValueError):
            _matched_accuracy(np.array([0, 1]), np.array([0, 5]), 2, np.array([0, 1]))

    def test_unsorted_classes(self):
        pred = np.array([0, 0, 1, 2])
        truth = np.array([7, 7, 3, 5])
        classes = np.array([7, 3, 5])
        assert _matched_accuracy(pred, truth, 3, classes) == 1.0


class TestSphericalKmeans:
    def separable(self, k=3, per=30, d=6, seed=2):
        rng = Rng(seed, "theory")
        means = sample_uniform_sphere(d, k, rng)
        feats = np.concatenate([
            sample_vmf(VmfParams(means[c], 60.0), per, rng) for c in range(k)])
        return feats, np.repeat(np.arange(k), per), rng

    def test_recovers_separable_clusters(self):
        feats, truth, rng = self.separable()
        labels, centroids = spherical_kmeans(feats, 3, rng)
        np.testing.assert_allclose(np.linalg.norm(centroids, axis=1), 1.0,
                                   atol=1e-9)
        # each true class maps to exactly one cluster
        for c in range(3):
            assert len(np.unique(labels[truth == c])) == 1

    def test_estimate_class_number(self):
        feats, truth, rng = self.separable()
        labeled_mask = np.zeros(len(truth), bool)
        labeled_mask[::3] = True
        est = estimate_class_number(feats, labeled_mask, truth, range(2, 7), rng)
        assert est == 3

    def test_singleton_range(self):
        feats, truth, rng = self.separable()
        est = estimate_class_number(feats, np.ones(len(truth), bool), truth,
                                    [4], rng)
        assert est == 4

    def test_deterministic(self):
        feats, _, _ = self.separable()
        a, _ = spherical_kmeans(feats, 3, Rng(9, "theory"))
        b, _ = spherical_kmeans(feats, 3, Rng(9, "theory"))
        np.testing.assert_array_equal(a, b)


class TestConvergedCount:
    def test_untrained_zero(self):
        store = init_prototypes(6, 4, Rng(3, "init"), n_known=2)
        assert converged_cluster_count(store) == 0
        store.assignment_counts[2] = 5
        assert converged_cluster_count(store) == 1


class TestOptimalPrototypes:
    def test_all_equal_features(self):
        feats = np.tile(np.array([1.0, 0.0, 0.0]), (10, 1))
        report = verify_optimal_prototypes([feats], Rng(4, "theory"))
        assert report.passed
        assert report.worst_margin > 0

    def test_antipodal_degenerate(self):
        feats = np.stack([[1.0, 0.0], [-1.0, 0.0]])
        report = verify_optimal_prototypes([feats], Rng(5, "theory"),
                                           n_candidates=50, n_configs=4)
        assert report.degenerate_classes == (0,)

    def test_random_classes_pass(self):
        rng = Rng(6, "theory")
        report = verify_optimal_prototypes(make_prototype_instance(rng), rng,
                                           n_candidates=500, n_configs=16)
        assert report.passed
        assert report.ranking_agrees


class TestLogBessel:
    def test_matches_scipy_ive(self):
        # log(ive(nu, kappa)) = log I_nu(kappa) - kappa, where SciPy's value
        # is a normal float; nu = dim/2 - 1 for dims 2..128
        nu, kappa = np.meshgrid(np.arange(0.0, 63.5, 0.5), np.geomspace(1e-3, 700.0, 60))
        ref = scipy.special.ive(nu, kappa)
        usable = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
        ours = [_log_bessel_i(n, k) - k for n, k in zip(nu[usable], kappa[usable])]
        np.testing.assert_allclose(ours, np.log(ref[usable]), rtol=1e-12, atol=0.0)


class TestAlignmentIdentity:
    def test_identical_within_groups(self):
        feats = np.concatenate([np.tile([1.0, 0.0], (4, 1)),
                                np.tile([0.0, 1.0], (3, 1))])
        assignments = np.array([0] * 4 + [1] * 3)
        report = verify_alignment_identity(feats, assignments, 0.5)
        assert report.passed
        # collapsed groups pin the mean norm at 1, so eta = |S|/(|S|-1)
        assert report.eta_values[0] == pytest.approx(4 / 3, abs=1e-12)
        assert report.eta_values[1] == pytest.approx(3 / 2, abs=1e-12)
        # eta approaches 1 from above as groups grow
        big = np.tile([1.0, 0.0], (500, 1))
        wide = verify_alignment_identity(big, np.zeros(500, np.int64), 0.5)
        assert wide.eta_values[0] == pytest.approx(1.0, abs=3e-3)

    def test_random_instance(self):
        rng = Rng(7, "theory")
        feats, assignments, tau = make_alignment_instance(rng)
        report = verify_alignment_identity(feats, assignments, tau)
        assert report.passed
        assert report.abs_error <= 1e-9

    def test_singleton_flagged(self):
        feats = l2_normalize(Rng(8, "theory").normal(size=(3, 4)))
        report = verify_alignment_identity(feats, np.array([0, 0, 1]), 0.7)
        assert report.degenerate_classes == (1,)
        assert report.passed


class TestCollisionBound:
    def test_single_class_degenerate(self):
        feats = l2_normalize(Rng(9, "theory").normal(size=(8, 4)))
        report = verify_collision_bound(feats, np.zeros(8, np.int64),
                                        np.array([1.0]), 0.5)
        assert report.degenerate
        assert report.gamma == 1.0
        assert report.sup_loss == 0.0
        assert report.passed

    def test_uniform_removal_arithmetic(self):
        # under a uniform class distribution, dropping a class raises the
        # collision probability from 1/C to 1/(C-1)
        rng = Rng(10, "theory")
        c, per = 4, 8
        feats = l2_normalize(rng.normal(size=(c * per, 5)))
        class_of = np.repeat(np.arange(c), per)
        rho = np.full(c, 0.25)
        report = verify_collision_bound(feats, class_of, rho, 0.7,
                                        removed_classes=[0])
        assert report.gamma == pytest.approx(0.25)
        assert report.gamma_after_removal == pytest.approx(1 / 3)
        assert report.gamma_decreased is False
        assert report.identity_error <= 1e-9
        assert report.min_jensen_slack >= -1e-12

    def test_dominant_class_removal_decreases(self):
        rng = Rng(11, "theory")
        feats, class_of, rho, tau, removed = make_collision_instance(rng)
        report = verify_collision_bound(feats, class_of, rho, tau, removed)
        assert report.passed
        assert report.gamma_decreased

    def test_jensen_positive_slack_random(self):
        rng = Rng(12, "theory")
        for _ in range(10):
            feats, class_of, rho, tau, _ = make_collision_instance(
                rng, n_classes=4, per_class=8)
            report = verify_collision_bound(feats, class_of, rho, tau)
            assert report.min_jensen_slack >= -1e-12
            assert report.identity_error <= 1e-9

    def test_two_classes_rejected(self):
        # two classes leave a trimmed collision probability of 1, which no
        # draw can push below gamma
        with pytest.raises(ValueError, match="n_classes"):
            make_collision_instance(Rng(13, "theory"), n_classes=2)


class TestSuite:
    def test_small_suite_passes(self):
        summary = run_verification_suite(trials=5, seed=0)
        assert summary.passed
        assert summary.trials == 5

    def test_hundred_seeds_pass(self):
        summary = run_verification_suite(trials=100, seed=1000)
        assert summary.passed, summary.failures[:3]

    def test_zero_trials(self):
        summary = run_verification_suite(trials=0, seed=0)
        assert summary.passed

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_verification_suite(trials=-3, seed=0)

    def test_perturb_injects_failure(self, monkeypatch):
        failing = AlignmentIdentityReport(False, 1.0, (), ())
        monkeypatch.setattr(evaluation, "verify_alignment_identity",
                            lambda *args: failing)
        summary = run_verification_suite(trials=1, seed=0)
        assert not summary.passed
        assert any(f.startswith("trial 0:") for f in summary.failures)


def matched_accuracy_by_hit_matrix(pred, truth, n_pred_ids, classes):
    """Byte-for-byte oracle: `_matched_accuracy` as an n x C boolean hit
    matrix and `np.add.at` counts, before counting moved to `np.bincount`."""
    hit = np.asarray(truth)[:, None] == np.asarray(classes)[None, :]
    if not hit.any(axis=1).all():
        raise ValueError("truth labels outside the given classes")
    counts = np.zeros((n_pred_ids, len(classes)))
    np.add.at(counts, (np.asarray(pred, np.int64), hit.argmax(axis=1)), 1.0)
    rows, cols = linear_sum_assignment(-counts)
    return float(counts[rows, cols].sum()) / len(pred)


@st.composite
def unsorted_problems(draw):
    """Classes in any order and, sometimes, one truth label outside the
    classes."""
    classes = np.array(draw(st.permutations(
        draw(st.lists(st.integers(-3, 30), min_size=1, max_size=7, unique=True)))))
    n_pred_ids = draw(st.integers(1, 9))
    pred, truth = draw(labelings(classes, n_pred_ids))
    if draw(st.integers(0, 5)) == 0:
        truth[draw(st.integers(0, len(truth) - 1))] = 31
    return pred, truth, n_pred_ids, classes


class TestMatchedAccuracyBytes:
    @settings(max_examples=400, deadline=None)
    @given(unsorted_problems())
    def test_equals_hit_matrix_count(self, problem):
        try:
            want = matched_accuracy_by_hit_matrix(*problem)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                _matched_accuracy(*problem)
        else:
            got = _matched_accuracy(*problem)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("pred, bad", [([-1, -1, 0], -1), ([0, 2, -1], 2), ([1, 0, 7], 7)])
    def test_prediction_outside_the_rows_raises(self, pred, bad):
        with pytest.raises(ValueError, match=rf"^prediction {bad} outside \[0, 2\)$"):
            _matched_accuracy(np.array(pred), np.array([0, 0, 1]), 2, np.array([0, 1]))

    def test_triple_rejects_a_negative_prediction(self):
        # -1 used to wrap to the last prototype row and score all = novel = 1.0
        with pytest.raises(ValueError, match=r"prediction -1 outside \[0, 3\)"):
            accuracy_triple(np.array([-1, -1, 0, 1]), np.array([0, 0, 1, 2]),
                            np.array([0]), np.array([1, 2]), 3)
