import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.core import InvalidTemperature, Rng, l2_normalize, stable_sum
from opencon.encoder import Mlp, backward, forward
from opencon.objective import (
    ContrastSets,
    EmptyPositiveSet,
    InvalidPrior,
    LossWeights,
    build_sets_novel,
    build_sets_simclr,
    build_sets_supcon,
    decompose_alignment,
    kl_regularizer,
    loss_modified,
    loss_novel,
    loss_opencon,
    loss_simclr,
    loss_supcon,
    per_sample_loss,
)
from opencon.objective import _same_key_contrastive

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_unit(rng, n, d):
    return l2_normalize(rng.normal(size=(n, d)))


class TestPerSampleLoss:
    def test_hand_value(self):
        # anchor e1, one positive equal to e1, negatives {e1, e2}
        z = np.stack([E1, E1, E2])
        loss, _ = per_sample_loss(z, ContrastSets(0, [1], [1, 2]), 1.0)
        assert loss == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-5)
        assert loss == pytest.approx(0.31326, abs=1e-5)

    def test_identical_embeddings(self):
        z = np.tile(E1, (5, 1))
        for tau in (0.1, 0.7, 3.0):
            loss, _ = per_sample_loss(z, ContrastSets(0, [1, 2], [1, 2, 3, 4]), tau)
            assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_empty_positives(self):
        z = np.stack([E1, E2])
        with pytest.raises(EmptyPositiveSet):
            per_sample_loss(z, ContrastSets(0, [], [1]), 1.0)

    def test_anchor_not_in_sets(self):
        with pytest.raises(ValueError):
            ContrastSets(0, [0], [1])

    def test_bad_temperature(self):
        z = np.stack([E1, E2])
        with pytest.raises(InvalidTemperature):
            per_sample_loss(z, ContrastSets(0, [1], [1]), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(0, "theory")
        for _ in range(10):
            n, d = 6, 4
            z = random_unit(rng, n, d)
            sets = ContrastSets(0, [1, 2], [1, 2, 3, 4, 5])
            tau = float(rng.uniform(0.2, 1.5))
            _, grad = per_sample_loss(z, sets, tau)
            num = np.zeros_like(z)
            h = 1e-6
            for i in range(n):
                for j in range(d):
                    zp, zm = z.copy(), z.copy()
                    zp[i, j] += h
                    zm[i, j] -= h
                    num[i, j] = (per_sample_loss(zp, sets, tau)[0]
                                 - per_sample_loss(zm, sets, tau)[0]) / (2 * h)
            denom = max(np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(grad - num) / denom < 1e-6

    def test_monotone_in_pure_negative_similarity(self):
        # pushing a non-positive negative toward the anchor raises the loss
        rng = Rng(1, "theory")
        z = random_unit(rng, 4, 3)
        sets = ContrastSets(0, [1], [1, 2, 3])
        base, _ = per_sample_loss(z, sets, 0.5)
        closer = z.copy()
        closer[3] = l2_normalize(0.5 * closer[3] + 0.5 * closer[0])
        assert closer[3] @ z[0] > z[3] @ z[0]
        up, _ = per_sample_loss(closer, sets, 0.5)
        assert up >= base


class TestDecomposition:
    def test_hand_value(self):
        z = np.stack([E1, E1, E2])
        sets = ContrastSets(0, [1], [1, 2])
        l_a, l_b = decompose_alignment(z, sets, 1.0)
        assert l_a == pytest.approx(-1.0, abs=1e-12)
        assert l_b == pytest.approx(np.log(np.e + 1), abs=1e-12)
        loss, _ = per_sample_loss(z, sets, 1.0)
        assert l_a + l_b == pytest.approx(loss, abs=1e-15)

    def test_identity_on_random_instances(self):
        rng = Rng(2, "theory")
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(2, 6))
            z = random_unit(rng, n, d)
            k = int(rng.integers(1, n - 1))
            perm = rng.permutation(n - 1) + 1
            sets = ContrastSets(0, perm[:k], np.arange(1, n))
            tau = float(rng.uniform(0.1, 2.0))
            l_a, l_b = decompose_alignment(z, sets, tau)
            loss, _ = per_sample_loss(z, sets, tau)
            assert abs((l_a + l_b) - loss) <= 1e-12

    def test_log_partition_lower_bound(self):
        rng = Rng(3, "theory")
        for _ in range(200):
            z = random_unit(rng, 5, 3)
            sets = ContrastSets(0, [1], [1, 2, 3, 4])
            tau = float(rng.uniform(0.1, 2.0))
            _, l_b = decompose_alignment(z, sets, tau)
            max_sim = max(z[0] @ z[j] for j in sets.negatives)
            assert l_b >= max_sim / tau - 1e-12

    def test_alignment_floor(self):
        # all positives equal to the anchor pin the alignment term at -1/tau
        z = np.tile(E1, (4, 1))
        sets = ContrastSets(0, [1, 2, 3], [1, 2, 3])
        for tau in (0.2, 1.0):
            l_a, _ = decompose_alignment(z, sets, tau)
            assert l_a == pytest.approx(-1.0 / tau, abs=1e-12)


class TestSetBuilders:
    def test_supcon_enumeration(self):
        # three samples with labels (a, a, b) -> six views
        labels = np.array([7, 7, 7, 7, 9, 9])
        sets = build_sets_supcon(labels, anchor=2)  # first view of second sample
        assert sorted(sets.positives.tolist()) == [0, 1, 3]
        assert len(sets.negatives) == 5

    def test_supcon_single_sample(self):
        sets = build_sets_supcon(np.array([4, 4]), anchor=0)
        assert sets.positives.tolist() == [1]
        assert sets.negatives.tolist() == [1]

    def test_supcon_all_distinct_matches_simclr(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        ids = np.array([10, 10, 11, 11, 12, 12])
        for anchor in range(6):
            sup = build_sets_supcon(labels, anchor)
            sim = build_sets_simclr(ids, anchor)
            np.testing.assert_array_equal(sup.positives, sim.positives)
            np.testing.assert_array_equal(sup.negatives, sim.negatives)

    def test_simclr_cardinality(self):
        ids = np.repeat(np.arange(4), 2)
        for anchor in range(8):
            sets = build_sets_simclr(ids, anchor)
            assert len(sets.positives) == 1
            assert len(sets.negatives) == 7
            assert sets.positives[0] == anchor ^ 1

    def test_simclr_symmetry(self):
        ids = np.repeat(np.arange(3), 2)
        for anchor in range(6):
            partner = build_sets_simclr(ids, anchor).positives[0]
            assert build_sets_simclr(ids, partner).positives[0] == anchor

    def test_simclr_single_pair_zero_loss(self):
        z = np.tile(E1, (2, 1))
        ids = np.array([5, 5])
        loss, _, n_c = loss_simclr(z, ids, 0.3)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert n_c == 2

    def test_novel_all_shared(self):
        pseudo = np.full(6, 3)
        sets = build_sets_novel(pseudo, anchor=0)
        assert sorted(sets.positives.tolist()) == [1, 2, 3, 4, 5]

    def test_novel_pairs(self):
        # two samples, views agree within sample: both share -> |P|=3,
        # distinct predictions -> |P|=1
        shared = np.array([2, 2, 2, 2])
        assert len(build_sets_novel(shared, 0).positives) == 3
        distinct = np.array([2, 2, 5, 5])
        assert len(build_sets_novel(distinct, 0).positives) == 1

    def test_novel_known_class_predictions_group(self):
        # predictions landing on known ids still group by equality
        pseudo = np.array([0, 0, 7, 7])
        sets = build_sets_novel(pseudo, 0)
        assert sets.positives.tolist() == [1]

    def test_novel_empty_raises(self):
        with pytest.raises(EmptyPositiveSet):
            build_sets_novel(np.array([1, 2, 3]), 0)


class TestBatchLosses:
    def test_batch_equals_mean_of_per_sample(self):
        rng = Rng(4, "theory")
        z = random_unit(rng, 8, 5)
        labels = np.array([0, 0, 1, 1, 0, 0, 2, 2])
        batch_loss, _, n_c = loss_supcon(z, labels, 0.5)
        per = [per_sample_loss(z, build_sets_supcon(labels, a), 0.5)[0]
               for a in range(8)]
        assert n_c == 8
        assert batch_loss == pytest.approx(np.mean(per), abs=1e-12)

    def test_novel_skips_empty_anchors(self):
        rng = Rng(5, "theory")
        z = random_unit(rng, 5, 4)
        pseudo = np.array([1, 1, 2, 3, 4])  # three singletons
        loss, _, n_c = loss_novel(z, pseudo, 0.7)
        assert n_c == 2
        per = [per_sample_loss(z, build_sets_novel(pseudo, a), 0.7)[0]
               for a in (0, 1)]
        assert loss == pytest.approx(np.mean(per), abs=1e-12)

    def test_empty_batch(self):
        loss, grad, n_c = loss_novel(np.zeros((0, 3)), np.zeros(0), 0.7)
        assert loss == 0.0 and n_c == 0

    def test_all_singletons(self):
        rng = Rng(6, "theory")
        z = random_unit(rng, 4, 3)
        loss, grad, n_c = loss_novel(z, np.arange(4), 0.7)
        assert loss == 0.0 and n_c == 0
        np.testing.assert_array_equal(grad, 0.0)

    def test_permutation_invariance_bitwise(self):
        rng = Rng(7, "theory")
        z = random_unit(rng, 10, 6)
        labels = np.array([0, 0, 1, 1, 2, 2, 0, 0, 1, 1])
        base, _, _ = loss_supcon(z, labels, 0.4)
        perm = rng.permutation(10)
        shuffled, _, _ = loss_supcon(z[perm], labels[perm], 0.4)
        assert base == shuffled

    def test_gradient_descends(self):
        rng = Rng(8, "theory")
        z = random_unit(rng, 8, 4)
        ids = np.repeat(np.arange(4), 2)
        loss, grad, _ = loss_simclr(z, ids, 0.5)
        stepped = l2_normalize(z - 0.01 * grad)
        after, _, _ = loss_simclr(stepped, ids, 0.5)
        assert after < loss


def frozen_same_key_contrastive(z, keys, tau):
    """The same-key kernel as it was before its in-place rewrite, kept
    verbatim as a bitwise oracle (input checks aside)."""
    n = len(z)
    pos_mask = np.equal.outer(keys, keys) & ~np.eye(n, dtype=bool)
    n_pos = pos_mask.sum(axis=1)
    contrib = n_pos > 0
    n_c = int(contrib.sum())
    if n_c == 0:
        return 0.0, np.zeros_like(z), 0
    s = (z @ z.T) / tau
    s_neg = s.copy()
    np.fill_diagonal(s_neg, -np.inf)
    rowmax = np.max(s_neg, axis=1)
    e = np.exp(s_neg - rowmax[:, None])
    denom = stable_sum(e, axis=1)
    lse = rowmax + np.log(denom)
    pos_sum = stable_sum(np.where(pos_mask, s, 0.0), axis=1)
    losses = lse - pos_sum / np.maximum(n_pos, 1)
    loss = stable_sum(losses[contrib]) / n_c
    w = e / denom[:, None]
    d = (w - pos_mask / np.maximum(n_pos, 1)[:, None]) / tau
    d *= contrib[:, None] / n_c
    grad = d @ z + d.T @ z
    return float(loss), grad, n_c


@st.composite
def same_key_batches(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["repeated", "pairs", "singletons"]))
    if mode == "repeated":
        keys = rng.integers(0, draw(st.integers(1, n)), size=n)
    elif mode == "pairs":
        keys = rng.permutation(np.arange(n) // 2)
    else:
        keys = rng.permutation(n)
    z = rng.normal(size=(n, d))
    if d > 1 and draw(st.booleans()):
        z[rng.integers(0, n, size=n)] = z[0]  # identical rows tie in s
    return l2_normalize(z), keys, draw(st.sampled_from([0.1, 0.4, 0.7]))


class TestSameKeyKernelBits:
    @settings(max_examples=400, deadline=None)
    @given(same_key_batches())
    def test_equals_frozen_kernel(self, batch):
        z, keys, tau = batch
        loss, grad, n_c = _same_key_contrastive(z, keys, tau)
        want_loss, want_grad, want_n_c = frozen_same_key_contrastive(z, keys, tau)
        assert n_c == want_n_c
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


class TestKlRegularizer:
    def test_zero_at_prior(self):
        # symmetric pair of embeddings makes the mean prediction uniform
        m = np.stack([E1, E2])
        z = np.stack([E1, E2])
        kl, grad = kl_regularizer(z, m, 0.7, np.array([0.5, 0.5]))
        assert kl == pytest.approx(0.0, abs=1e-12)

    def test_log_two_when_concentrated(self):
        m = np.stack([E1, -E1])
        z = np.tile(E1, (4, 1))
        kl, _ = kl_regularizer(z, m, 0.01, np.array([0.5, 0.5]))
        assert kl == pytest.approx(np.log(2), abs=1e-9)

    def test_nonnegative(self):
        rng = Rng(9, "theory")
        for _ in range(1000):
            z = random_unit(rng, 6, 4)
            m = random_unit(rng, 3, 4)
            kl, _ = kl_regularizer(z, m, 0.7, np.full(3, 1 / 3))
            assert kl >= -1e-12

    def test_invalid_prior(self):
        z = np.stack([E1, E2])
        m = np.stack([E1, E2])
        with pytest.raises(InvalidPrior):
            kl_regularizer(z, m, 0.7, np.array([0.7, 0.7]))
        with pytest.raises(InvalidPrior):
            kl_regularizer(z, m, 0.7, np.array([1.0, 0.0]))
        with pytest.raises(InvalidPrior):
            kl_regularizer(z, m, 0.7, np.array([1.0]))

    @pytest.mark.parametrize("prior", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan],
                                       [np.nan, 0.5, 0.5], [0.5, np.nan, 0.5],
                                       [0.5, 0.5, np.nan]])
    def test_nan_prior_rejected(self, prior):
        # NaN fails every comparison, so `sum - 1 > tol` and `p <= 0` miss it
        rng = Rng(9, "theory")
        z = random_unit(rng, 4, 3)
        m = random_unit(rng, len(prior), 3)
        with pytest.raises(InvalidPrior):
            kl_regularizer(z, m, 0.7, np.array(prior))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(10, "theory")
        z = random_unit(rng, 5, 4)
        m = random_unit(rng, 3, 4)
        prior = np.array([0.2, 0.3, 0.5])
        _, grad = kl_regularizer(z, m, 0.7, prior)
        h = 1e-6
        num = np.zeros_like(z)
        for i in range(5):
            for j in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                num[i, j] = (kl_regularizer(zp, m, 0.7, prior)[0]
                             - kl_regularizer(zm, m, 0.7, prior)[0]) / (2 * h)
        assert np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12) < 1e-6


class TestComposite:
    def _inputs(self, seed=11):
        rng = Rng(seed, "theory")
        z_l = random_unit(rng, 6, 4)
        labels_l = np.array([0, 0, 1, 1, 0, 0])
        z_u = random_unit(rng, 8, 4)
        ids_u = np.repeat(np.arange(4), 2)
        novel_rows = np.array([2, 3, 6, 7])
        protos = random_unit(rng, 5, 4)
        pseudo = np.array([3, 3, 4, 4])
        return z_l, labels_l, z_u, ids_u, novel_rows, pseudo, protos

    def test_weighted_total(self):
        z_l, labels_l, z_u, ids_u, novel_rows, pseudo, protos = self._inputs()
        w = LossWeights()
        bd, _, _ = loss_opencon(z_l, labels_l, z_u, ids_u, novel_rows, pseudo,
                                protos, w)
        expect = (w.lambda_l * bd.l + w.lambda_u * bd.u + w.lambda_n * bd.n
                  + w.kl_weight * bd.kl)
        assert bd.total == pytest.approx(expect, abs=1e-12)

    def test_pure_simclr_when_others_zero(self):
        z_l, labels_l, z_u, ids_u, novel_rows, pseudo, protos = self._inputs()
        w = LossWeights(lambda_n=0.0, lambda_l=0.0, lambda_u=1.0, kl_weight=0.0)
        bd, grad_l, grad_u = loss_opencon(z_l, labels_l, z_u, ids_u, novel_rows,
                                          pseudo, protos, w)
        direct, direct_grad, _ = loss_simclr(z_u, ids_u, w.tau_u)
        assert bd.total == pytest.approx(direct, abs=1e-12)
        np.testing.assert_allclose(grad_u, direct_grad, atol=1e-15)
        np.testing.assert_array_equal(grad_l, 0.0)

    def test_drop_flags_zero_component_and_grad(self):
        z_l, labels_l, z_u, ids_u, novel_rows, pseudo, protos = self._inputs()
        w = LossWeights(kl_weight=0.0)
        bd, grad_l, _ = loss_opencon(z_l, labels_l, z_u, ids_u, novel_rows,
                                     pseudo, protos, w, drop_l=True)
        assert bd.l == 0.0
        np.testing.assert_array_equal(grad_l, 0.0)
        bd2, _, grad_u2 = loss_opencon(z_l, labels_l, z_u, ids_u, novel_rows,
                                       pseudo, protos, w,
                                       drop_u=True, drop_n=True)
        assert bd2.u == 0.0 and bd2.n == 0.0
        np.testing.assert_array_equal(grad_u2, 0.0)

    def test_total_grad_is_weighted_sum(self):
        z_l, labels_l, z_u, ids_u, novel_rows, pseudo, protos = self._inputs()
        w = LossWeights()
        _, grad_l, grad_u = loss_opencon(z_l, labels_l, z_u, ids_u, novel_rows,
                                         pseudo, protos, w)
        _, g_l_only, _ = loss_supcon(z_l, labels_l, w.tau_l)
        _, g_u_only, _ = loss_simclr(z_u, ids_u, w.tau_u)
        _, g_n_only, _ = loss_novel(z_u[novel_rows], pseudo, w.tau_n)
        _, g_kl = kl_regularizer(z_u, protos, w.tau_n, np.full(5, 0.2))
        np.testing.assert_allclose(grad_l, w.lambda_l * g_l_only, atol=1e-12)
        expected_u = w.lambda_u * g_u_only + w.kl_weight * g_kl
        np.testing.assert_allclose(
            grad_u[[0, 1, 4, 5]], expected_u[[0, 1, 4, 5]], atol=1e-12)
        scattered = expected_u.copy()
        scattered[novel_rows] += w.lambda_n * g_n_only
        np.testing.assert_allclose(grad_u, scattered, atol=1e-12)

    def test_no_unlabeled_views(self):
        z_l, labels_l, _, _, _, _, protos = self._inputs()
        w = LossWeights()
        none = np.zeros(0, np.int64)
        bd, grad_l, grad_u = loss_opencon(z_l, labels_l, np.zeros((0, 4)), none,
                                          none, none, protos, w)
        assert (bd.u, bd.n, bd.kl) == (0.0, 0.0, 0.0)
        assert grad_u.shape == (0, 4)
        supcon, g_sup, _ = loss_supcon(z_l, labels_l, w.tau_l)
        assert bd.l == supcon
        np.testing.assert_array_equal(grad_l, w.lambda_l * g_sup)

    def test_no_gated_views(self):
        z_l, labels_l, z_u, ids_u, _, _, protos = self._inputs()
        w = LossWeights()
        none = np.zeros(0, np.int64)
        bd, grad_l, grad_u = loss_opencon(z_l, labels_l, z_u, ids_u, none, none,
                                          protos, w)
        assert bd.n == 0.0
        # the novel term adds nothing: same as dropping it
        bd_drop, grad_l_drop, grad_u_drop = loss_opencon(
            z_l, labels_l, z_u, ids_u, none, none, protos, w, drop_n=True)
        assert bd == bd_drop
        np.testing.assert_array_equal(grad_l, grad_l_drop)
        np.testing.assert_array_equal(grad_u, grad_u_drop)
        assert grad_u.shape == z_u.shape

    @pytest.mark.parametrize("modified", [False, True])
    def test_repeated_novel_rows_rejected(self, modified):
        # a repeated row would be its own positive in the novel term, and its
        # gradient scatter would keep only one of the copies
        z_l, labels_l, z_u, ids_u, _, _, protos = self._inputs()
        rows = np.array([2, 3, 2])
        pseudo = np.array([3, 3, 3])
        args = (z_l, labels_l, z_u, ids_u, rows, pseudo)
        with pytest.raises(ValueError, match="repeat"):
            if modified:
                loss_modified(*args, np.zeros(len(z_u), np.int64), protos, LossWeights())
            else:
                loss_opencon(*args, protos, LossWeights())

    def test_weights_validation(self):
        with pytest.raises(InvalidTemperature):
            LossWeights(tau_l=0.0)
        with pytest.raises(ValueError):
            LossWeights(lambda_u=-0.1)


class TestModified:
    """The widened-supervised-term variant: labeled views plus gate-rejected
    unlabeled views (tagged with their predicted class) in the supervised
    term."""

    def _inputs(self, seed=12):
        rng = Rng(seed, "theory")
        z_l = random_unit(rng, 6, 4)
        labels_l = np.array([0, 0, 1, 1, 0, 0])
        z_u = random_unit(rng, 8, 4)
        ids_u = np.repeat(np.arange(4), 2)
        protos = random_unit(rng, 5, 4)
        pseudo_u = np.array([1, 0, 3, 3, 1, 0, 4, 4])
        return z_l, labels_l, z_u, ids_u, protos, pseudo_u

    def test_equals_standard_loss_when_gate_rejects_nothing(self):
        z_l, labels_l, z_u, ids_u, protos, pseudo_u = self._inputs()
        every_row = np.arange(len(z_u))
        w = LossWeights()
        std = loss_opencon(z_l, labels_l, z_u, ids_u, every_row, pseudo_u,
                           protos, w)
        mod = loss_modified(z_l, labels_l, z_u, ids_u, every_row, pseudo_u,
                            pseudo_u, protos, w)
        assert mod[0] == std[0]
        np.testing.assert_array_equal(mod[1], std[1])
        np.testing.assert_array_equal(mod[2], std[2])

    def test_supervised_term_covers_rejected_rows(self):
        z_l, labels_l, z_u, ids_u, protos, pseudo_u = self._inputs()
        novel_rows = np.array([2, 3, 6, 7])
        rejected = np.array([0, 1, 4, 5])
        w = LossWeights()
        bd, grad_l, grad_u = loss_modified(
            z_l, labels_l, z_u, ids_u, novel_rows, pseudo_u[novel_rows],
            pseudo_u, protos, w)
        val_k, g_k, _ = loss_supcon(np.concatenate([z_l, z_u[rejected]]),
                                    np.concatenate([labels_l, pseudo_u[rejected]]),
                                    w.tau_l)
        assert bd.l == pytest.approx(val_k, abs=1e-12)
        np.testing.assert_allclose(grad_l, w.lambda_l * g_k[:len(z_l)], atol=1e-12)
        _, g_u_only, _ = loss_simclr(z_u, ids_u, w.tau_u)
        _, g_n_only, _ = loss_novel(z_u[novel_rows], pseudo_u[novel_rows], w.tau_n)
        _, g_kl = kl_regularizer(z_u, protos, w.tau_n, np.full(5, 0.2))
        expected_u = w.lambda_u * g_u_only + w.kl_weight * g_kl
        expected_u[rejected] += w.lambda_l * g_k[len(z_l):]
        expected_u[novel_rows] += w.lambda_n * g_n_only
        np.testing.assert_allclose(grad_u, expected_u, atol=1e-12)

    def test_gradient_through_encoder_matches_finite_differences(self):
        rng = Rng(13, "theory")
        w = LossWeights()
        for trial in range(4):
            m, h, d = (int(v) for v in rng.integers(3, 9, size=3))
            b_l, b_u = 3, 4
            mlp = Mlp.init(m, h, d, rng)
            mlp.b2 += 0.2 * rng.normal(size=d)
            x_l = rng.normal(size=(2 * b_l, m))
            x_u = rng.normal(size=(2 * b_u, m))
            labels_l = np.repeat(rng.integers(0, 2, size=b_l), 2)
            ids_u = np.repeat(np.arange(b_u), 2)
            pseudo_u = np.repeat(rng.integers(0, 4, size=b_u), 2)
            novel_rows = np.arange(4) if trial % 2 else np.array([0, 1, 6, 7])
            protos = l2_normalize(rng.normal(size=(4, d)))

            def run(net):
                z_l, tape_l = forward(net, x_l)
                z_u, tape_u = forward(net, x_u)
                bd, g_l, g_u = loss_modified(
                    z_l, labels_l, z_u, ids_u, novel_rows,
                    pseudo_u[novel_rows], pseudo_u, protos, w)
                grads = backward(net, tape_l, g_l)
                grads.add_(backward(net, tape_u, g_u))
                return bd.total, np.concatenate(
                    [g.ravel() for g in (grads.w1, grads.b1, grads.w2, grads.b2)])

            _, analytic = run(mlp)
            names = list(mlp.params())
            numeric = []
            eps = 1e-5
            for name in names:
                param = getattr(mlp, name)
                for idx in np.ndindex(param.shape):
                    probe = mlp.copy()
                    getattr(probe, name)[idx] += eps
                    hi = run(probe)[0]
                    getattr(probe, name)[idx] -= 2 * eps
                    lo = run(probe)[0]
                    numeric.append((hi - lo) / (2 * eps))
            numeric = np.array(numeric)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-6
