import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.core import InvalidTemperature, Rng
from opencon.data import AugmentConfig, Dataset, SplitDataset, generate_synthetic, make_split
from opencon.encoder import Mlp, OptimizerConfig, forward
from opencon.evaluation import accuracy_triple
from opencon.objective import LossWeights
from opencon.prototype import (
    SCORE_VARIANTS,
    detection_metrics,
    init_prototypes,
    ood_scores,
    pseudo_labels,
)
from opencon.trainer import (
    EVAL_BLOCK_ROWS,
    Corrupt,
    TrainConfig,
    TrainingDiverged,
    VersionMismatch,
    ablate,
    checkpoint_load,
    checkpoint_save,
    detection_report,
    evaluate_and_detect,
    evaluate_model,
    train,
)


def tiny_split(seed=0, n_classes=6, per_class=30, dim=12, kappa=40.0):
    rng = Rng(seed, "data")
    ds = generate_synthetic(n_classes, per_class, dim, kappa, rng)
    return make_split(ds, 0.5, 0.5, rng)


def tiny_config(**kw):
    base = dict(epochs=4, b_l=8, b_u=8, embed_dim=16, seed=5, eval_every=1)
    base.update(kw)
    return TrainConfig(**base)


def flat_params(mlp):
    return np.concatenate([p.ravel() for p in mlp.params().values()])


class TestTrainLoop:
    def test_reports_one_per_epoch(self):
        result = train(tiny_config(), tiny_split())
        assert [r.epoch for r in result.reports] == [0, 1, 2, 3]
        for r in result.reports:
            assert np.isfinite(r.loss_total)
            assert 0.0 <= r.gated_fraction <= 1.0

    def test_identical_seeds_bitwise(self):
        split = tiny_split()
        a = train(tiny_config(), split)
        b = train(tiny_config(), split)
        assert [r.as_dict() for r in a.reports] == [r.as_dict() for r in b.reports]
        np.testing.assert_array_equal(flat_params(a.mlp), flat_params(b.mlp))
        np.testing.assert_array_equal(a.store.matrix, b.store.matrix)

    def test_seed_changes_run(self):
        split = tiny_split()
        a = train(tiny_config(seed=5), split)
        b = train(tiny_config(seed=6), split)
        assert not np.array_equal(flat_params(a.mlp), flat_params(b.mlp))

    def test_total_is_weighted_sum_of_components(self):
        cfg = tiny_config()
        result = train(cfg, tiny_split())
        for r in result.reports:
            expect = (cfg.lambda_l * r.loss_l + cfg.lambda_u * r.loss_u
                      + cfg.lambda_n * r.loss_n + cfg.kl_weight * r.kl)
            assert r.loss_total == pytest.approx(expect, abs=1e-12)

    def test_drop_flags_zero_reported_components(self):
        split = tiny_split()
        r = train(tiny_config(drop_l=True, drop_u=True, drop_n=True), split).final
        assert r.loss_l == 0.0 and r.loss_u == 0.0 and r.loss_n == 0.0
        assert r.loss_total == pytest.approx(tiny_config().kl_weight * r.kl, abs=1e-12)

    def test_supervised_only_mode(self):
        # no unlabeled batches, no novel classes: plain supervised contrastive
        rng = Rng(3, "data")
        ds = generate_synthetic(4, 20, 8, 40.0, rng)
        split = make_split(ds, 1.0, 0.5, rng)
        cfg = tiny_config(b_u=0, drop_u=True, drop_n=True, n_prototypes=4)
        result = train(cfg, split)
        final = result.final
        assert final.loss_u == 0.0 and final.loss_n == 0.0 and final.kl == 0.0
        assert final.loss_l > 0.0
        assert final.gated_fraction == 0.0

    def test_gate_disabled_at_p_zero(self):
        result = train(tiny_config(p=0.0), tiny_split())
        for r in result.reports:
            assert r.gated_fraction == 1.0
            assert r.lambda_threshold is None

    def test_per_epoch_calibration_runs(self):
        result = train(tiny_config(calibration="per_epoch"), tiny_split())
        assert len(result.reports) == 4

    def test_eval_cadence(self):
        result = train(tiny_config(epochs=5, eval_every=2), tiny_split())
        evaluated = [r.acc_all is not None for r in result.reports]
        assert evaluated == [True, False, True, False, True]

    def test_unknown_k_larger_store(self):
        result = train(tiny_config(n_prototypes=9), tiny_split())
        assert result.store.n_classes == 9
        assert result.final.active_prototypes <= 9

    def test_prototype_count_must_cover_known(self):
        # 3 known classes: 3 prototypes leave no novel row for gated views
        for n_prototypes in (2, 3):
            with pytest.raises(ValueError):
                train(tiny_config(n_prototypes=n_prototypes), tiny_split())

    def test_nan_abort_with_diagnostics(self):
        split = tiny_split()
        bad_features = split.features.copy()
        bad_features[0, 0] = np.nan
        bad = dataclasses.replace(split, features=bad_features)
        with pytest.raises(TrainingDiverged) as err:
            train(tiny_config(), bad)
        assert "epoch" in err.value.state

    def test_early_stop(self):
        cfg = tiny_config(epochs=30, early_stop=True,
                          early_stop_patience=5, early_stop_tol=0.5)
        result = train(cfg, tiny_split())
        assert len(result.reports) == 6  # patience + 1 epochs, then plateau exit

    @pytest.mark.parametrize("patience", [0, -1])
    def test_early_stop_patience_below_one_rejected(self, patience):
        # patience 0 would compare each epoch's loss with itself and stop at once
        with pytest.raises(ValueError, match="early_stop_patience"):
            tiny_config(early_stop=True, early_stop_patience=patience)

    def test_non_finite_settings_rejected(self):
        with pytest.raises(InvalidTemperature, match="tau_u"):
            TrainConfig(tau_u=float("inf"))
        with pytest.raises(ValueError, match="lambda_n"):
            TrainConfig(lambda_n=float("nan"))

    @pytest.mark.parametrize("field, value, match", [
        ("momentum", float("nan"), "momentum"),
        ("momentum", 1.0, "momentum"),
        ("momentum", -0.1, "momentum"),
        ("weight_decay", float("inf"), "weight_decay"),
        ("weight_decay", -1e-4, "weight_decay"),
        ("lr_decay", float("nan"), "decay factor"),
        ("lr_decay", 0.0, "decay factor"),
        ("aug_sigma", float("inf"), "sigma"),
        ("aug_sigma", -0.1, "sigma"),
        ("aug_p_mask", float("nan"), "p_mask"),
        ("aug_p_mask", 1.0, "p_mask"),
        ("early_stop_tol", float("nan"), "early_stop_tol"),
        ("early_stop_tol", -1.0, "early_stop_tol"),
    ])
    def test_out_of_range_floats_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{field: value})

    def test_range_edges_accepted(self):
        TrainConfig(momentum=0.0, weight_decay=0.0, aug_sigma=0.0, aug_p_mask=0.0,
                    early_stop_tol=0.0)

    def test_defaults_match_the_configs_they_feed(self):
        # TrainConfig repeats these defaults; the two copies must agree
        config = TrainConfig()
        assert config.weights == LossWeights()
        opt = OptimizerConfig()
        assert (config.lr, config.momentum, config.weight_decay, config.lr_decay,
                config.milestones) == (opt.lr, opt.momentum, opt.weight_decay,
                                       opt.decay_factor, opt.milestones)
        assert (config.epochs, config.aug_sigma, config.aug_p_mask) == (
            opt.total_epochs, AugmentConfig().sigma, AugmentConfig().p_mask)

    def test_warm_start_flag_changes_run(self):
        split = tiny_split()
        a = train(tiny_config(), split)
        b = train(tiny_config(warm_start=False), split)
        assert not np.array_equal(a.store.matrix, b.store.matrix)

    def test_modified_loss_honours_drop_flags(self):
        result = train(tiny_config(use_modified_loss=True, drop_u=True), tiny_split())
        assert all(r.loss_u == 0.0 for r in result.reports)
        assert all(r.loss_l > 0.0 for r in result.reports)

    def test_report_json_clean(self):
        result = train(tiny_config(p=0.0), tiny_split())
        for r in result.reports:
            payload = json.dumps(r.as_dict())
            assert "Infinity" not in payload and "NaN" not in payload


class TestAblate:
    def test_rows_and_shared_split(self):
        split = tiny_split()
        rows = ablate(tiny_config(), split, [("full", {}), ("no_n", {"drop_n": True})])
        assert [r["variant"] for r in rows] == ["full", "no_n"]
        for row in rows:
            assert 0.0 <= row["acc_all"] <= 1.0

    def test_empty_variants(self):
        assert ablate(tiny_config(), tiny_split(), []) == []


def random_model(seed, n_pool, m, h, d, n_classes, n_known, n_labeled=3):
    """A random encoder, prototype store and split whose unlabeled pool has
    `n_pool` rows in shuffled order. First-layer biases of at least 1 make a
    row whose every hidden unit is switched off by the ReLU (it would embed
    to exactly l2_normalize(b2), tying with every other such row) unlikely,
    and the random b2 keeps embeddings away from the zero vector."""
    rs = np.random.default_rng(seed)
    mlp = Mlp(rs.normal(size=(h, m)) / np.sqrt(m), 1.0 + np.abs(rs.normal(size=h)),
              rs.normal(size=(d, h)) / np.sqrt(h), rs.normal(size=d))
    store = init_prototypes(n_classes, d, Rng(seed, "init"), n_known)
    n = n_labeled + n_pool
    labels = np.concatenate([rs.integers(0, n_known, n_labeled),
                             rs.integers(0, n_classes, n_pool)])
    order = rs.permutation(n)
    split = SplitDataset(
        features=rs.normal(size=(n, m)), labels=labels[np.argsort(order)],
        ids=np.arange(n), labeled_idx=np.sort(order[:n_labeled]),
        unlabeled_idx=order[n_labeled:], known_classes=np.arange(n_known),
        all_classes=np.arange(n_classes))
    return mlp, store, split


def whole_pool_reference(mlp, store, split, tau):
    """The evaluation computed from one forward of the whole pool."""
    z, _ = forward(mlp, split.unlabeled_features())
    preds = pseudo_labels(z, store)
    truth = split.unlabeled_true_labels()
    triple = accuracy_triple(preds, truth, split.known_classes, split.novel_classes,
                             store.n_classes)
    is_known = np.isin(truth, split.known_classes)
    if is_known.all() or not is_known.any():
        return triple, preds, {}
    detection = {}
    for variant in SCORE_VARIANTS:
        scores = ood_scores(z, store, variant, tau)
        detection[variant] = detection_metrics(scores[is_known], scores[~is_known])
    return triple, preds, detection


class TestPoolEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocked_pass_matches_whole_pool(self, data):
        b = EVAL_BLOCK_ROWS
        n_pool = data.draw(st.sampled_from([1, b - 1, b, b + 1, 3 * b + 7]), "n_pool")
        # Scores that tie exactly or to within an ulp may rank differently
        # once a block runs through another BLAS kernel than the whole pool
        # (a 1-row tail through gemv or dot, a short one through the small-
        # matrix GEMM), so h and d start at 8, where a row's embedding varies
        # continuously with its input and such ties do not occur.
        m = data.draw(st.integers(1, 40), "m")
        h, d = (data.draw(st.integers(8, 40), name) for name in "hd")
        n_classes = data.draw(st.integers(2, 12), "n_classes")
        n_known = data.draw(st.integers(1, n_classes - 1), "n_known")
        tau = data.draw(st.sampled_from([0.1, 0.7, 2.0]), "tau")
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        mlp, store, split = random_model(seed, n_pool, m, h, d, n_classes, n_known)
        triple, preds, detection = whole_pool_reference(mlp, store, split, tau)

        got_triple, got_preds = evaluate_model(mlp, store, split)
        assert got_triple == triple
        assert got_preds.dtype == preds.dtype
        np.testing.assert_array_equal(got_preds, preds)
        assert detection_report(mlp, store, split, tau) == detection
        assert evaluate_and_detect(mlp, store, split, tau) == (triple, detection)

    def test_detection_memory_scales_with_the_block(self):
        # 20,000 rows: one (n, h) or (n, d) float64 array alone is 20.5 MB
        n, m, h, d = 20_000, 32, 128, 128
        mlp, store, split = random_model(0, n, m, h, d, n_classes=10, n_known=5)
        tracemalloc.start()
        try:
            report = detection_report(mlp, store, split, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(report) == set(SCORE_VARIANTS)
        # a few (block, width) activations plus a dozen (n,) score, label,
        # mask and rank vectors
        bound = 8 * (8 * EVAL_BLOCK_ROWS * max(h, d) + 16 * n)
        assert peak < bound < n * h * 8 // 4


class TestDetectionReport:
    def test_variants_present(self):
        split = tiny_split()
        result = train(tiny_config(), split)
        report = detection_report(result.mlp, result.store, split, 0.7)
        assert set(report) == {"max_cosine", "msp", "energy"}
        for metrics in report.values():
            assert 0.0 <= metrics.auroc <= 1.0
            assert 0.0 <= metrics.fpr95 <= 1.0

    def test_empty_without_known_unlabeled_samples(self):
        # label ratio 1.0: every known sample is labeled, so the unlabeled
        # pool holds no in-distribution score
        rng = Rng(0, "data")
        split = make_split(generate_synthetic(6, 30, 12, 40.0, rng), 0.5, 1.0, rng)
        result = train(tiny_config(epochs=2), split)
        assert detection_report(result.mlp, result.store, split, 0.7) == {}
        triple, _ = evaluate_model(result.mlp, result.store, split)
        assert evaluate_and_detect(result.mlp, result.store, split, 0.7) == (triple, {})


class TestCheckpoint:
    def test_resume_matches_straight_run(self, tmp_path):
        split = tiny_split()
        cfg = tiny_config(epochs=6)
        straight = train(cfg, split)

        path = tmp_path / "mid.ockp"
        train(cfg, split, checkpoint_path=path, checkpoint_every=3)
        state = checkpoint_load(path)
        assert state.next_epoch == 3
        resumed = train(cfg, split, start_state=state)

        np.testing.assert_array_equal(flat_params(straight.mlp),
                                      flat_params(resumed.mlp))
        np.testing.assert_array_equal(straight.store.matrix, resumed.store.matrix)
        tail = [r.as_dict() for r in straight.reports[3:]]
        assert tail == [r.as_dict() for r in resumed.reports]

    def test_resume_refuses_early_stop(self, tmp_path):
        # the patience window restarts at the resume point, so a resumed run
        # could train epochs the straight run never reached
        split = tiny_split()
        cfg = tiny_config(epochs=6, early_stop=True, early_stop_patience=1,
                          early_stop_tol=0.5)
        path = tmp_path / "mid.ockp"
        train(cfg, split, checkpoint_path=path, checkpoint_every=1)
        state = checkpoint_load(path)
        with pytest.raises(ValueError, match="early stopping"):
            train(cfg, split, start_state=state)

    def test_resume_leaves_start_state_untouched(self, tmp_path):
        split = tiny_split()
        cfg = tiny_config(epochs=6)
        path = tmp_path / "mid.ockp"
        train(cfg, split, checkpoint_path=path, checkpoint_every=3)
        state = checkpoint_load(path)
        velocity = state.velocity
        arrays = [*state.mlp.params().values(), velocity.w1, velocity.b1, velocity.w2,
                  velocity.b2, state.store.matrix, state.store.assignment_counts,
                  state.store.known_ids]
        before = [a.copy() for a in arrays]
        train(cfg, split, start_state=state)
        for old, new in zip(before, arrays, strict=True):
            np.testing.assert_array_equal(old, new)

    def test_state_roundtrip(self, tmp_path):
        split = tiny_split()
        result = train(tiny_config(), split)
        path = tmp_path / "final.ockp"
        checkpoint_save(path, result.final_state)
        state = checkpoint_load(path)
        np.testing.assert_array_equal(flat_params(state.mlp), flat_params(result.mlp))
        np.testing.assert_array_equal(state.store.assignment_counts,
                                      result.store.assignment_counts)

    def test_truncated_is_corrupt(self, tmp_path):
        split = tiny_split()
        result = train(tiny_config(), split)
        path = tmp_path / "c.ockp"
        checkpoint_save(path, result.final_state)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(Corrupt):
            checkpoint_load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ockp"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(Corrupt):
            checkpoint_load(path)

    def test_version_mismatch(self, tmp_path):
        split = tiny_split()
        result = train(tiny_config(), split)
        path = tmp_path / "v.ockp"
        checkpoint_save(path, result.final_state)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            checkpoint_load(path)

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_every_below_one_rejected(self, every, tmp_path):
        path = tmp_path / "c.ockp"
        with pytest.raises(ValueError, match="checkpoint_every"):
            train(tiny_config(), tiny_split(), checkpoint_path=path,
                  checkpoint_every=every)
        assert not path.exists()

    def test_checkpoint_every_needs_a_path(self, monkeypatch):
        # rejected before the first iteration: the sampler is never asked
        def no_epoch(self):
            raise AssertionError("training started")

        monkeypatch.setattr("opencon.data.BatchSampler.epoch", no_epoch)
        with pytest.raises(ValueError, match="checkpoint_every"):
            train(tiny_config(), tiny_split(), checkpoint_every=1)

    def test_dimension_mismatch_on_resume(self, tmp_path):
        split = tiny_split()
        cfg = tiny_config(epochs=6)
        path = tmp_path / "m.ockp"
        train(cfg, split, checkpoint_path=path, checkpoint_every=3)
        state = checkpoint_load(path)
        other = tiny_config(epochs=6, embed_dim=8)
        with pytest.raises(VersionMismatch):
            train(other, split, start_state=state)
