import dataclasses
import json
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon import trainer
from opencon.core import DegenerateVector, InvalidTemperature, OpenConError, Rng
from opencon.data import (
    AugmentConfig,
    BatchSampler,
    Dataset,
    SplitDataset,
    generate_synthetic,
    make_split,
)
from opencon.encoder import Mlp, Optimizer, OptimizerConfig, forward
from opencon.evaluation import accuracy_triple
from opencon.objective import LossWeights
from opencon.prototype import (
    SCORE_VARIANTS,
    PrototypeStore,
    calibrate_threshold,
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
    train_step,
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

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", 0), ("embed_dim", -1), ("hidden_dim", -3),
    ])
    def test_layer_widths_rejected(self, field, value):
        # hidden_dim = 0 stays valid: it means twice the input dim
        with pytest.raises(ValueError, match=field):
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

    def test_negative_eval_every_rejected(self):
        # a negative cadence would otherwise mean "never", a second spelling of 0
        with pytest.raises(ValueError, match="eval_every"):
            tiny_config(eval_every=-5)

    def test_empty_pool_with_evaluation_rejected_before_training(self, monkeypatch):
        # every class known and every sample labeled: nothing to evaluate on
        ds = generate_synthetic(4, 20, 8, 40.0, Rng(0, "data"))
        split = make_split(ds, 1.0, 1.0, Rng(0, "data"))
        assert split.n_unlabeled == 0

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(trainer, "train_step", no_step)
        with pytest.raises(ValueError, match="eval_every"):
            train(tiny_config(b_u=0, eval_every=1), split)
        monkeypatch.undo()
        result = train(tiny_config(epochs=2, b_u=0, eval_every=0), split)
        assert [r.acc_all for r in result.reports] == [None, None]


def step_parts(config, split):
    """The model, optimizer, store and sampler that `train` builds for a
    fresh run, built by hand from the same named rng streams."""
    rngs = {name: Rng(config.seed, name) for name in ("init", "data", "augment")}
    m, d = split.dim, config.embed_dim
    mlp = Mlp.init(m, config.hidden_dim or 2 * m, d, rngs["init"])
    store = init_prototypes(config.n_prototypes or len(split.all_classes), d, rngs["init"],
                            len(split.known_classes))
    sampler = BatchSampler(split, config.b_l, config.b_u, rngs["data"], rngs["augment"],
                           config.augment_config)
    return mlp, Optimizer(config.optimizer_config, mlp), store, sampler


class TestTrainStep:
    @pytest.mark.parametrize("overrides", [
        {}, {"use_modified_loss": True}, {"p": 0.0}, {"calibration": "per_epoch"},
    ], ids=["default", "modified-loss", "p0", "per-epoch"])
    def test_one_epoch_of_steps_is_train(self, overrides):
        split = tiny_split()
        config = tiny_config(epochs=1, warm_start=False, eval_every=0, **overrides)
        mlp, optimizer, store, sampler = step_parts(config, split)
        store.reset_counts()
        lam = None
        if config.calibration == "per_epoch":
            lam = calibrate_threshold(forward(mlp, split.labeled_features())[0], store,
                                      config.p)
        records = [train_step(mlp, optimizer, store, config, batch_l, batch_u, 0, i, lam)
                   for i, (batch_l, batch_u) in enumerate(sampler.epoch())]

        result = train(config, split)
        np.testing.assert_array_equal(flat_params(mlp), flat_params(result.mlp))
        for mine, theirs in zip(dataclasses.astuple(optimizer.velocity),
                                dataclasses.astuple(result.final_state.velocity)):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(store.matrix, result.store.matrix)
        np.testing.assert_array_equal(store.assignment_counts,
                                      result.store.assignment_counts)
        breakdowns, thresholds, gated, views = zip(*records)
        if lam is not None:
            assert set(thresholds) == {lam}  # a given threshold is the one applied
        r = result.final
        means = [float(np.mean(col)) for col in zip(*map(dataclasses.astuple, breakdowns))]
        assert means == [r.loss_total, r.loss_l, r.loss_u, r.loss_n, r.kl]
        assert sum(gated) / sum(views) == r.gated_fraction

    def test_non_finite_loss_raises_before_any_update(self):
        split = tiny_split()
        config = tiny_config()
        mlp, optimizer, store, sampler = step_parts(config, split)
        batch_l, batch_u = next(sampler.epoch())
        inputs = batch_u.inputs.copy()
        inputs[0, 0] = np.nan
        batch_u = dataclasses.replace(batch_u, inputs=inputs)
        params = flat_params(mlp)
        velocity = [v.copy() for v in dataclasses.astuple(optimizer.velocity)]
        matrix, counts = store.matrix.copy(), store.assignment_counts.copy()
        with pytest.raises(TrainingDiverged, match="epoch 3 iteration 5") as err:
            train_step(mlp, optimizer, store, config, batch_l, batch_u, 3, 5)
        assert set(err.value.state) == {"epoch", "iteration", "breakdown", "threshold",
                                        "gated"}
        assert (err.value.state["epoch"], err.value.state["iteration"]) == (3, 5)
        np.testing.assert_array_equal(flat_params(mlp), params)
        for now, before in zip(dataclasses.astuple(optimizer.velocity), velocity):
            np.testing.assert_array_equal(now, before)
        np.testing.assert_array_equal(store.matrix, matrix)
        np.testing.assert_array_equal(store.assignment_counts, counts)

    def test_step_looks_its_phases_up_in_the_trainer_module(self, monkeypatch):
        # the benchmark's tracer times each phase by replacing these globals
        calls = {"forward": 0, "loss_opencon": 0, "update_prototypes": 0}

        def counting(name):
            original = getattr(trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(trainer, name, counting(name))
        split = tiny_split()
        config = tiny_config()
        mlp, optimizer, store, sampler = step_parts(config, split)
        batch_l, batch_u = next(sampler.epoch())
        train_step(mlp, optimizer, store, config, batch_l, batch_u, 0, 0)
        assert calls == {"forward": 2, "loss_opencon": 1, "update_prototypes": 1}


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

    @pytest.mark.parametrize("target", ["w1", "b1", "w2", "b2", "prototypes", "row"])
    def test_non_finite_input_raises_before_its_gemm(self, target, monkeypatch):
        mlp, store, split = random_model(2, 3 * EVAL_BLOCK_ROWS, 8, 8, 8, n_classes=6,
                                         n_known=3)
        row = split.unlabeled_idx[EVAL_BLOCK_ROWS + 5]  # in the second block
        if target == "row":
            split.features[row, 1] = np.inf
            message = f"cannot evaluate non-finite feature row {row}"
        else:
            values = store.matrix if target == "prototypes" else getattr(mlp, target)
            values.flat[-1] = np.nan
            message = f"cannot evaluate with non-finite {target}"
        threads, _ = forward_calls(monkeypatch)
        with pytest.raises(OpenConError) as exc:
            evaluate_and_detect(mlp, store, split, 0.7)
        assert str(exc.value) == message
        assert len(threads) == (1 if target == "row" else 0)


SMALL_BLOCK = 32


def two_lanes():
    """Blocks of SMALL_BLOCK rows, and the second evaluation lane open for
    every encoder and every pool of more than one block."""
    return mock.patch.multiple(trainer, EVAL_LANE_MIN_MACS=0, EVAL_BLOCK_ROWS=SMALL_BLOCK,
                               _usable_cpus=lambda: 2)


def forward_calls(monkeypatch, fail_on=None):
    """Record the thread of every `forward` the trainer makes, and of the one
    that raises DegenerateVector on the input `fail_on`."""
    threads, failed_in = [], []

    def recording_forward(mlp, x):
        threads.append(threading.get_ident())
        if fail_on is not None and np.array_equal(x, fail_on):
            failed_in.append(threading.get_ident())
            raise DegenerateVector("injected")
        return forward(mlp, x)

    monkeypatch.setattr(trainer, "forward", recording_forward)
    return threads, failed_in


class TestTwoLanePoolEvaluation:
    # S2's encoder (m = d = 128, h = 256) and S1's (m = 32, h = 64, d = 128)
    WIDE, NARROW = (128, 256, 128), (32, 64, 128)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocked_property_on_two_lanes(self, data):
        # the same draws, with every pool of more than one block on two lanes
        prop = TestPoolEvaluation.test_blocked_pass_matches_whole_pool.hypothesis.inner_test
        with two_lanes():
            prop(self, data)

    def test_two_lanes_return_the_one_lane_bytes(self):
        mlp, store, split = random_model(3, 2_000, *self.WIDE, n_classes=20, n_known=10)
        outputs = []
        for cpus in (1, 2):
            with mock.patch.object(trainer, "_usable_cpus", lambda: cpus):
                outputs.append(trainer._pool_pass(mlp, store, split, True, 0.7))
        (preds_1, scores_1), (preds_2, scores_2) = outputs
        assert preds_1.tobytes() == preds_2.tobytes()
        assert scores_1.keys() == scores_2.keys() == set(SCORE_VARIANTS)
        for variant, s in scores_1.items():
            assert s.tobytes() == scores_2[variant].tobytes()

    @pytest.mark.parametrize("case, n_threads", [
        ("wide", 2), ("one block", 1), ("narrow", 1), ("one cpu", 1)])
    def test_threads_seen_by_forward(self, case, n_threads, monkeypatch):
        m, h, d = self.NARROW if case == "narrow" else self.WIDE
        assert (h * (m + d) >= trainer.EVAL_LANE_MIN_MACS) == (case != "narrow")
        n_pool = EVAL_BLOCK_ROWS if case == "one block" else 4 * EVAL_BLOCK_ROWS
        mlp, store, split = random_model(0, n_pool, m, h, d, n_classes=6, n_known=3)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 1 if case == "one cpu" else 2)
        threads, _ = forward_calls(monkeypatch)
        evaluate_model(mlp, store, split)
        assert len(threads) == n_pool // EVAL_BLOCK_ROWS
        assert len(set(threads)) == n_threads

    @pytest.mark.parametrize("lane, block", [("helper", 1), ("caller", 2)])
    def test_failing_lane_raises_and_leaves_no_thread(self, lane, block, monkeypatch):
        mlp, store, split = random_model(1, 4 * SMALL_BLOCK + 5, 8, 8, 8, n_classes=6,
                                         n_known=3)
        rows = split.unlabeled_idx[block * SMALL_BLOCK:(block + 1) * SMALL_BLOCK]
        _, failed_in = forward_calls(monkeypatch, fail_on=split.features[rows])
        before = threading.active_count()
        with two_lanes(), pytest.raises(DegenerateVector, match="injected"):
            evaluate_model(mlp, store, split)
        assert threading.active_count() == before
        assert (failed_in == [threading.get_ident()]) == (lane == "caller")


class CountingEmbedding(np.ndarray):
    """An embedding block that records the operand shapes of each product
    taken with it on the left."""

    products: list = []

    def __matmul__(self, other):
        CountingEmbedding.products.append((len(self), other.shape))
        return np.asarray(self) @ other


def per_block_ood_scores(mlp, store, split, tau):
    """Every detection variant's score of the pool, from one `forward` per
    block of `trainer.EVAL_BLOCK_ROWS` rows and one `ood_scores` call per
    block and variant."""
    rows, block = split.unlabeled_idx, trainer.EVAL_BLOCK_ROWS
    blocks = [forward(mlp, split.features[rows[start:start + block]])[0]
              for start in range(0, len(rows), block)]
    return {variant: np.concatenate([ood_scores(z, store, variant, tau) for z in blocks])
            for variant in SCORE_VARIANTS}


class TestPoolPassScoring:
    @pytest.mark.parametrize("tau", [None, 0.7])
    def test_one_product_per_block_and_one_scoring_call(self, tau, monkeypatch):
        n_pool = 3 * EVAL_BLOCK_ROWS + 7
        mlp, store, split = random_model(4, n_pool, 8, 8, 8, n_classes=6, n_known=3)
        scoring_calls, score = [], trainer.known_logit_scores

        def counting_forward(mlp_, x):
            z, tape = forward(mlp_, x)
            return z.view(CountingEmbedding), tape

        def counting_scores(logits, names, tau_):
            scoring_calls.append((logits.shape, names, tau_))
            return score(logits, names, tau_)

        monkeypatch.setattr(trainer, "forward", counting_forward)
        monkeypatch.setattr(trainer, "known_logit_scores", counting_scores)
        monkeypatch.setattr(CountingEmbedding, "products", [])
        preds, scores = trainer._pool_pass(mlp, store, split, True, tau)
        blocks = [EVAL_BLOCK_ROWS] * 3 + [7]
        # pseudo_labels takes its product on a plain array, so only the
        # known-logits products are counted
        assert CountingEmbedding.products == (
            [] if tau is None else [(rows, (8, 3)) for rows in blocks])
        assert scoring_calls == ([] if tau is None else [((n_pool, 3), SCORE_VARIANTS, tau)])
        assert len(preds) == n_pool
        assert list(scores) == ([] if tau is None else list(SCORE_VARIANTS))

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("tau", [0.05, 0.7, 3.0])
    def test_scores_are_the_per_block_ood_scores_bytes(self, lanes, tau):
        if lanes == 1:
            mlp, store, split = random_model(5, 3 * EVAL_BLOCK_ROWS + 1, 8, 16, 8,
                                             n_classes=7, n_known=5)
            patch = mock.patch.object(trainer, "_usable_cpus", lambda: 1)
        else:
            mlp, store, split = random_model(5, 9 * SMALL_BLOCK + 3, 8, 16, 8,
                                             n_classes=7, n_known=5)
            patch = two_lanes()
        with patch:
            want = per_block_ood_scores(mlp, store, split, tau)
            _, got = trainer._pool_pass(mlp, store, split, False, tau)
        assert list(got) == list(SCORE_VARIANTS)
        for variant in SCORE_VARIANTS:
            assert got[variant].tobytes() == want[variant].tobytes()


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


def test_config_defaults_are_the_sub_config_defaults():
    config = TrainConfig()
    assert config.weights == LossWeights()
    assert config.optimizer_config == OptimizerConfig()
    assert config.augment_config == AugmentConfig()


def one_sided_model():
    """A random encoder and store, and a split at label ratio 1.0, whose
    unlabeled pool holds novel samples only."""
    rng = Rng(0, "data")
    split = make_split(generate_synthetic(6, 30, 12, 40.0, rng), 0.5, 1.0, rng)
    assert split.n_unlabeled and not np.isin(split.unlabeled_true_labels(),
                                             split.known_classes).any()
    init = Rng(0, "init")
    return Mlp.init(12, 24, 16, init), init_prototypes(6, 16, init, 3), split


class TestOneSidedPool:
    def test_detection_report_runs_no_pass(self, monkeypatch):
        mlp, store, split = one_sided_model()
        threads, _ = forward_calls(monkeypatch)
        assert detection_report(mlp, store, split, 0.7) == {}
        assert threads == []

    @pytest.mark.parametrize("tau", [np.nan, 0.0, -1.0, np.inf])
    def test_invalid_tau_raises_before_any_pass(self, tau, monkeypatch):
        mlp, store, split = one_sided_model()
        threads, _ = forward_calls(monkeypatch)
        for evaluate in (detection_report, evaluate_and_detect):
            with pytest.raises(InvalidTemperature, match="tau must be finite and > 0"):
                evaluate(mlp, store, split, tau)
        assert threads == []


class TestKnownRowsMustMatchTheSplit:
    @pytest.mark.parametrize("known_ids", [[0, 1], [0, 1, 2, 3], [3, 4, 5]])
    def test_mismatch_raises_before_any_pass(self, known_ids, monkeypatch):
        mlp, store, split = random_model(6, 40, 8, 8, 8, n_classes=6, n_known=3)
        other = PrototypeStore(store.matrix, known_ids,
                               np.setdiff1d(np.arange(6), known_ids))
        message = (f"the model's known prototype rows {known_ids} are not the "
                   f"split's known classes [0, 1, 2]")
        threads, _ = forward_calls(monkeypatch)
        for evaluate, tau in ((evaluate_model, ()), (detection_report, (0.7,)),
                              (evaluate_and_detect, (0.7,))):
            with pytest.raises(VersionMismatch) as exc:
                evaluate(mlp, other, split, *tau)
            assert str(exc.value) == message
        assert threads == []

    @pytest.mark.parametrize("eval_every", [0, 1])
    def test_fresh_training_refuses_before_any_step(self, eval_every, monkeypatch):
        # a fresh store's known rows are 0 and 1, the split's known classes 1 and 2
        split = tiny_split()
        labeled = np.flatnonzero(np.isin(split.labels, [1, 2]))[::2]
        other = SplitDataset(split.features, split.labels, split.ids, labeled,
                             np.setdiff1d(np.arange(len(split.labels)), labeled),
                             np.array([1, 2]), split.all_classes)
        steps, step = [], trainer.train_step

        def counting_step(*args, **kwargs):
            steps.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_step", counting_step)
        with pytest.raises(VersionMismatch) as exc:
            train(tiny_config(eval_every=eval_every), other)
        assert str(exc.value) == ("the model's known prototype rows [0, 1] are not the "
                                  "split's known classes [1, 2]")
        assert steps == []


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
