import dataclasses
import json

import numpy as np
import pytest

from opencon.core import InvalidTemperature, Rng
from opencon.data import AugmentConfig, Dataset, generate_synthetic, make_split
from opencon.encoder import OptimizerConfig
from opencon.objective import LossWeights
from opencon.trainer import (
    Corrupt,
    TrainConfig,
    TrainingDiverged,
    VersionMismatch,
    ablate,
    checkpoint_load,
    checkpoint_save,
    detection_report,
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

    def test_dimension_mismatch_on_resume(self, tmp_path):
        split = tiny_split()
        cfg = tiny_config(epochs=6)
        path = tmp_path / "m.ockp"
        train(cfg, split, checkpoint_path=path, checkpoint_every=3)
        state = checkpoint_load(path)
        other = tiny_config(epochs=6, embed_dim=8)
        with pytest.raises(VersionMismatch):
            train(other, split, start_state=state)
