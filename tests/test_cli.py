import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import opencon
from opencon import cli, evaluation, trainer
from opencon.cli import load_config_file, main, make_parser
from opencon.core import OpenConError, Rng
from opencon.data import Dataset, ingest_features, make_split, write_features
from opencon.evaluation import AlignmentIdentityReport
from opencon.trainer import TrainConfig, train


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.ocft"
    rc = main(["gen-data", "--classes", "6", "--per-class", "30", "--dim", "12",
               "--kappa", "40", "--seed", "1", "--out", str(path),
               "--no-timestamps"])
    assert rc == 0
    return path


def train_args(data_file, extra=()):
    return ["train", "--data", str(data_file), "--known-frac", "0.5",
            "--label-ratio", "0.5", "--epochs", "3", "--b-l", "8", "--b-u", "8",
            "--embed-dim", "16", "--seed", "2", "--no-timestamps"] + list(extra)


class TestGenData:
    def test_writes_header_and_sidecar(self, data_file):
        blob = data_file.read_bytes()
        assert blob[:4] == b"OCFT"
        version, n, m, has_labels = struct.unpack_from("<IIIB", blob, 4)
        assert (version, n, m, has_labels) == (1, 180, 12, 1)
        with open(str(data_file) + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["classes"] == 6
        assert sidecar["kappa"] == 40
        assert "timestamp" not in sidecar

    def test_roundtrips(self, data_file):
        ds = ingest_features(data_file)
        assert ds.n == 180 and ds.dim == 12

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--classes", "2", "--per-class", "5",
                  "--dim", "4", "--kappa", "10"])
        assert exc.value.code == 2

    def test_default_seed_is_zero(self, tmp_path):
        outs = []
        for tag, seed_args in (("default", []), ("zero", ["--seed", "0"])):
            out = tmp_path / f"{tag}.ocft"
            rc = main(["gen-data", "--classes", "3", "--per-class", "5", "--dim", "4",
                       "--kappa", "10", "--out", str(out), "--no-timestamps", *seed_args])
            assert rc == 0
            sidecar = json.loads((tmp_path / f"{tag}.ocft.json").read_text())
            del sidecar["path"]
            outs.append((out.read_bytes(), sidecar))
        assert outs[0] == outs[1]
        assert outs[0][1]["seed"] == 0

    def test_kappa_past_the_float_limit_fails_fast(self, tmp_path):
        # in a child process with a timeout, so a sampler that hangs fails the
        # test in seconds; at dim 1000, 4.4e18 is where rounding alone hangs it
        out = tmp_path / "k.ocft"
        env = {**os.environ,
               "PYTHONPATH": str(Path(opencon.__file__).resolve().parent.parent)}
        for dim, kappa in (("4", "1e20"), ("1000", "4.4e18")):
            done = subprocess.run(
                [sys.executable, "-m", "opencon.cli", "gen-data", "--classes", "2",
                 "--per-class", "3", "--dim", dim, "--kappa", kappa, "--out", str(out)],
                env=env, capture_output=True, timeout=60)
            assert done.returncode == 1
            assert done.stderr.startswith(b"error: kappa must be >= 0 and < 2**52 = ")
            assert done.stderr.endswith(f"got {float(kappa)!r}\n".encode())
            assert done.stderr.count(b"\n") == 1
            assert not out.exists() and not Path(str(out) + ".json").exists()

    def test_empty_dataset_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "empty.ocft"
        rc = main(["gen-data", "--classes", "2", "--per-class", "0", "--dim", "4",
                   "--kappa", "10", "--out", str(out), "--no-timestamps"])
        assert rc == 0
        assert "warning" in capsys.readouterr().err
        assert ingest_features(out).n == 0


class TestTrain:
    def test_metrics_and_summary(self, data_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        summary = tmp_path / "summary.json"
        rc = main(train_args(data_file, ["--metrics", str(metrics),
                                         "--summary", str(summary)]))
        assert rc == 0
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert len(lines) == 3
        for key in ("epoch", "loss_total", "loss_l", "loss_u", "loss_n", "kl",
                    "lambda_threshold", "gated_fraction", "acc_all",
                    "acc_novel", "acc_seen", "active_prototypes"):
            assert key in lines[0]
        payload = json.loads(summary.read_text())
        assert set(payload["accuracy"]) == {"all", "novel", "seen"}
        assert "detection" in payload

    def test_deterministic_outputs(self, data_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            metrics = tmp_path / f"m_{tag}.jsonl"
            summary = tmp_path / f"s_{tag}.json"
            rc = main(train_args(data_file, ["--metrics", str(metrics),
                                             "--summary", str(summary)]))
            assert rc == 0
            outs.append((metrics.read_bytes(), summary.read_bytes()))
        assert outs[0] == outs[1]

    def test_checkpoint_then_eval(self, data_file, tmp_path):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--out", str(out), "--no-timestamps"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["accuracy"]["all"] <= 1.0

    def test_eval_rejects_nonpositive_tau(self, data_file, tmp_path, capsys):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--tau", "0", "--out", str(out), "--no-timestamps"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_eval_rejects_non_finite_tau(self, tau, data_file, tmp_path, capsys):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--tau", tau, "--out", str(out), "--no-timestamps"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["nan", "0", "-1"])
    def test_eval_rejects_invalid_tau_on_a_one_sided_pool(self, tau, data_file, tmp_path,
                                                          capsys):
        # label ratio 1.0 leaves no true-known row in the pool, so no
        # detection score is computed, and tau must still be checked
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--label-ratio", "1.0", "--seed", "2", "--tau", tau, "--out", str(out),
                   "--no-timestamps"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: tau must be finite and > 0")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["1e-320", "5e-309"])
    def test_eval_rejects_a_subnormal_tau(self, tau, data_file, tmp_path, capsys):
        # below the smallest normal float, logits / tau overflow and the max
        # shift's inf - inf made NaN scores, reported as auroc 0.0 with exit 0
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        capsys.readouterr()
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--tau", tau, "--out", str(out), "--no-timestamps"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: tau must be finite and > 0")
        assert captured.out == ""
        assert not out.exists()

    def test_eval_at_the_smallest_normal_tau_scores_finitely(self, data_file, tmp_path):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--tau", repr(float(np.finfo(float).tiny)), "--out", str(out),
                   "--no-timestamps"])
        assert rc == 0
        detection = json.loads(out.read_text())["detection"]
        assert set(detection) == {"max_cosine", "msp", "energy"}
        for metrics in detection.values():
            assert 0.0 < metrics["auroc"] <= 1.0

    def test_eval_rejects_non_finite_features(self, data_file, tmp_path, capsys):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        ds = ingest_features(data_file)
        features = ds.features.copy()
        features[3, 2], features[50, 0] = np.nan, np.inf
        bad, out = tmp_path / "bad.ocft", tmp_path / "eval.json"
        write_features(bad, Dataset(features, ds.labels, ds.ids))
        split = make_split(ds, 0.5, 0.5, Rng(2, "data"))
        assert 3 in split.labeled_idx and 50 in split.unlabeled_idx
        capsys.readouterr()
        rc = main(["eval", "--data", str(bad), "--checkpoint", str(ckpt),
                   "--seed", "2", "--out", str(out), "--no-timestamps"])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot evaluate non-finite feature row 50\n"
        assert not out.exists()

    def test_directory_paths_are_runtime_errors(self, data_file, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path), "--no-timestamps"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--out", str(out_dir), "--no-timestamps"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out_dir.iterdir()) == []

    def test_drop_flag(self, data_file, tmp_path):
        metrics = tmp_path / "m.jsonl"
        rc = main(train_args(data_file, ["--drop-n", "--metrics", str(metrics),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        first = json.loads(metrics.read_text().splitlines()[0])
        assert first["loss_n"] == 0.0

    def test_divergence_diagnostic_is_strict_json(self, data_file, tmp_path, capsys):
        ds = ingest_features(data_file)
        features = ds.features.copy()
        features[0, 0] = np.nan
        bad = tmp_path / "nan.ocft"
        write_features(bad, Dataset(features, ds.labels, ds.ids))
        rc = main(train_args(bad, ["--metrics", str(tmp_path / "m.jsonl"),
                                   "--summary", str(tmp_path / "s.json")]))
        assert rc == 1
        err = capsys.readouterr().err
        [line] = [ln for ln in err.splitlines() if ln.startswith("diagnostic: ")]

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        state = json.loads(line[len("diagnostic: "):], parse_constant=reject)
        assert state["breakdown"]["total"] is None

    def test_missing_data_is_runtime_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.ocft"),
                   "--no-timestamps"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, data_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nb_l = 8\nb_u = 8\nembed_dim = 16\nseed = 2\n")
        metrics = tmp_path / "m.jsonl"
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--epochs", "2", "--metrics", str(metrics),
                   "--summary", str(tmp_path / "s.json"), "--no-timestamps"])
        assert rc == 0
        assert len(metrics.read_text().splitlines()) == 2  # flag beats file

    def test_config_file_seed_reaches_split(self, data_file, tmp_path):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 7\n")
        lines = []
        for tag, seed_args in (("file", ["--config", str(cfg)]), ("flag", ["--seed", "7"])):
            metrics = tmp_path / f"m_{tag}.jsonl"
            summary = tmp_path / f"s_{tag}.json"
            argv = train_args(data_file)
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
            rc = main(argv + seed_args + ["--metrics", str(metrics),
                                          "--summary", str(summary),
                                          "--checkpoint-out", str(tmp_path / f"{tag}.ockp")])
            assert rc == 0
            lines.append(metrics.read_bytes())
        assert lines[0] == lines[1]
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(tmp_path / "file.ockp"),
                   "--seed", "7", "--out", str(out), "--no-timestamps"])
        assert rc == 0
        trained = json.loads((tmp_path / "s_file.json").read_text())
        assert json.loads(out.read_text())["accuracy"] == trained["accuracy"]

    def test_negative_unlabeled_batch_is_runtime_error(self, data_file, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        rc = main(train_args(data_file, ["--b-u", "-5", "--metrics", str(metrics)]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not metrics.exists()

    def test_rejected_run_keeps_existing_metrics(self, data_file, tmp_path, capsys):
        # three known classes and three prototypes leave no novel row
        metrics = tmp_path / "m.jsonl"
        metrics.write_bytes(b'{"epoch": 0}\n')
        rc = main(train_args(data_file, ["--n-prototypes", "3",
                                         "--metrics", str(metrics)]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: n_prototypes")
        assert metrics.read_bytes() == b'{"epoch": 0}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_below_one_is_runtime_error(self, every, data_file,
                                                         tmp_path, capsys):
        ckpt = tmp_path / "c.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--checkpoint-every", every,
                                         "--metrics", str(tmp_path / "m.jsonl")]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: checkpoint_every")
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_every_without_checkpoint_out_is_runtime_error(
            self, data_file, tmp_path, capsys):
        # periodic checkpoints with nowhere to write them are rejected before
        # training instead of silently writing nothing
        rc = main(train_args(data_file, ["--checkpoint-every", "1",
                                         "--metrics", str(tmp_path / "m.jsonl")]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: checkpoint_every")
        assert list(tmp_path.iterdir()) == []

    def test_eval_embeds_each_unlabeled_row_once(self, data_file, tmp_path, monkeypatch):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0
        block_rows, embedded = 16, []
        real_forward = trainer.forward

        def counting_forward(mlp, x):
            embedded.append(len(x))
            return real_forward(mlp, x)

        monkeypatch.setattr(trainer, "EVAL_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(trainer, "forward", counting_forward)
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--out", str(tmp_path / "e.json"), "--no-timestamps"])
        assert rc == 0
        split = make_split(ingest_features(data_file), 0.5, 0.5, Rng(2, "data"))
        assert sum(embedded) == split.n_unlabeled
        assert len(embedded) > 1
        assert all(block_rows <= rows <= 2 * block_rows - 1 for rows in embedded)
        assert json.loads((tmp_path / "e.json").read_text())["detection"]

    def test_full_label_ratio_has_empty_detection(self, data_file, tmp_path):
        # every known sample is labeled: no in-distribution unlabeled scores
        ckpt, summary, out = (tmp_path / n for n in ("run.ockp", "s.json", "e.json"))
        argv = train_args(data_file, ["--checkpoint-out", str(ckpt),
                                      "--metrics", str(tmp_path / "m.jsonl"),
                                      "--summary", str(summary)])
        argv[argv.index("--label-ratio") + 1] = "1.0"
        assert main(argv) == 0
        assert json.loads(summary.read_text())["detection"] == {}
        rc = main(["eval", "--data", str(data_file), "--label-ratio", "1.0",
                   "--checkpoint", str(ckpt), "--seed", "2", "--out", str(out),
                   "--no-timestamps"])
        assert rc == 0
        assert json.loads(out.read_text())["detection"] == {}

    def test_eval_refuses_other_known_classes(self, data_file, tmp_path, capsys):
        # trained with 3 of 6 classes known; 0.3 and 0.8 make 1 and 4 known
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl")]))
        assert rc == 0
        capsys.readouterr()
        for known_frac, known in (("0.3", [0]), ("0.8", [0, 1, 2, 3])):
            out = tmp_path / f"eval-{known_frac}.json"
            rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                       "--known-frac", known_frac, "--seed", "2", "--out", str(out),
                       "--no-timestamps"])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.err == (f"error: the model's known prototype rows [0, 1, 2] "
                                    f"are not the split's known classes {known}\n")
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("eval_every", [[], ["--eval-every", "0"]])
    def test_resume_refuses_other_known_classes(self, eval_every, data_file, tmp_path,
                                                capsys, monkeypatch):
        # the epoch-4 checkpoint of a 6-epoch run with 3 of 6 classes known,
        # resumed on a split where 0.34 makes 2 known
        ckpt = tmp_path / "mid.ockp"
        split = make_split(ingest_features(data_file), 0.5, 0.5, Rng(2, "data"))
        config = TrainConfig(epochs=6, b_l=8, b_u=8, embed_dim=16, seed=2)
        train(config, split, checkpoint_path=ckpt, checkpoint_every=4)
        steps, step = [], trainer.train_step

        def counting_step(*args, **kwargs):
            steps.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_step", counting_step)
        outputs = [tmp_path / name for name in ("m.jsonl", "s.json", "out.ockp")]
        rc = main(train_args(data_file, [
            "--epochs", "6", "--known-frac", "0.34", "--resume", str(ckpt),
            "--metrics", str(outputs[0]), "--summary", str(outputs[1]),
            "--checkpoint-out", str(outputs[2]), "--checkpoint-every", "1", *eval_every]))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the model's known prototype rows [0, 1, 2] "
                                "are not the split's known classes [0, 1]\n")
        assert captured.out == ""
        assert steps == []
        assert not any(path.exists() for path in outputs)

    def test_class_ids_not_from_zero_is_runtime_error(self, data_file, tmp_path, capsys):
        ds = ingest_features(data_file)
        shifted = tmp_path / "shifted.csv"
        write_features(shifted, Dataset(ds.features, ds.labels + 1, ds.ids), fmt="csv")
        metrics = tmp_path / "m.jsonl"
        rc = main(train_args(shifted, ["--metrics", str(metrics)]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: class ids")
        assert not metrics.exists()

    def test_resume_with_early_stop_is_runtime_error(self, data_file, tmp_path, capsys):
        # a mid-run checkpoint (next epoch 2 of 4) of the run train_args describes
        ckpt = tmp_path / "mid.ockp"
        split = make_split(ingest_features(data_file), 0.5, 0.5, Rng(2, "data"))
        config = TrainConfig(epochs=4, b_l=8, b_u=8, embed_dim=16, seed=2)
        train(config, split, checkpoint_path=ckpt, checkpoint_every=2)
        rc = main(train_args(data_file, ["--epochs", "4", "--early-stop",
                                         "--resume", str(ckpt),
                                         "--metrics", str(tmp_path / "r.jsonl")]))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: early stopping")

    def test_unknown_config_key_fails_fast(self, data_file, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--no-timestamps"])
        assert rc == 1

    @pytest.mark.parametrize("key, raw", [
        ("b_l", "abc"), ("lr", "fast"), ("milestones", "0.5,x"), ("drop_n", "maybe"),
    ])
    def test_bad_config_value_names_file_line_and_key(self, key, raw, data_file, tmp_path,
                                                      capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# batch sizes\nb_u = 8\n{key} = {raw}\n")
        with pytest.raises(OpenConError, match=f"^{re.escape(str(cfg))}:3: .*'{key}'"):
            load_config_file(cfg)
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--no-timestamps"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: config key '{key}'")

    @pytest.mark.parametrize("raw", ["inf", "nan", "-0.5", "2.0"])
    def test_milestone_outside_unit_interval_is_runtime_error(self, raw, data_file,
                                                               tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"milestones = {raw}\n")
        metrics, summary = tmp_path / "m.jsonl", tmp_path / "s.json"
        rc = main(train_args(data_file, ["--config", str(cfg), "--metrics", str(metrics),
                                         "--summary", str(summary)]))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: milestones") and err.count("\n") == 1
        assert not metrics.exists() and not summary.exists()

    @pytest.mark.parametrize("extra", [
        ["--epochs", "4", "--lr", "1e-200", "--lr-decay", "1e200"],
        ["--epochs", "2", "--lr-decay", "1e308"],
    ], ids=["overflow-at-epoch-3", "two-milestones-on-epoch-1"])
    def test_lr_schedule_past_the_float_range_is_runtime_error(self, extra, data_file,
                                                               tmp_path, capsys):
        metrics, summary = tmp_path / "m.jsonl", tmp_path / "s.json"
        rc = main(train_args(data_file, [*extra, "--metrics", str(metrics),
                                         "--summary", str(summary)]))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr ") and err.count("\n") == 1
        assert "float range" in err
        assert not metrics.exists() and not summary.exists()

    @pytest.mark.parametrize("argv", [
        lambda data, cfg: train_args(data, ["--p", "150"]),
        lambda data, cfg: train_args(data, ["--lr", "-1"]),
        lambda data, cfg: train_args(data, ["--config", str(cfg)]),
        lambda data, cfg: ["estimate-k", "--data", str(data), "--range", "abc"],
        lambda data, cfg: train_args(data, ["--momentum", "nan"]),
        lambda data, cfg: train_args(data, ["--aug-sigma", "inf"]),
        lambda data, cfg: train_args(data, ["--weight-decay", "-1"]),
        lambda data, cfg: train_args(data, ["--lr-decay", "nan"]),
        lambda data, cfg: train_args(data, ["--aug-p-mask", "1.0"]),
        lambda data, cfg: train_args(data, ["--early-stop-tol", "inf"]),
        lambda data, cfg: train_args(data, ["--hidden-dim", "-3"]),
        lambda data, cfg: train_args(data, ["--embed-dim", "0"]),
        lambda data, cfg: ["gen-data", "--classes", "4", "--per-class", "-5", "--dim", "6",
                           "--kappa", "40", "--out", str(cfg.parent / "neg.ocft")],
        lambda data, cfg: ["verify", "--trials", "-3", "--no-timestamps"],
    ], ids=["p-out-of-range", "negative-lr", "config-not-an-int", "range-not-ints",
            "momentum-nan", "aug-sigma-inf", "negative-weight-decay", "lr-decay-nan",
            "aug-p-mask-one", "early-stop-tol-inf", "negative-hidden-dim", "zero-embed-dim",
            "negative-per-class", "negative-trials"])
    def test_bad_value_is_runtime_error(self, argv, data_file, tmp_path, capsys):
        # rejected before training: an error line and no metric line
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = abc\n")
        rc = main(argv(data_file, cfg))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "diagnostic" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    lambda data, tmp: ["gen-data", "--classes", "2", "--per-class", "3", "--dim", "4",
                       "--kappa", "10", "--out", str(tmp / "out.ocft"), "--seed", "-1"],
    lambda data, tmp: train_args(data, ["--seed", "-1", "--metrics", str(tmp / "out.jsonl")]),
    lambda data, tmp: ["train", "--data", str(data), "--config", str(tmp / "seed.cfg"),
                       "--metrics", str(tmp / "out.jsonl")],
    lambda data, tmp: ["eval", "--data", str(data), "--checkpoint", str(tmp / "none.ockp"),
                       "--out", str(tmp / "out.json"), "--seed", "-1"],
    lambda data, tmp: ["ablate", "--data", str(data), "--epochs", "1",
                       "--out", str(tmp / "out.json"), "--seed", "-1"],
    lambda data, tmp: ["estimate-k", "--data", str(data), "--range", "2:4",
                       "--out", str(tmp / "out.json"), "--seed", "-1"],
    lambda data, tmp: ["verify", "--trials", "1", "--out", str(tmp / "out.json"),
                       "--seed", "-1"],
], ids=["gen-data", "train", "train-config", "eval", "ablate", "estimate-k", "verify"])
def test_negative_seed_names_the_seed(argv, data_file, tmp_path, capsys):
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    rc = main([*argv(data_file, tmp_path), "--no-timestamps"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not any(path.name.startswith("out") for path in tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    lambda data, tmp: train_args(data, ["--metrics", str(tmp / "out.jsonl"),
                                        "--summary", str(tmp / "out.json")]),
    lambda data, tmp: ["ablate", "--data", str(data), "--epochs", "1",
                       "--out", str(tmp / "out.json")],
    lambda data, tmp: ["estimate-k", "--data", str(data), "--range", "2:4",
                       "--out", str(tmp / "out.json")],
], ids=["train", "ablate", "estimate-k"])
def test_zero_width_feature_file_is_refused(argv, tmp_path, capsys):
    # a binary file of 20 labeled rows with no feature column
    data = tmp_path / "wide0.ocft"
    data.write_bytes(b"OCFT" + struct.pack("<IIIB", 1, 20, 0, 1)
                     + np.arange(20, dtype="<i4").tobytes())
    rc = main([*argv(data, tmp_path), "--no-timestamps"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "m = 0" in err
    assert not any(path.name.startswith("out") for path in tmp_path.iterdir())


def test_eval_output_does_not_depend_on_blas_threads(tmp_path):
    """`opencon eval` of one checkpoint prints the same bytes with BLAS on
    one thread and on two. The per-block GEMMs are large enough to pass
    OpenBLAS's threading threshold, so at two threads each one is split
    between the threads. Training makes no such promise: its metric lines
    can differ in the last digits at two threads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(opencon.__file__).resolve().parent.parent)
    data, ckpt = str(tmp_path / "d.ocft"), str(tmp_path / "run.ockp")

    def cli(*argv, threads=1):
        done = subprocess.run(
            [sys.executable, "-m", "opencon.cli", *argv, "--no-timestamps"],
            env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
            capture_output=True, timeout=600)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    cli("gen-data", "--classes", "10", "--per-class", "100", "--dim", "32",
        "--kappa", "30", "--out", data)
    cli("train", "--data", data, "--epochs", "3", "--metrics", str(tmp_path / "m.jsonl"),
        "--summary", str(tmp_path / "s.json"), "--checkpoint-out", ckpt)
    one, two = (cli("eval", "--data", data, "--checkpoint", ckpt, threads=threads)
                for threads in (1, 2))
    assert json.loads(one)["detection"]
    assert one == two


# one argv per subcommand, touching its required, typed, boolean and choice flags
REPRESENTATIVE_ARGV = {
    "gen-data": ["--classes", "3", "--per-class", "5", "--dim", "4", "--kappa", "10",
                 "--out", "d.ocft"],
    "train": ["--data", "d.ocft", "--epochs", "3", "--lr", "0.1", "--no-warm-start",
              "--metrics", "m.jsonl", "--checkpoint-out", "c.ockp",
              "--checkpoint-every", "2"],
    "eval": ["--data", "d.ocft", "--checkpoint", "c.ockp", "--tau", "0.5", "--seed", "3"],
    "ablate": ["--data", "d.ocft", "--preset", "p-sweep", "--use-modified-loss"],
    "estimate-k": ["--data", "d.ocft", "--range", "2:5", "--out", "k.json"],
    "verify": ["--trials", "3", "--no-timestamps"],
}


class TestParser:
    def test_argv_table_covers_every_subcommand(self):
        assert set(REPRESENTATIVE_ARGV) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(REPRESENTATIVE_ARGV))
    def test_one_subcommand_parses_like_all(self, command):
        argv = [command, *REPRESENTATIVE_ARGV[command]]
        assert vars(make_parser(command).parse_args(argv)) == vars(make_parser().parse_args(argv))

    @pytest.mark.parametrize("command", sorted(REPRESENTATIVE_ARGV))
    def test_help_is_byte_equal(self, command, capsys):
        def help_text(parser, argv):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        for argv in (["--help"], [command, "--help"]):
            assert help_text(make_parser(command), argv) == help_text(make_parser(), argv)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus", "eval"], ["eval"],
                                      ["train", "--epochs", "x"]])
    def test_usage_errors_match_the_full_parser(self, argv, capsys):
        def usage_error(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 2
            return capsys.readouterr().err

        assert usage_error(main) == usage_error(make_parser().parse_args)

    def test_handlers_are_looked_up_when_the_parser_is_built(self, monkeypatch):
        # perfbench times each command by wrapping `cli.cmd_*` in place
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert main(["verify", "--trials", "0"]) == 7

    def test_eval_builds_no_train_flags(self, data_file, tmp_path, monkeypatch):
        ckpt = tmp_path / "run.ockp"
        rc = main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                         "--metrics", str(tmp_path / "m.jsonl"),
                                         "--summary", str(tmp_path / "s.json")]))
        assert rc == 0

        def refuse(parser):
            raise AssertionError("eval built the training flags")

        monkeypatch.setattr(cli, "_add_train_flags", refuse)
        rc = main(["eval", "--data", str(data_file), "--checkpoint", str(ckpt),
                   "--seed", "2", "--out", str(tmp_path / "e.json"), "--no-timestamps"])
        assert rc == 0

    def test_module_entry_point_reads_sys_argv(self):
        env = {**os.environ,
               "PYTHONPATH": str(Path(opencon.__file__).resolve().parent.parent)}
        done = subprocess.run([sys.executable, "-m", "opencon.cli", "eval", "--help"],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.startswith(b"usage: opencon eval")
        assert b"--checkpoint" in done.stdout


def test_eval_tau_defaults_to_the_training_tau_n():
    # a train summary's detection and eval's default detection use one tau
    args = make_parser("eval").parse_args(["eval", "--data", "d", "--checkpoint", "c"])
    assert args.tau == TrainConfig.tau_n


class TestAblateCmd:
    def test_p_sweep_rows(self, data_file, tmp_path):
        out = tmp_path / "ablate.json"
        rc = main(["ablate", "--data", str(data_file), "--preset", "p-sweep",
                   "--epochs", "2", "--b-l", "8", "--b-u", "8",
                   "--embed-dim", "16", "--seed", "2",
                   "--out", str(out), "--no-timestamps"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["variant"] for r in payload["rows"]] == [
            "p=0", "p=10", "p=30", "p=50", "p=70", "p=90"]

    def test_loss_components_rows(self, data_file, tmp_path):
        out = tmp_path / "ablate2.json"
        rc = main(["ablate", "--data", str(data_file),
                   "--preset", "loss-components", "--epochs", "2",
                   "--b-l", "8", "--b-u", "8", "--embed-dim", "16",
                   "--seed", "2", "--out", str(out), "--no-timestamps"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["variant"] for r in payload["rows"]] == [
            "full", "no_l", "no_u", "no_n"]

    def test_modified_loss_rows(self, data_file, tmp_path):
        rows = {}
        for preset in ("modified-loss", "loss-components"):
            out = tmp_path / f"{preset}.json"
            rc = main(["ablate", "--data", str(data_file), "--preset", preset,
                       "--epochs", "2", "--b-l", "8", "--b-u", "8", "--embed-dim", "16",
                       "--seed", "2", "--out", str(out), "--no-timestamps"])
            assert rc == 0
            rows[preset] = json.loads(out.read_text())["rows"]
        assert [r["variant"] for r in rows["modified-loss"]] == ["full", "modified"]
        assert rows["modified-loss"][0] == rows["loss-components"][0]


class TestEstimateK:
    def test_recovers_count_with_full_label_coverage(self, data_file, tmp_path):
        # labeled-subset validation discriminates K exactly when the labeled
        # pool spans the probed classes
        out = tmp_path / "k.json"
        rc = main(["estimate-k", "--data", str(data_file), "--range", "2:9",
                   "--known-frac", "1.0", "--label-ratio", "0.5",
                   "--seed", "0", "--out", str(out), "--no-timestamps"])
        assert rc == 0
        assert json.loads(out.read_text())["estimate"] == 6

    def test_open_world_estimate_in_range(self, data_file, tmp_path):
        # with only known classes labeled, purity ties are broken toward the
        # smallest candidate; the estimate must still be sane and deterministic
        out = tmp_path / "k2.json"
        args = ["estimate-k", "--data", str(data_file), "--range", "2:9",
                "--seed", "0", "--out", str(out), "--no-timestamps"]
        assert main(args) == 0
        first = json.loads(out.read_text())
        assert 2 <= first["estimate"] <= 9
        assert main(args) == 0
        assert json.loads(out.read_text()) == first

    @pytest.mark.parametrize("value", ["3", "abc", "5:2", "0:3", "2:1000"])
    def test_bad_range_names_the_flag(self, value, data_file, capsys):
        rc = main(["estimate-k", "--data", str(data_file), "--range", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --range") and repr(value) in err

    @pytest.mark.parametrize("embed", ["raw", "checkpoint"])
    def test_rejects_non_finite_features(self, embed, data_file, tmp_path, capsys):
        ds = ingest_features(data_file)
        features = ds.features.copy()
        features[50, 0], features[3, 2] = np.inf, np.nan
        bad, out = tmp_path / "bad.ocft", tmp_path / "k.json"
        write_features(bad, Dataset(features, ds.labels, ds.ids))
        args = ["estimate-k", "--data", str(bad), "--range", "2:8", "--out", str(out)]
        if embed == "checkpoint":
            ckpt = tmp_path / "run.ockp"
            assert main(train_args(data_file, ["--checkpoint-out", str(ckpt),
                                               "--metrics", str(tmp_path / "m.jsonl"),
                                               "--summary", str(tmp_path / "s.json")])) == 0
            args += ["--checkpoint", str(ckpt)]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any NumPy warning
            assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: cannot estimate k from non-finite feature row 3\n")
        assert not out.exists()


    def test_checkpoint_embeds_both_pools_in_blocks(self, tmp_path, monkeypatch):
        # 600 rows, labeled then unlabeled, embed in two blocks of 300 to the
        # bytes of one forward of both pools
        data = tmp_path / "d.ocft"
        assert main(["gen-data", "--classes", "6", "--per-class", "100", "--dim", "12",
                     "--kappa", "40", "--seed", "1", "--out", str(data),
                     "--no-timestamps"]) == 0
        ckpt = tmp_path / "run.ockp"
        assert main(train_args(data, ["--epochs", "1", "--checkpoint-out", str(ckpt),
                                      "--metrics", str(tmp_path / "m.jsonl"),
                                      "--summary", str(tmp_path / "s.json")])) == 0
        embedded, sizes = [], []
        estimate, forward = cli.estimate_class_number, trainer.forward
        monkeypatch.setattr(cli, "estimate_class_number",
                            lambda z, *rest: embedded.append(z) or estimate(z, *rest))
        monkeypatch.setattr(trainer, "forward",
                            lambda mlp, x: sizes.append(len(x)) or forward(mlp, x))
        assert main(["estimate-k", "--data", str(data), "--range", "2:4", "--seed", "2",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "k.json"),
                     "--no-timestamps"]) == 0
        assert sizes == [300, 300]
        split = make_split(ingest_features(data), 0.5, 0.5, Rng(2, "data"))
        want, _ = forward(trainer.checkpoint_load(ckpt).mlp, np.concatenate(
            [split.labeled_features(), split.unlabeled_features()]))
        assert embedded[0].tobytes() == want.tobytes()


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(["verify", "--trials", "3", "--seed", "0",
                   "--out", str(out), "--no-timestamps"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_zero_trials(self, tmp_path):
        rc = main(["verify", "--trials", "0", "--out", str(tmp_path / "v.json"),
                   "--no-timestamps"])
        assert rc == 0

    def test_perturb_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        failing = AlignmentIdentityReport(False, 1.0, (), ())
        monkeypatch.setattr(evaluation, "verify_alignment_identity",
                            lambda *args: failing)
        rc = main(["verify", "--trials", "1",
                   "--out", str(tmp_path / "v.json"), "--no-timestamps"])
        assert rc == 1
        assert "FAIL trial 0:" in capsys.readouterr().err
