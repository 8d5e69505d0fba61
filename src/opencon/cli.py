"""Command-line front end.

Subcommands: gen-data | train | eval | ablate | estimate-k | verify.
JSON on stdout (or --out) is the stable machine contract; human-readable
tables go to stderr. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

# One BLAS/OpenMP thread unless the environment sets a count: on a few cores
# more threads only add CPU time. This must run before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from opencon.core import OpenConError, Rng, l2_normalize  # noqa: E402
from opencon.data import (  # noqa: E402
    generate_synthetic,
    ingest_features,
    make_split,
    open_atomic,
    write_features,
)
from opencon.evaluation import (  # noqa: E402
    converged_cluster_count,
    estimate_class_number,
    run_verification_suite,
)
from opencon.trainer import (  # noqa: E402
    ABLATION_PRESETS,
    TrainConfig,
    _embed_rows,
    _evaluate,
    ablate,
    checkpoint_load,
    checkpoint_save,
    detection_report,
    json_clean,
    train,
)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(name: str, raw: str):
    if name not in _CONFIG_FIELDS:
        raise OpenConError(f"unknown config key {name!r}")
    default = _CONFIG_FIELDS[name].default
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise OpenConError(f"config key {name!r} expects a boolean, got {raw!r}")
    try:
        if isinstance(default, tuple):
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return type(default)(raw)
    except ValueError:
        raise OpenConError(f"config key {name!r} expects {type(default).__name__}, "
                           f"got {raw!r}") from None


def load_config_file(path) -> dict:
    """Flat `key = value` lines; keys are TrainConfig field names. `#` starts
    a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OpenConError(f"{path}:{lineno}: expected `key = value`")
            key, raw = (part.strip() for part in line.split("=", 1))
            try:
                out[key] = _coerce(key, raw)
            except OpenConError as exc:
                raise OpenConError(f"{path}:{lineno}: {exc}") from None
    return out


def build_train_config(args) -> TrainConfig:
    """Precedence: explicit flags > config file > defaults."""
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            settings[name] = flag
    return TrainConfig(**settings)


def _emit_json(payload: dict, out_path, no_timestamps: bool) -> None:
    if not no_timestamps:
        payload = dict(payload)
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _emit_text(text: str, out_path) -> None:
    """Write `text` to `out_path` atomically, or to stdout without a path."""
    if out_path:
        with open_atomic(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [header, "  ".join("-" * widths[c] for c in columns)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def _load_split(args, seed: int):
    """The split drawn with `seed`: the resolved `TrainConfig.seed` for the
    commands that train, the --seed flag for the others."""
    dataset = ingest_features(args.data)
    return make_split(dataset, args.known_frac, args.label_ratio, Rng(seed, "data"))


def cmd_gen_data(args) -> int:
    rng = Rng(args.seed, "data")
    dataset = generate_synthetic(args.classes, args.per_class, args.dim,
                                 args.kappa, rng,
                                 max_mean_cosine=args.max_mean_cosine)
    if dataset.n == 0:
        print("warning: wrote an empty dataset", file=sys.stderr)
    write_features(args.out, dataset, fmt="binary")
    sidecar = {
        "classes": args.classes,
        "per_class": args.per_class,
        "dim": args.dim,
        "kappa": args.kappa,
        "seed": args.seed,
        "max_mean_cosine": args.max_mean_cosine,
        "n_samples": dataset.n,
        "path": str(args.out),
    }
    _emit_json(sidecar, str(args.out) + ".json", args.no_timestamps)
    print(f"wrote {dataset.n} samples to {args.out}", file=sys.stderr)
    return 0


def _detection_json(report: dict) -> dict:
    return {variant: {"auroc": m.auroc, "fpr95": m.fpr95}
            for variant, m in report.items()}


def cmd_train(args) -> int:
    config = build_train_config(args)
    split = _load_split(args, config.seed)
    start_state = checkpoint_load(args.resume) if args.resume else None

    result = train(config, split, start_state=start_state,
                   checkpoint_path=args.checkpoint_out,
                   checkpoint_every=args.checkpoint_every)
    _emit_text("".join(json.dumps(report.as_dict(), sort_keys=True) + "\n"
                       for report in result.reports), args.metrics)

    if args.checkpoint_out:
        checkpoint_save(args.checkpoint_out, result.final_state)

    final = result.final
    summary = {
        "config": dataclasses.asdict(config),
        "epochs_run": len(result.reports),
        "accuracy": {"all": final.acc_all, "novel": final.acc_novel,
                     "seen": final.acc_seen},
        "converged_prototypes": final.active_prototypes,
        "final_loss": final.loss_total,
        "detection": _detection_json(
            detection_report(result.mlp, result.store, split, config.tau_n)),
    }
    _emit_json(summary, args.summary, args.no_timestamps)
    print(f"final accuracy all/novel/seen = "
          f"{_fmt(final.acc_all)}/{_fmt(final.acc_novel)}/{_fmt(final.acc_seen)}",
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    split = _load_split(args, args.seed)
    state = checkpoint_load(args.checkpoint)
    triple, _, detection = _evaluate(state.mlp, state.store, split, True, args.tau)
    payload = {
        "accuracy": dataclasses.asdict(triple),
        "converged_prototypes": converged_cluster_count(state.store),
        "detection": _detection_json(detection),
    }
    _emit_json(payload, args.out, args.no_timestamps)
    return 0


def cmd_ablate(args) -> int:
    config = build_train_config(args)
    split = _load_split(args, config.seed)
    rows = ablate(config, split, ABLATION_PRESETS[args.preset])
    payload = {"preset": args.preset, "rows": rows,
               "config": dataclasses.asdict(config)}
    _emit_json(payload, args.out, args.no_timestamps)
    print(_table(rows, ["variant", "acc_all", "acc_novel", "acc_seen"]),
          file=sys.stderr)
    return 0


def cmd_estimate_k(args) -> int:
    lo, _, hi = args.range.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and 1 <= int(lo) <= int(hi)):
        raise OpenConError(f"--range expects LO:HI with 1 <= LO <= HI, got {args.range!r}")
    split = _load_split(args, args.seed)
    if int(hi) > (n_rows := split.n_labeled + split.n_unlabeled):
        raise OpenConError(f"--range {args.range!r} exceeds the {n_rows} rows of the data")
    if not (finite := np.isfinite(split.features).all(axis=1)).all():
        raise OpenConError(f"cannot estimate k from non-finite feature row {finite.argmin()}")
    candidates = range(int(lo), int(hi) + 1)
    rows = np.concatenate([split.labeled_idx, split.unlabeled_idx])
    labeled_mask = np.concatenate([
        np.ones(split.n_labeled, bool), np.zeros(split.n_unlabeled, bool)])
    labels = split.labels[rows]
    if args.checkpoint:
        embeddings = _embed_rows(checkpoint_load(args.checkpoint).mlp, split.features, rows)
    else:
        embeddings = l2_normalize(split.features[rows])
    rng = Rng(args.seed, "theory")
    estimate = estimate_class_number(embeddings, labeled_mask, labels,
                                     candidates, rng)
    _emit_json({"estimate": estimate,
                "range": [int(lo), int(hi)]}, args.out, args.no_timestamps)
    print(f"estimated class count: {estimate}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    summary = run_verification_suite(args.trials, args.seed)
    _emit_json({"trials": summary.trials, "passed": summary.passed,
                "failures": list(summary.failures)}, args.out, args.no_timestamps)
    for failure in summary.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if summary.trials and summary.passed:
        print(f"all {summary.trials} verification trials passed", file=sys.stderr)
    return 0 if summary.passed else 1


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="feature file (binary or csv)")
    p.add_argument("--known-frac", type=float, default=0.5)
    p.add_argument("--label-ratio", type=float, default=0.5)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for name, f in _CONFIG_FIELDS.items():
        if name in ("seed", "milestones"):
            continue
        flag = "--" + name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, dest=name, action="store_true", default=None)
            p.add_argument("--no-" + name.replace("_", "-"), dest=name,
                           action="store_false", default=None)
        else:
            p.add_argument(flag, dest=name, type=type(f.default), default=None)


# subcommand -> its help line
_COMMANDS = {
    "gen-data": "write a synthetic feature file",
    "train": "run the training loop",
    "eval": "evaluate a checkpoint on a split",
    "ablate": "train and compare variants",
    "estimate-k": "estimate the class count",
    "verify": "run the numerical verification suite",
}


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `opencon` parser. Every subcommand is registered with its help, but
    only `command` gets its flags (all of them get theirs when it is None)."""
    parser = argparse.ArgumentParser(
        prog="opencon",
        description="open-world contrastive learning: data generation, "
                    "training, evaluation, ablations, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func):
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.set_defaults(func=func)
        return p if command in (None, name) else None

    def common(p, with_out=True, seed=0):
        p.add_argument("--seed", type=int, default=seed)
        if with_out:
            p.add_argument("--out", default=None,
                           help="write JSON here instead of stdout")
        p.add_argument("--no-timestamps", action="store_true")

    if p := add("gen-data", cmd_gen_data):
        common(p, with_out=False)
        p.add_argument("--classes", type=int, required=True)
        p.add_argument("--per-class", type=int, required=True)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--kappa", type=float, required=True)
        p.add_argument("--max-mean-cosine", type=float, default=0.5)
        p.add_argument("--out", required=True, help="output feature file")

    if p := add("train", cmd_train):
        common(p, seed=None)  # None lets a config-file seed apply
        _add_split_flags(p)
        _add_train_flags(p)
        p.add_argument("--metrics", help="epoch metrics JSON-lines file (default stdout)")
        p.add_argument("--summary", help="final summary JSON file (default stdout)")
        p.add_argument("--checkpoint-out")
        p.add_argument("--checkpoint-every", type=int, default=None)
        p.add_argument("--resume")

    if p := add("eval", cmd_eval):
        common(p)
        _add_split_flags(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--tau", type=float, default=TrainConfig.tau_n,
                       help="temperature for msp/energy detection scores")

    if p := add("ablate", cmd_ablate):
        common(p, seed=None)
        _add_split_flags(p)
        _add_train_flags(p)
        p.add_argument("--preset", choices=tuple(ABLATION_PRESETS),
                       default="loss-components")

    if p := add("estimate-k", cmd_estimate_k):
        common(p)
        _add_split_flags(p)
        p.add_argument("--range", required=True, help="candidate range, e.g. 2:20")
        p.add_argument("--checkpoint",
                       help="embed with this encoder (default: raw features)")

    if p := add("verify", cmd_verify):
        common(p)
        p.add_argument("--trials", type=int, default=100)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # flags only for the subcommand named first, when one is
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = make_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (OpenConError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        state = getattr(exc, "state", None)
        if state is not None:
            diagnostic = json.dumps(json_clean(state), sort_keys=True, allow_nan=False)
            print(f"diagnostic: {diagnostic}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
