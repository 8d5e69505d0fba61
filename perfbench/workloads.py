"""The benchmark's workloads: inputs made from a seed, one repetition each,
and the checks on every output.

Seeds: ``--seed n`` gives data seed n and run seed n + 1, so the default
seed 1 is the S1 benchmark that ``tests/test_acceptance.py`` freezes (data
seed 1, run seed 2, aug_sigma 0.3, aug_p_mask 0.2, b_l = b_u = 64, p = 70).
Epoch counts are shortened so that several repetitions fit in one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

DEFAULT_SEED = 1
S1_AUG_SIGMA = 0.3
S1_AUG_P_MASK = 0.2
S1_P = 70.0
KNOWN_FRAC = 0.5
LABEL_RATIO = 0.5
EVAL_REPEATS = 3   # the final evaluation is short; its time is a median


@dataclass(frozen=True)
class Scale:
    """Input sizes. `full` is what the benchmark measures; `toy` keeps the
    benchmark's own tests fast."""

    s1_classes: int
    s1_per_class: int
    s1_dim: int
    s1_kappa: float
    batch: int
    cli_epochs: int
    checkpoint_every: int
    sweep_epochs: int
    s2_classes: int
    s2_per_class: int
    s2_dim: int
    s2_kappa: float
    s2_epochs: int


SCALES = {
    "full": Scale(s1_classes=10, s1_per_class=500, s1_dim=32, s1_kappa=30.0,
                  batch=64, cli_epochs=6, checkpoint_every=2, sweep_epochs=2,
                  s2_classes=100, s2_per_class=100, s2_dim=128, s2_kappa=120.0,
                  s2_epochs=4),
    "toy": Scale(s1_classes=4, s1_per_class=40, s1_dim=8, s1_kappa=30.0,
                 batch=16, cli_epochs=2, checkpoint_every=1, sweep_epochs=1,
                 s2_classes=6, s2_per_class=30, s2_dim=16, s2_kappa=30.0,
                 s2_epochs=2),
}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def iterations_per_epoch(classes: int, per_class: int, batch: int) -> int:
    """Training iterations per epoch on a KNOWN_FRAC / LABEL_RATIO split of a
    class-balanced dataset: one per unlabeled batch (``make_split`` labels
    floor(ratio * count) samples of each of the floor(frac * C) known
    classes)."""
    labeled = math.floor(KNOWN_FRAC * classes) * math.floor(LABEL_RATIO * per_class)
    return -(-(classes * per_class - labeled) // batch)


def digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


@dataclass
class Rep:
    """What one repetition of a workload measured and found."""

    setup_s: float = 0.0
    train_s: float = 0.0
    train_cpu_s: float = 0.0
    iterations: int = 0          # of the timed training calls
    untimed_iterations: int = 0  # of trainings outside them
    eval_s: float = 0.0
    digest: str = ""
    acc: tuple[float, float, float] = (math.nan, math.nan, math.nan)
    auroc: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # see hostspeed.py
    host_factor: float = 1.0     # set by the caller from kernel_s and its own

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def iters_per_s(self) -> float:
        """Training throughput at nominal host speed."""
        return self.iterations * self.host_factor / self.train_s

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def call(self, label: str, fn, ops: int = 1):
        """Run one operation (or `ops` of them, counted together); return its
        result, or None after recording the failure. An exception or a
        non-zero exit code fails every operation in the call."""
        self.attempted += ops
        try:
            result = fn()
        except Exception:  # the benchmark keeps running and reports the failure
            self.failed += ops
            self.problems.append(f"{label} raised:\n{traceback.format_exc()}")
            return None
        if isinstance(result, int) and result != 0:
            self.failed += ops
            self.problems.append(f"{label} exited with code {result}")
            return None
        return result

    def check(self, passed: bool, message: str) -> None:
        if not passed:
            self.problems.append(message)

    def check_losses(self, reports: list[dict]) -> None:
        bad = [r["epoch"] for r in reports
               if not isinstance(r["loss_total"], float) or not math.isfinite(r["loss_total"])]
        if bad:
            self.fail(f"non-finite loss at epochs {bad}")


class Context:
    """Everything a repetition needs: the opencon modules, the seed, the
    scale, a scratch directory inside the checkout, the host-speed kernel
    and an optional tracer."""

    def __init__(self, mods: dict, seed: int, scale: Scale, workdir: Path,
                 kernel: hostspeed.Kernel, tracer=None):
        self.mods = mods
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.kernel = kernel
        self.tracer = tracer

    @property
    def data_seed(self) -> int:
        return self.seed

    @property
    def run_seed(self) -> int:
        return self.seed + 1

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def s1_config(self, epochs: int, **overrides):
        base = dict(epochs=epochs, b_l=self.scale.batch, b_u=self.scale.batch,
                    seed=self.run_seed, aug_sigma=S1_AUG_SIGMA,
                    aug_p_mask=S1_AUG_P_MASK, p=S1_P)
        base.update(overrides)
        return self.mods["trainer"].TrainConfig(**base)

    def s1_split(self):
        """The S1 split exactly as the acceptance fixture builds it."""
        core, data, sc = self.mods["core"], self.mods["data"], self.scale
        with self.span("data.generate"):
            rng = core.Rng(self.data_seed, "data")
            dataset = data.generate_synthetic(sc.s1_classes, sc.s1_per_class,
                                              sc.s1_dim, sc.s1_kappa, rng)
        with self.span("data.split"):
            return data.make_split(dataset, KNOWN_FRAC, LABEL_RATIO, rng)


def _repeated_evaluation(rep: Rep, label: str, evaluate):
    """Run an evaluation EVAL_REPEATS times; set `rep.eval_s` to the median
    time and return the result, which every repeat must reproduce."""
    times, results = [], []
    for _ in range(EVAL_REPEATS):
        t0 = perf_counter()
        out = rep.call(label, evaluate)
        times.append(perf_counter() - t0)
        if out is None:
            return None
        results.append(out)
    rep.eval_s = statistics.median(times)
    rep.check(all(out == results[0] for out in results), f"repeated {label} disagrees")
    return results[0]


def _final_evaluation(ctx: Context, rep: Rep, result, split, tau: float) -> None:
    """evaluate_model plus detection_report on a trained model; the accuracy
    must equal the one its last epoch reported."""
    trainer = ctx.mods["trainer"]

    def evaluate():
        with ctx.span("bench.final_eval"):
            triple, _ = trainer.evaluate_model(result.mlp, result.store, split)
            detection = trainer.detection_report(result.mlp, result.store, split, tau)
        return triple, detection

    out = _repeated_evaluation(rep, "evaluation", evaluate)
    if out is None:
        return
    triple, detection = out
    rep.acc = (triple.all, triple.novel, triple.seen)
    rep.auroc = detection["max_cosine"].auroc
    final = result.final
    rep.check(rep.acc == (final.acc_all, final.acc_novel, final.acc_seen),
              f"final evaluation {rep.acc} differs from the last epoch report")


# ---------------------------------------------------------------------------
# s1-cli: gen-data, train, eval through opencon.cli.main
# ---------------------------------------------------------------------------

def run_s1_cli(ctx: Context) -> Rep:
    sc, cli, rep = ctx.scale, ctx.mods["cli"], Rep()
    work = ctx.workdir
    data, metrics, summary, model, evaluation = (
        str(work / name) for name in
        ("s1.ocft", "metrics.jsonl", "summary.json", "model.ockp", "eval.json"))
    split_flags = ["--data", data, "--known-frac", str(KNOWN_FRAC),
                   "--label-ratio", str(LABEL_RATIO)]

    t0 = perf_counter()
    code = rep.call("gen-data", lambda: cli.main([
        "gen-data", "--seed", str(ctx.data_seed), "--classes", str(sc.s1_classes),
        "--per-class", str(sc.s1_per_class), "--dim", str(sc.s1_dim),
        "--kappa", str(sc.s1_kappa), "--out", data, "--no-timestamps"]))
    rep.setup_s = perf_counter() - t0
    if code is None:
        return rep

    cpu0, t0 = cpu_seconds(), perf_counter()
    code = rep.call("train", lambda: cli.main([
        "train", "--seed", str(ctx.run_seed), *split_flags,
        "--epochs", str(sc.cli_epochs), "--b-l", str(sc.batch), "--b-u", str(sc.batch),
        "--p", str(S1_P), "--aug-sigma", str(S1_AUG_SIGMA),
        "--aug-p-mask", str(S1_AUG_P_MASK), "--metrics", metrics,
        "--summary", summary, "--checkpoint-out", model,
        "--checkpoint-every", str(sc.checkpoint_every), "--no-timestamps"]))
    rep.train_s = perf_counter() - t0
    rep.train_cpu_s = cpu_seconds() - cpu0
    if code is None:
        return rep

    def evaluate():
        code = cli.main(["eval", "--seed", str(ctx.run_seed), *split_flags,
                         "--checkpoint", model, "--out", evaluation, "--no-timestamps"])
        return code or Path(evaluation).read_text(encoding="utf-8")

    evaluated = _repeated_evaluation(rep, "eval", evaluate)
    if evaluated is None:
        return rep

    lines = Path(metrics).read_text(encoding="utf-8").splitlines()
    reports = [json.loads(line) for line in lines]
    rep.digest = digest_lines(lines)
    rep.check_losses(reports)
    rep.iterations = len(reports) * iterations_per_epoch(sc.s1_classes, sc.s1_per_class,
                                                          sc.batch)
    trained = json.loads(Path(summary).read_text(encoding="utf-8"))
    evaluated = json.loads(evaluated)
    rep.check(len(reports) == sc.cli_epochs == trained["epochs_run"],
              f"{len(reports)} metric lines for {sc.cli_epochs} epochs")
    rep.check(evaluated["accuracy"] == trained["accuracy"],
              "eval of the checkpoint disagrees with the training summary: "
              f"{evaluated['accuracy']} vs {trained['accuracy']}")
    rep.check(evaluated["detection"] == trained["detection"],
              "detection scores of the checkpoint disagree with the training summary")
    acc = evaluated["accuracy"]
    rep.acc = (acc["all"], acc["novel"], acc["seen"])
    rep.auroc = evaluated["detection"]["max_cosine"]["auroc"]
    return rep


# ---------------------------------------------------------------------------
# s2-wide: K = 100, d = 128 through train(), evaluated every epoch
# ---------------------------------------------------------------------------

def run_s2_wide(ctx: Context) -> Rep:
    sc, rep = ctx.scale, Rep()
    core, data, trainer = ctx.mods["core"], ctx.mods["data"], ctx.mods["trainer"]

    t0 = perf_counter()
    with ctx.span("data.generate"):
        rng = core.Rng(ctx.data_seed, "data")
        dataset = data.generate_synthetic(sc.s2_classes, sc.s2_per_class, sc.s2_dim,
                                          sc.s2_kappa, rng)
    with ctx.span("data.split"):
        split = data.make_split(dataset, KNOWN_FRAC, LABEL_RATIO, rng)
    rep.setup_s = perf_counter() - t0

    config = ctx.s1_config(sc.s2_epochs, eval_every=1)
    cpu0, t0 = cpu_seconds(), perf_counter()
    result = rep.call("train", lambda: trainer.train(config, split))
    rep.train_s = perf_counter() - t0
    rep.train_cpu_s = cpu_seconds() - cpu0
    if result is None:
        return rep

    reports = [r.as_dict() for r in result.reports]
    rep.digest = digest_lines([json.dumps(r, sort_keys=True) for r in reports])
    rep.check_losses(reports)
    rep.check(len(reports) == sc.s2_epochs, f"{len(reports)} epochs for {sc.s2_epochs}")
    rep.iterations = len(reports) * iterations_per_epoch(sc.s2_classes, sc.s2_per_class,
                                                          sc.batch)
    _final_evaluation(ctx, rep, result, split, config.tau_n)
    return rep


# ---------------------------------------------------------------------------
# s1-sweep: ablate() over the gate percentile p on the S1 split
# ---------------------------------------------------------------------------

def run_s1_sweep(ctx: Context) -> Rep:
    sc, rep, trainer = ctx.scale, Rep(), ctx.mods["trainer"]

    t0 = perf_counter()
    split = ctx.s1_split()
    rep.setup_s = perf_counter() - t0

    config = ctx.s1_config(sc.sweep_epochs, eval_every=sc.sweep_epochs)
    variants = [(f"p={value}", {"p": float(value)}) for value in trainer.P_SWEEP_VALUES]
    kernel_cpu_s = 0.0

    def calibrated_variants():
        # One host-speed sample before each variant's training; its time is
        # taken back out of the sweep's wall and CPU time below.
        nonlocal kernel_cpu_s
        for variant in variants:
            cpu = cpu_seconds()
            rep.kernel_s.append(ctx.kernel.seconds())
            kernel_cpu_s += cpu_seconds() - cpu
            yield variant

    def sweep():
        with ctx.span("bench.ablate"):
            return trainer.ablate(config, split, calibrated_variants())

    cpu0, t0 = cpu_seconds(), perf_counter()
    rows = rep.call("ablate", sweep, ops=len(variants))
    rep.train_s = perf_counter() - t0 - sum(rep.kernel_s)
    rep.train_cpu_s = cpu_seconds() - cpu0 - kernel_cpu_s
    if rows is None:
        return rep

    rep.digest = digest_lines([json.dumps(row, sort_keys=True) for row in rows])
    rep.check([row["variant"] for row in rows] == [name for name, _ in variants],
              "ablate returned rows out of variant order")
    bad = [row["variant"] for row in rows
           if not isinstance(row["loss_total"], float) or not math.isfinite(row["loss_total"])]
    if bad:
        rep.fail(f"non-finite loss in variants {bad}")
    per_training = sc.sweep_epochs * iterations_per_epoch(sc.s1_classes, sc.s1_per_class,
                                                          sc.batch)
    rep.iterations = len(rows) * per_training

    # The reference (p = 70) model is trained again, outside the timed sweep,
    # for the final evaluation; it must reproduce the sweep's p = 70 row.
    reference_config = trainer.variant_config(config, {"p": S1_P})

    def reference():
        with ctx.span("bench.reference"):
            return trainer.train(reference_config, split)

    result = rep.call("reference training", reference)
    if result is None:
        return rep
    rep.untimed_iterations = per_training
    row = rows[[name for name, _ in variants].index(f"p={int(S1_P)}")]
    final = result.final
    rep.check((row["acc_all"], row["acc_novel"], row["acc_seen"])
              == (final.acc_all, final.acc_novel, final.acc_seen),
              "retraining the p = 70 variant did not reproduce its sweep row")
    _final_evaluation(ctx, rep, result, split, config.tau_n)
    return rep


WORKLOADS = {
    "s1-cli": run_s1_cli,
    "s2-wide": run_s2_wide,
    "s1-sweep": run_s1_sweep,
}
