"""Span tracing of opencon's layers, installed from outside the package.

A :class:`Tracer` replaces public names that opencon looks up at call time
(module globals such as ``opencon.trainer.forward``, plus the methods
``BatchSampler.epoch`` and ``Optimizer.step``) with thin wrappers. Each
wrapped call becomes a span ``[name, start, end, parent]`` kept in memory;
a few wrappers also add to named counters. ``uninstall`` puts every
original back, and ``wrapped_names`` lists any attribute still wrapped.

Nothing here changes arguments or results, so a traced run must emit the
same metric lines as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.iter_ms: list[float] = []       # one sample per sampler yield
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else NO_PARENT]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)

    # -- wrappers ------------------------------------------------------------

    def timed(self, fn, name: str, after=None):
        """Wrap `fn` so each call is a span; `after(counts, args, result)`
        may add to counters once the call returns."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def counted(self, fn, key: str):
        """Wrap `fn` so each call adds one to `counts[key]`, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    def sampler_epoch(self, epoch):
        """Wrap the ``BatchSampler.epoch`` generator: each ``next`` is a
        ``data.sample`` span, and the gaps between yields are the iteration
        times (the last one ends when the exhausted sampler is asked again)."""
        counts = self.counts

        @functools.wraps(epoch)
        def wrapper(sampler):
            gen = epoch(sampler)
            marks: list[float] = []
            try:
                while True:
                    rec = self.open("data.sample")
                    try:
                        pair = next(gen)
                    except StopIteration:
                        marks.append(rec[1])
                        return
                    finally:
                        self.close(rec)
                    marks.append(rec[2])
                    counts["trainer.iterations"] += 1
                    counts["data.views"] += pair[0].n_views + pair[1].n_views
                    yield pair
            finally:
                gen.close()
                self.iter_ms.extend(1e3 * (b - a) for a, b in zip(marks, marks[1:]))

        wrapper.perfbench_wrapper = True
        return wrapper

    def install(self, target, attr: str, wrapper) -> None:
        self._installed.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    @contextlib.contextmanager
    def installed(self, opencon_modules):
        instrument(self, opencon_modules)
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _count_rows(counts, args, result):
    counts["encoder.forward_rows"] += len(args[1])


def _count_ema(counts, args, result):
    counts["prototype.ema_updates"] += len(args[1]) + len(args[3])


def _count_gate(counts, args, result):
    counts["prototype.gated_views"] += result.novel_view_ids.size
    counts["prototype.unlabeled_views"] += len(args[0])


def _count_novel_anchors(counts, args, result):
    counts["objective.novel_anchors"] += result[2]


def _count_hungarian(counts, args, result):
    counts["evaluation.hungarian_calls"] += 1


def _count_checkpoint(counts, args, result):
    counts["trainer.checkpoint_bytes"] += os.path.getsize(args[0])


# (module key, attribute, span name, counter hook). Only names that opencon
# resolves through a module global at call time are listed, so replacing
# the global reaches every caller in that module.
TIMED = (
    ("trainer", "train", "trainer.train", None),
    ("trainer", "evaluate_model", "trainer.evaluate", None),
    ("trainer", "checkpoint_save", "trainer.checkpoint", _count_checkpoint),
    ("trainer", "forward", "encoder.forward", _count_rows),
    ("trainer", "backward", "encoder.backward", None),
    ("trainer", "loss_opencon", "objective.loss", None),
    ("trainer", "loss_modified", "objective.loss", None),
    ("trainer", "update_prototypes", "prototype.ema", _count_ema),
    ("trainer", "calibrate_threshold", "prototype.calibrate", None),
    ("trainer", "ood_gate", "prototype.gate", _count_gate),
    ("trainer", "pseudo_labels", "prototype.pseudo_label", None),
    ("trainer", "warm_start_known", "prototype.warm_start", None),
    ("trainer", "ood_scores", "prototype.detection", None),
    ("trainer", "detection_metrics", "prototype.detection", None),
    ("trainer", "accuracy_triple", "evaluation.accuracy", None),
    ("objective", "loss_supcon", "objective.supcon", None),
    ("objective", "loss_simclr", "objective.simclr", None),
    ("objective", "loss_novel", "objective.novel", _count_novel_anchors),
    ("objective", "kl_regularizer", "objective.kl", None),
    ("evaluation", "hungarian", "evaluation.hungarian", _count_hungarian),
    ("cli", "cmd_gen_data", "cli.gen_data", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "train", "trainer.train", None),
    ("cli", "checkpoint_save", "trainer.checkpoint", _count_checkpoint),
    ("cli", "generate_synthetic", "data.generate", None),
    ("cli", "write_features", "data.io", None),
    ("cli", "ingest_features", "data.io", None),
)

COUNTED = (
    ("evaluation", "linear_sum_assignment", "evaluation.lsa_solves"),
    ("prototype", "l2_normalize", "core.l2_normalize_calls"),
)


def instrument(tracer: Tracer, mods: dict) -> None:
    """Install every wrapper. `mods` maps 'trainer', 'objective',
    'evaluation', 'prototype', 'cli', 'data' and 'encoder' to the imported
    opencon modules."""
    for key, attr, name, after in TIMED:
        target = mods[key]
        tracer.install(target, attr, tracer.timed(vars(target)[attr], name, after))
    for key, attr, counter in COUNTED:
        target = mods[key]
        tracer.install(target, attr, tracer.counted(vars(target)[attr], counter))
    sampler = mods["data"].BatchSampler
    tracer.install(sampler, "epoch", tracer.sampler_epoch(vars(sampler)["epoch"]))
    optimizer = mods["encoder"].Optimizer
    tracer.install(optimizer, "step",
                   tracer.timed(vars(optimizer)["step"], "encoder.step"))


def wrapped_names(mods: dict) -> list[str]:
    """Instrumented attributes that currently hold a tracing wrapper; after
    ``uninstall`` any entry is a leak."""
    leaked = []
    checks = [(mods[k], a) for k, a, _, _ in TIMED] + [(mods[k], a) for k, a, _ in COUNTED]
    checks += [(mods["data"].BatchSampler, "epoch"), (mods["encoder"].Optimizer, "step")]
    for target, attr in checks:
        fn = vars(target)[attr]
        if getattr(fn, "perfbench_wrapper", False):
            leaked.append(f"{getattr(target, '__name__', target)}.{attr}")
    return leaked


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of its interval that the union
    of its direct children covers."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced repetition. Times are in seconds."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    under: dict[tuple[str, str], list[float]] = defaultdict(list)
    for (name, start, end, parent), s in zip(spans, selfs):
        total[name] += end - start
        own[name] += s
        parent_name = spans[parent][0] if parent != NO_PARENT else ""
        under[(name, parent_name)].append(end - start)
    c = tracer.counts
    train_s = total["trainer.train"]
    variants = under[("trainer.train", "bench.ablate")]
    hungarian_calls = c["evaluation.hungarian_calls"]
    unlabeled = c["prototype.unlabeled_views"]
    return {
        "data.sample_s": total["data.sample"],
        "data.views": c["data.views"],
        "data.generate_s": total["data.generate"],
        "data.io_s": total["data.io"],
        "encoder.forward_s": total["encoder.forward"],
        "encoder.forward_rows": c["encoder.forward_rows"],
        "encoder.backward_s": total["encoder.backward"],
        "encoder.step_s": total["encoder.step"],
        "objective.loss_s": total["objective.loss"],
        "objective.loss_share": total["objective.loss"] / train_s if train_s else 0.0,
        "objective.assemble_s": own["objective.loss"],
        "objective.supcon_s": total["objective.supcon"],
        "objective.simclr_s": total["objective.simclr"],
        "objective.novel_s": total["objective.novel"],
        "objective.kl_s": total["objective.kl"],
        "objective.novel_anchors": c["objective.novel_anchors"],
        "prototype.ema_s": total["prototype.ema"],
        "prototype.ema_share": total["prototype.ema"] / train_s if train_s else 0.0,
        "prototype.ema_updates": c["prototype.ema_updates"],
        "prototype.gated_ratio": c["prototype.gated_views"] / unlabeled if unlabeled else 0.0,
        "prototype.calibrate_s": total["prototype.calibrate"],
        "prototype.gate_s": total["prototype.gate"],
        "prototype.pseudo_label_s": total["prototype.pseudo_label"],
        "prototype.warm_start_s": total["prototype.warm_start"],
        "prototype.detection_s": total["prototype.detection"],
        "evaluation.accuracy_s": total["evaluation.accuracy"],
        "evaluation.hungarian_s": total["evaluation.hungarian"],
        "evaluation.hungarian_calls": hungarian_calls,
        "evaluation.lsa_solves": c["evaluation.lsa_solves"],
        "evaluation.lsa_per_hungarian": (c["evaluation.lsa_solves"] / hungarian_calls
                                         if hungarian_calls else 0.0),
        "trainer.train_s": train_s,
        "trainer.iterations": c["trainer.iterations"],
        "trainer.self_s": own["trainer.train"],
        "trainer.evaluate_s": sum(under[("trainer.evaluate", "trainer.train")]),
        "trainer.checkpoint_s": total["trainer.checkpoint"],
        "trainer.checkpoint_bytes": c["trainer.checkpoint_bytes"],
        "trainer.variant_imbalance": (max(variants) / statistics.fmean(variants)
                                      if variants else 1.0),
        "cli.gen_data_s": total["cli.gen_data"],
        "cli.train_s": total["cli.train"],
        "cli.eval_s": total["cli.eval"],
        "cli.train_self_s": total["cli.train"] - sum(under[("trainer.train", "cli.train")]),
        "core.l2_normalize_calls": c["core.l2_normalize_calls"],
        "trace.spans": float(len(spans)),
    }


def iteration_percentiles(samples: list[float]) -> dict[str, float]:
    return {
        "trainer.iter_ms.p50": _percentile(samples, 0.50),
        "trainer.iter_ms.p99": _percentile(samples, 0.99),
        "trainer.iter_samples": float(len(samples)),
    }
