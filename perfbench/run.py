"""Benchmark entry point.

    python3 perfbench/run.py --workload s1-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: opencon is imported from ``src/`` next to
this directory. One process repeats the workload until ``--seconds`` have
passed (at least MIN_REPS times), checks every output, and prints one JSON
line last on stdout with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics, writing the spans under ``.perfbench/``. See README.md.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(environ=os.environ, modules=sys.modules) -> None:
    """Pin BLAS and OpenMP to one thread. They read these variables when
    NumPy is first imported, so a NumPy already imported under other
    settings is an error."""
    if "numpy" in modules:
        wrong = {k: environ.get(k) for k in THREAD_VARS if environ.get(k) != "1"}
        if wrong:
            raise RuntimeError(f"numpy was imported before BLAS threads were pinned: {wrong}")
        return
    for name in THREAD_VARS:
        environ[name] = "1"


if __name__ == "__main__":
    pin_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
IMPORT_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import opencon; "
                "print(time.perf_counter() - t)")


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description="opencon benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                   help="input sizes; `toy` is for the benchmark's own tests")
    return p.parse_args(argv)


def import_opencon() -> dict:
    src = ROOT / "src"
    if not (src / "opencon" / "__init__.py").is_file():
        raise FileNotFoundError(f"no opencon sources under {src}")
    sys.path.insert(0, str(src))
    import opencon.cli
    import opencon.core
    import opencon.data
    import opencon.encoder
    import opencon.evaluation
    import opencon.objective
    import opencon.prototype
    import opencon.trainer
    if Path(opencon.__file__).resolve().parent != (src / "opencon").resolve():
        raise ImportError(f"opencon was imported from {opencon.__file__}, not {src}")
    return {name: sys.modules[f"opencon.{name}"] for name in
            ("cli", "core", "data", "encoder", "evaluation", "objective",
             "prototype", "trainer")}


def import_seconds(kernel) -> float:
    """Median wall time of `import opencon` in fresh interpreters, each probe
    at nominal host speed."""
    import hostspeed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    kernel_s = kernel.seconds()
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        before, kernel_s = kernel_s, kernel.seconds()
        samples.append(float(out.stdout.strip()) / hostspeed.factor([before, kernel_s]))
    return statistics.median(samples)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def measure(args, mods: dict, kernel, workdir: Path):
    """Repeat the workload for `args.seconds` after one warm-up repetition;
    return the warm-up (checked, not timed), the untraced reps, the traced
    reps with their tracers, and the problems found outside a rep."""
    import hostspeed
    import tracing
    import workloads
    run_rep = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    plain, traced, problems = [], [], []
    kernel_s = kernel.seconds()

    def context(tracer=None):
        return workloads.Context(mods, args.seed, scale, workdir, kernel, tracer)

    def calibrated(rep):
        nonlocal kernel_s
        before, kernel_s = kernel_s, kernel.seconds()
        rep.host_factor = hostspeed.factor([before, *rep.kernel_s, kernel_s])
        print(f"rep: setup {rep.setup_s:.3f} s, train {rep.train_s:.3f} s, "
              f"eval {rep.eval_s:.3f} s, host factor {rep.host_factor:.3f}", file=sys.stderr)
        return rep

    # The first repetition in a process is slower (the allocator and NumPy
    # grow to the workload's sizes), so it is only checked.
    warmup = calibrated(run_rep(context()))
    start = perf_counter()
    while True:
        plain.append(calibrated(run_rep(context())))
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed(mods):
                rep = run_rep(context(tracer))
            traced.append((calibrated(rep), tracer))
            leaked = tracing.wrapped_names(mods)
            if leaked:
                problems.append(f"tracing wrappers left installed: {leaked}")
            counted = int(tracer.counts["trainer.iterations"])
            expected = rep.iterations + rep.untimed_iterations
            if rep.ok and counted != expected:
                problems.append(f"traced run counted {counted} iterations, "
                                f"expected {expected}")
        if perf_counter() - start >= args.seconds and len(plain) >= MIN_REPS:
            return warmup, plain, traced, problems


def check_digests(args, reps) -> None:
    """Every repetition must emit the same metric lines; on the default seed
    at full scale they must also match the recorded reference digest."""
    import workloads
    expected = reps[0].digest
    if args.seed == workloads.DEFAULT_SEED and args.scale == "full":
        expected = load_reference()["digests"].get(args.workload, "")
    for rep in reps:
        if rep.digest and rep.digest != expected:
            rep.fail(f"metric-line digest {rep.digest} != expected {expected!r}")


def end_to_end(reps, import_s: float, ok_ratio: float) -> dict[str, float]:
    """Medians over the completed untraced repetitions; times are at nominal
    host speed."""
    first = reps[0]
    return {
        "setup_s": import_s + statistics.median(r.setup_s / r.host_factor for r in reps),
        "iters_per_s": statistics.median(r.iters_per_s for r in reps),
        "cpu_ms_per_iter": statistics.median(1e3 * r.train_cpu_s / r.host_factor / r.iterations
                                             for r in reps),
        "eval_s": statistics.median(r.eval_s / r.host_factor for r in reps),
        "peak_rss_mb": peak_rss_mib(),
        "acc_seen": first.acc[2],
        "auroc": first.auroc,
        "ok_ratio": ok_ratio,
    }


def per_layer(plain, traced, import_s: float) -> dict[str, float]:
    import tracing
    layers = [tracing.layer_metrics(tracer) for _, tracer in traced]
    out = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    out.update(tracing.iteration_percentiles(
        [ms for _, tracer in traced for ms in tracer.iter_ms]))
    out["cli.import_s"] = import_s
    out["evaluation.acc_all"], out["evaluation.acc_novel"], _ = traced[0][0].acc
    out["host.factor"] = statistics.median(r.host_factor for r, _ in traced)
    ips_plain = statistics.median(r.iters_per_s for r in plain)
    ips_traced = statistics.median(r.iters_per_s for r, _ in traced)
    out["trace.overhead_share"] = 1.0 - ips_traced / ips_plain
    return out


def write_trace(args, env: dict, traced) -> Path:
    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    payload = {"workload": args.workload, "seed": args.seed, "env": env,
               "fields": ["name", "start", "end", "parent"],
               "reps": [{"counts": dict(tracer.counts), "spans": tracer.spans}
                        for _, tracer in traced]}
    out.write_text(json.dumps(payload), encoding="utf-8")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_opencon()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import hostspeed
    env = environment()
    kernel = hostspeed.Kernel()
    import_s = import_seconds(kernel)

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup, plain, traced, problems = measure(args, mods, kernel, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = [warmup] + plain + [rep for rep, _ in traced]
    check_digests(args, reps)
    for rep in reps:
        problems.extend(rep.problems)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    completed = [r for r in plain if r.iterations and r.train_s > 0]
    traced = [(r, t) for r, t in traced if r.iterations and r.train_s > 0]
    if not completed or (args.trace and not traced):
        problems.append("no repetition completed")
        print("\n".join(f"problem: {p}" for p in problems), file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(completed, traced, import_s)
        print(f"spans written to {write_trace(args, env, traced)}", file=sys.stderr)
    else:
        metrics = end_to_end(completed, import_s, 1.0 - failed / attempted)
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                        "computed and listed in BENCHMARK.json")
    if problems:
        print("\n".join(f"problem: {p}" for p in problems), file=sys.stderr)

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "reps": len(plain), "traced_reps": len(traced)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
