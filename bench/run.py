"""fecam benchmark: one workload per process, driven through ``fecam.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a source checkout: the package is imported from ``src/`` next to this
directory, and the run fails with exit code 2 if it is not there. Inputs are
generated from ``--seed`` under ``.bench_work/`` and removed afterwards.

``--trace 0`` measures the end-to-end metrics. Set-up (importing fecam in a
fresh interpreter, then input generation and the checkpoint, each repeated
and reported as their median) is followed by ``S`` seconds split between
whole CLI invocations and the workload's inner step (see ``workloads.py``). fecam's caches are cleared
before each invocation, as in a fresh process; ``peak_rss_mib`` is read after
the first one. BLAS runs on one thread. ``run_s`` is the median invocation
time and ``step_ms_p50``/``step_ms_p90`` the step's percentiles. Every time is
paced: rescaled by a fixed probe run next to it, so that the shared host's
fast and slow phases cancel (see ``pace.py``); wall-clock figures are printed
on a line of their own.

``--trace 1`` is a separate run: a few untraced invocations, then traced ones
that report per-layer self time and counts (see ``spans.py``); span records
go to ``.bench_work/``.
``--workload all`` runs every workload listed in ``BENCHMARK.json``, each in
its own process; the others run only by name.

Every invocation and step is an operation; it fails on a non-zero exit, a
non-finite loss or a failed output check. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 means every check passed, 1 that one failed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a second one would make every
# product depend on both vCPUs' noise, which on small shared machines
# dominates the spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_INVOCATIONS = 2
STEP_GROUP_S = 0.3
IMPORT_TIMER = ("import time; start = time.perf_counter(); "
                "from fecam import attention, cli, data, forecaster, nncore, spectral; "
                "print(time.perf_counter() - start)")

# Per-layer metric -> the spans whose self time it sums.
SELF_METRICS = {
    "cli.main.self_s": ["cli.main"],
    "data.load_csv.self_s": ["data.load_csv"],
    "data.chronological_split.self_s": ["data.chronological_split"],
    "data.fit_standardizer.self_s": ["data.fit_standardizer"],
    "data.make_windows.self_s": ["data.make_windows"],
    "spectral.dct_matrix.self_s": ["spectral.dct_matrix"],
    "spectral.dct_forward.self_s": ["spectral.dct_forward"],
    "spectral.dct_inverse.self_s": ["spectral.dct_inverse"],
    "spectral.dct_via_even_dft.self_s": ["spectral.dct_via_even_dft"],
    "attention.frequency_map.self_s": ["attention.frequency_map"],
    "attention.fecam_forward.self_s": ["attention.fecam_forward"],
    "attention.fecam_backward.self_s": ["attention.fecam_backward"],
    "attention.export_attention.self_s": ["attention.export_attention"],
    "nncore.dense_forward.self_s": ["nncore.dense_forward"],
    "nncore.dense_backward.self_s": ["nncore.dense_backward"],
    "nncore.relu.self_s": ["nncore.relu_forward", "nncore.relu_backward"],
    "nncore.sigmoid_forward.self_s": ["nncore.sigmoid_forward"],
    "nncore.sigmoid_backward.self_s": ["nncore.sigmoid_backward"],
    "nncore.mse_loss.self_s": ["nncore.mse_loss"],
    "nncore.adam_step.self_s": ["nncore.adam_step"],
    "nncore.save_checkpoint.self_s": ["nncore.save_checkpoint"],
    "nncore.load_checkpoint.self_s": ["nncore.load_checkpoint"],
    "forecaster.train.self_s": ["forecaster.train"],
    "forecaster.model_forward.self_s": ["forecaster.model_forward"],
    "forecaster.model_backward.self_s": ["forecaster.model_backward"],
    "forecaster.evaluate.self_s": ["forecaster.evaluate"],
}
# Per-layer metric -> the span whose calls it counts.
CALL_METRICS = {
    "spectral.dct_matrix.calls": "spectral.dct_matrix",
    "attention.frequency_map.calls": "attention.frequency_map",
    "forecaster.steps": "nncore.adam_step",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a name in workloads.WORKLOADS, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # show_config(mode=) needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads()}


class Runner:
    def __init__(self, cli, workload, caches):
        self.cli = cli
        self.workload = workload
        self.caches = caches
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.note(problems)

    def note(self, problems: list[str]) -> None:
        self.problems.extend(p for p in problems if p not in self.problems)

    def invoke(self) -> tuple[float, float]:
        """One CLI invocation with fecam's caches cold, as in a fresh process.

        Returns its paced and its wall seconds.
        """
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()  # start from a clean heap, as a fresh process does
        shutil.rmtree(self.workload.out, ignore_errors=True)
        argv = self.workload.argv()
        err = io.StringIO()
        before = pace.probe()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the run keeps going and counts it as failed
                code = "exception"
                traceback.print_exc()
            seconds = time.perf_counter() - start
        after = pace.probe()
        self.attempted += 1
        if code != 0:
            self._fail([f"fecam {' '.join(argv[:1])} exited {code}: {err.getvalue()[-500:]}"])
        else:
            problems = self.workload.check_output()
            if problems:
                self._fail(problems)
        return pace.paced(seconds, before, after), seconds

    def invocations(self, until: float, minimum: int) -> list[float]:
        """Invoke until another would pass `until` on the perf clock; wall seconds."""
        times = []
        while len(times) < minimum or time.perf_counter() + statistics.median(times) <= until:
            times.append(self.invoke()[1])
        return times

    def steps(self, until: float, times: list[float], wall: list[float], rng,
              minimum: int = 0) -> None:
        """Time steps until `until`, and until `times` holds `minimum`.

        Steps run in groups of about STEP_GROUP_S between two probes; paced
        seconds go to `times`, wall seconds to `wall`.
        """
        while len(times) < minimum or time.perf_counter() < until:
            before = pace.probe()
            group = []
            group_end = time.perf_counter() + STEP_GROUP_S
            while not group or time.perf_counter() < group_end:
                group.append(self.workload.step(rng))
            after = pace.probe()
            for seconds in group:
                self.attempted += 1
                if seconds == seconds:
                    times.append(pace.paced(seconds, before, after))
                    wall.append(seconds)
                else:
                    self._fail([f"{self.workload.name} step failed its check"])

    def final_checks(self) -> None:
        self.note(self.workload.final_checks())


def import_seconds() -> float:
    """Median paced time to import fecam, numpy included, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        before = pace.probe()
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, check=True,
                             capture_output=True, text=True).stdout
        times.append(pace.paced(float(out), before, pace.probe()))
    return statistics.median(times)


def measure(runner: Runner, args, setup_s: float) -> dict:
    """Invocations and step bursts alternate, so both sample the whole run."""
    import numpy as np

    workload = runner.workload
    deadline = time.perf_counter() + args.seconds
    paced_s, wall_s = runner.invoke()
    run_times, run_wall = [paced_s], [wall_s]
    # One invocation in a fresh process is what a user runs; step data comes later.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.prepare_steps()
    rng = np.random.default_rng([args.seed, 7])
    for _ in range(3):  # warm-up: lazy optimizer state and first-touch pages
        workload.step(rng)
    step_times: list[float] = []
    step_wall: list[float] = []
    burst = (1.0 - workload.cli_share) / workload.cli_share
    while True:
        runner.steps(time.perf_counter() + burst * statistics.median(run_wall),
                     step_times, step_wall, rng)
        if (len(run_times) >= MIN_INVOCATIONS
                and time.perf_counter() + statistics.median(run_wall) > deadline):
            break
        paced_s, wall_s = runner.invoke()
        run_times.append(paced_s)
        run_wall.append(wall_s)
    runner.steps(deadline, step_times, step_wall, rng, workload.sizes.min_steps)
    runner.final_checks()
    step_ms = np.array(step_times) * 1e3
    wall_ms = np.array(step_wall) * 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(run_times), "s"),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    print(f"invocations {len(run_times)}, steps {len(step_times)}; invocation seconds, paced "
          + " ".join(f"{t:.3f}" for t in run_times))
    print(f"wall clock, not gated: run median {statistics.median(run_wall)!r} s, "
          f"step p50 {float(np.percentile(wall_ms, 50))!r} ms, "
          f"p90 {float(np.percentile(wall_ms, 90))!r} ms")
    print(f"failed_ratio {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    if getattr(workload, "test_mses", None):
        print(f"test_mse {workload.test_mses[0]!r} standardized")
    return metrics


def measure_traced(runner: Runner, args, tracer, dct_matrix) -> dict:
    """Untraced then traced invocations; per-layer figures are per-invocation means."""
    start = time.perf_counter()
    runner.invoke()  # the first invocation in a process is slower: its heap is cold
    baseline = runner.invocations(start + 0.5 * args.seconds, 1)
    cache_stats = []
    traced = []
    tracer.install()
    try:
        until = start + args.seconds
        while not traced or time.perf_counter() + statistics.median(traced) <= until:
            tracer.begin_invocation()
            traced.append(runner.invoke()[1])
            cache_stats.append(dct_matrix.cache_info())
    finally:
        tracer.uninstall()
    runner.final_checks()
    print(f"untraced invocations {len(baseline)}, traced invocations {len(traced)}")

    per_inv, roots = tracer.self_times()
    n = len(traced)

    def mean(values) -> float:
        return sum(values) / n

    metrics = {}
    reported = set()
    for metric, names in SELF_METRICS.items():
        reported.update(names)
        metrics[metric] = (mean(sum(inv.get(s, [0.0])[0] for s in names) for inv in per_inv), "s")
    for metric, span in CALL_METRICS.items():
        metrics[metric] = (mean(inv.get(span, [0, 0])[1] for inv in per_inv), "count")
    metrics["data.load_csv.rows"] = (
        mean(c.get("data.load_csv.rows", 0) for c in tracer.counts), "count")
    metrics["data.make_windows.owned_mib"] = (
        mean(c.get("data.make_windows.owned_bytes", 0) for c in tracer.counts) / 2**20, "MiB")
    ratios = [info.hits / inv["spectral.dct_matrix"][1] if "spectral.dct_matrix" in inv else 0.0
              for info, inv in zip(cache_stats, per_inv)]
    metrics["spectral.dct_matrix.hit_ratio"] = (mean(ratios), "ratio")
    for i, (wall, root) in enumerate(zip(traced, roots)):
        print(f"traced invocation {i}: run_s {wall!r} s, outside every span {wall - root!r} s")
    run_s = mean(traced)
    outside = mean(t - r for t, r in zip(traced, roots))
    other = mean(sum(v[0] for k, v in inv.items() if k not in reported) for inv in per_inv)
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.overhead_s"] = (run_s - sum(baseline) / len(baseline), "s")
    metrics["trace.outside_s"] = (outside, "s")
    metrics["trace.other_self_s"] = (other, "s")
    return metrics


def run_all(args, names) -> int:
    """Each workload in its own process, one after another; 1 if any failed."""
    worst = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd + ["--smoke"] * args.smoke).returncode)
    return min(worst, 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fecam" / "__init__.py").is_file():
        print(f"error: no fecam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FECAM_OUT", None)  # it would override the benchmark's --out
    sys.path.insert(0, str(SRC))
    from fecam import attention, cli, data, forecaster, nncore, spectral

    import spans
    import workloads
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fecam imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return run_all(args, [w["name"] for w in spec["workloads"]])
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    modules = {"cli": cli, "data": data, "spectral": spectral, "attention": attention,
               "nncore": nncore, "forecaster": forecaster}
    caches = list({id(obj): obj for module in modules.values() for obj in vars(module).values()
                   if callable(getattr(obj, "cache_clear", None))}.values())
    env = environment(len(os.sched_getaffinity(0)))
    sizes_table = workloads.SMOKE if args.smoke else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(sizes_table[cls], work, args.seed)
        setup_times = [pace.timed(workload.setup) for _ in range(SETUP_REPEATS)]

        print("env " + json.dumps(env))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {cls.why}")
        runner = Runner(cli, workload, caches)
        if args.trace:
            tracer = spans.Tracer(modules)
            metrics = measure_traced(runner, args, tracer, spectral.dct_matrix)
            tracer.write(work_root / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            import_s = import_seconds()
            print(f"set-up, paced: import {import_s!r} s, inputs "
                  + " ".join(f"{t:.4f}" for t in setup_times) + " s")
            metrics = measure(runner, args, import_s + statistics.median(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not runner.problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
