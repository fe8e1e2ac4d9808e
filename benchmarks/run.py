"""Benchmark of the ``uncrossed`` CLI paths, run in-process through ``cli.run``.

One workload per process, one thread, a closed loop with one client: each
job starts when the previous one has finished. A run repeats the workload's
job list in whole passes for about ``--seconds``. End-to-end times are
scaled by a reference loop timed before, during and after each job (see
``loop_time``), so that a slow phase of a shared host does not read as a
slower program.

    python3 benchmarks/run.py --workload dense_cover --seed 1 --seconds 34 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 34 --out benchmarks/results/BENCH_x.json

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced and the second
half traced, and the last line holds the per-layer metrics (per pass over
the job list), the set-up breakdown and the tracing overhead. ``--all``
runs every workload both ways, each in a fresh interpreter, prints every
metric with its unit and sample count, and exits nonzero when any output
check failed. ``--inject-fault`` swaps two entries of one rotation line in
the first certificate a run verifies, to show that a corrupted certificate
counts as a failed job without stopping the run.

Run it from the root of a source checkout: it imports ``uncrossed`` from
``src/`` there and writes its files under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
# Reported times are scaled to a CPU on which reference_loop() takes this long
REF_LOOP_S = 0.0005
# While a job runs, the reference loop is timed this often
TICK_S = 0.05
# A job is scaled by the loop times taken from this long before it starts
# to this long after it ends
WINDOW_S = 0.5
# render's Tutte layout calls numpy.linalg.solve; keep BLAS to this thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}

# per-layer metric -> key of the set-up probe's medians
SETUP_METRICS = {
    "setup.import_s": "import_s",
    "setup.import_numpy_s": "numpy_s",
    "setup.import_networkx_s": "networkx_s",
    "setup.inputs_s": "inputs_s",
}


def per_layer_units() -> dict:
    """metric -> (unit, better) for every metric of a traced run."""
    import tracing

    units = tracing.layer_units()
    units.update({name: ("s", "lower") for name in SETUP_METRICS})
    units["trace.overhead_ratio"] = ("ratio", "higher")
    return units


def reference_loop() -> int:
    """Fixed pure-Python work that builds tuples, sets and dicts of lists,
    as the program does. It never touches the program's code."""
    seen, groups = set(), {}
    for i in range(1500):
        pair = (i % 97, i * 31 % 101)
        seen.add(pair)
        groups[pair[0]] = groups.get(pair[0], []) + [pair[1]]
    return len(seen) + len(groups)


def loop_time(reps: int = 5) -> float:
    """Fastest of ``reps`` timings of ``reference_loop``.

    Other tenants of a shared host slow its CPU by up to twice, in phases of
    a fraction of a second to minutes. A job and the reference loop timed
    during it slow alike, so ``raw * REF_LOOP_S / loop_time`` is the job's
    time on a CPU of fixed speed; a change to the program moves it, the
    host's phase does not. The collector is off meanwhile, so that a pass
    over the program's heap neither lands in the loop nor is moved by it.
    """
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Speedometer:
    """Reference loop times and when each was taken: between jobs
    (``sample``) and, from a timer signal, every ``TICK_S`` seconds while a
    job runs (``start`` to ``stop``), so that a job of seconds is scaled by
    the speed the host had during it and not only at its ends. ``paused`` is
    the time the ticks of the current job took, which its time leaves out."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at the end, loop seconds)
        self.paused = 0.0

    def sample(self, reps: int = 5) -> None:
        loop = loop_time(reps)
        self.samples.append((time.perf_counter(), loop))

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.sample(3)
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time from ``WINDOW_S`` before ``start`` to ``WINDOW_S``
        after ``end``."""
        return statistics.fmean(loop for t, loop in self.samples
                                if start - WINDOW_S <= t <= end + WINDOW_S)


def _import_program():
    """Import ``uncrossed`` from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "uncrossed" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uncrossed

    if Path(uncrossed.__file__).resolve().parent != SRC / "uncrossed":
        print(f"error: imported uncrossed from {uncrossed.__file__}", file=sys.stderr)
        sys.exit(2)


def _workdir(workload: str) -> Path:
    path = ROOT / ".bench_work" / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh interpreter does before its first timed job, timed, with
    the reference loop ticking meanwhile."""
    meter = Speedometer()
    meter.start()
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import networkx  # noqa: F401

    t2 = time.perf_counter()
    _import_program()
    import workloads

    t3 = time.perf_counter()
    jobs = workloads.WORKLOADS[workload](seed)
    workloads.write_inputs(jobs, _workdir(workload))
    t4 = time.perf_counter()
    meter.stop()
    meter.sample()
    print(json.dumps({"numpy_s": t1 - t0, "networkx_s": t2 - t1,
                      "import_s": t3 - t0, "inputs_s": t4 - t3,
                      "paused_s": meter.paused, "loop_s": meter.loop_s(t0, t4)}),
          flush=True)


def measure_setup(workload: str, seed: int) -> dict:
    """Median over fresh interpreters of spawn-to-ready time and its parts.

    ``total_s`` leaves out the ticks; ``scaled_s`` is ``total_s`` scaled by
    the reference loop timed in the child during its set-up."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                raise RuntimeError("set-up probe failed")
        sample = json.loads(line)
        sample["total_s"] = ready - sample["paused_s"]
        sample["scaled_s"] = sample["total_s"] * REF_LOOP_S / sample["loop_s"]
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def machine_info() -> dict:
    import networkx
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "uncrossed").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _swap_rotation_entries(path: str) -> None:
    """Swap the first two neighbors of the busiest vertex of drawing 1."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    start = lines.index("rotation")
    rows = []
    for i in range(start + 1, len(lines)):
        label, sep, rest = lines[i].partition(":")
        if not sep or not label.isdigit():
            break
        rows.append((len(rest.split()), i))
    _, row = max(rows)
    label, _, rest = lines[row].partition(":")
    entries = rest.split()
    entries[0], entries[1] = entries[1], entries[0]
    lines[row] = f"{label}: " + " ".join(entries)
    Path(path).write_text("\n".join(lines), encoding="utf-8")


class Runner:
    """Runs jobs in a closed loop and checks every output.

    The first pass checks each job's outputs in full and stores their
    digest; later passes must reproduce those bytes exactly.
    """

    def __init__(self, jobs: list, inject_fault: bool = False):
        from uncrossed import cli

        self.cli = cli
        self.jobs = jobs
        self.digests: dict = {}
        self.failures: list = []
        self.attempted = 0
        self.job_id = 0
        self.fault_pending = inject_fault
        self.meter = Speedometer()
        self.interval = (0.0, 0.0)  # wall clock span of the last job's calls

    def _run_calls(self, job) -> tuple:
        outputs, codes = [], []
        start = first = time.perf_counter()
        self.meter.start()
        try:
            for k, argv in enumerate(job.calls):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    codes.append(self.cli.run(argv))
                outputs.append(out.getvalue() + err.getvalue())
                if (self.fault_pending and k == 0 and len(job.calls) > 1
                        and job.calls[1][:1] == ["verify"]):
                    self.fault_pending = False
                    elapsed = time.perf_counter() - start
                    _swap_rotation_entries(job.calls[1][-1])
                    start = time.perf_counter() - elapsed
        finally:
            self.meter.stop()
        self.interval = (first, time.perf_counter())
        return self.interval[1] - start - self.meter.paused, outputs, tuple(codes)

    def _problem(self, index: int, outputs: list, codes: tuple) -> str | None:
        job = self.jobs[index]
        files = {p: Path(p).read_text(encoding="utf-8") for p in job.outputs}
        digest = hashlib.sha256()
        for text in [repr(codes)] + outputs + [files[p] for p in job.outputs]:
            digest.update(text.encode() + b"\0")
        digest = digest.hexdigest()
        if codes != job.codes:
            return f"exit codes {codes}, expected {job.codes}"
        if index in self.digests:
            return None if self.digests[index] == digest else "output differs from the first pass"
        problem = job.check(outputs, files)
        if problem is None:
            self.digests[index] = digest
        return problem

    def run_job(self, index: int, tracer=None) -> float:
        """Run and check one job; returns its time. Failures are recorded."""
        job = self.jobs[index]
        self.attempted += 1
        if tracer is not None:
            tracer.job = self.job_id
        self.job_id += 1
        start = time.perf_counter()
        try:
            try:
                elapsed, outputs, codes = self._run_calls(job)
            finally:
                if tracer is not None:
                    tracer.job = -1
            problem = self._problem(index, outputs, codes)
        except Exception as exc:  # a crash is a failed job, not a failed run
            elapsed = time.perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"job {index} ({' '.join(job.calls[0])}): {problem}")
        return elapsed

    def run_passes(self, seconds: float, tracer=None) -> list:
        """Whole passes over the job list for about ``seconds``: another pass
        starts while at least half a pass of time is left.

        Before each job the heap is collected and the reference loop timed,
        outside the job's time. Returns one ``{job id: (tag, raw seconds,
        scaled seconds)}`` dict per pass; scaled seconds use the loop times
        taken before, during and after the job (``Speedometer.loop_s``).
        """
        passes = []
        start = time.perf_counter()
        while True:
            raw = []
            for i in range(len(self.jobs)):
                gc.collect()
                self.meter.sample()
                job_id = self.job_id
                raw.append((job_id, self.run_job(i, tracer), self.interval))
            gc.collect()
            self.meter.sample()
            passes.append({
                job_id: (self.jobs[i].tag, s, s * REF_LOOP_S / self.meter.loop_s(*interval))
                for i, (job_id, s, interval) in enumerate(raw)})
            elapsed = time.perf_counter() - start
            if seconds - elapsed < elapsed / len(passes) / 2:
                return passes

    def digest(self) -> str:
        whole = hashlib.sha256()
        for i in range(len(self.jobs)):
            whole.update(self.digests.get(i, "missing").encode())
        return whole.hexdigest()


def job_metrics(passes: list, column: int = 2) -> dict:
    """Throughput and latency percentiles over the job list, each job at the
    median of its passes. ``column`` 2 takes scaled times, 1 raw times."""
    per_job = [statistics.median(col) for col in
               zip(*([entry[column] for entry in p.values()] for p in passes))]
    cuts = statistics.quantiles(per_job, n=10)
    return {"jobs_per_s": len(per_job) / sum(per_job), "job_ms_p50": cuts[4] * 1000,
            "job_ms_p90": cuts[8] * 1000}


def run_workload(args) -> int:
    _import_program()
    setup = measure_setup(args.workload, args.seed)
    import tracing
    import workloads

    info = machine_info()
    workdir = _workdir(args.workload)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    workloads.write_inputs(jobs, workdir)
    warm = workloads.warmup(args.workload)
    workloads.write_inputs(warm, workdir)
    os.chdir(workdir)
    warm_runner = Runner(warm)
    for i in range(len(warm)):
        warm_runner.run_job(i)

    runner = Runner(jobs, args.inject_fault)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_pass": len(jobs), "info": info}
    if args.trace:
        half = args.seconds / 2
        untraced = runner.run_passes(half)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_passes(half, tracer)
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.tsv")
        jobs_run = {j: job for times in traced for j, job in times.items()}
        metrics = tracing.layer_metrics(
            tracer, len(traced), {j: tag for j, (tag, _, _) in jobs_run.items()},
            {j: s for j, (_, s, _) in jobs_run.items()})
        metrics.update({name: setup[key] for name, key in SETUP_METRICS.items()})
        metrics["trace.overhead_ratio"] = (job_metrics(traced)["jobs_per_s"]
                                           / job_metrics(untraced)["jobs_per_s"])
        units = per_layer_units()
        detail["samples"] = {"passes": len(traced), "untraced_passes": len(untraced),
                             "spans": len(tracer.spans), "setup_runs": SETUP_RUNS}
        detail["missing"] = sorted(set(tracer.missing)
                                   | {m for m in units if m not in metrics})
        result = {name: {"value": value, "unit": units[name][0]}
                  for name, value in metrics.items()}
    else:
        passes = runner.run_passes(args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            **job_metrics(passes),
            "setup_s": setup["scaled_s"],
            "peak_rss_mib": peak,
            "success_ratio": 1 - len(runner.failures) / runner.attempted,
        }
        detail["samples"] = {"passes": len(passes), "jobs": len(jobs),
                             "setup_runs": SETUP_RUNS}
        detail["unscaled"] = {**job_metrics(passes, 1), "setup_s": setup["total_s"]}
        detail["job_ms"] = [[runs[0][0], statistics.median(r[2] for r in runs) * 1000]
                            for runs in zip(*(p.values() for p in passes))]
        result = {name: {"value": value, "unit": E2E_UNITS[name]}
                  for name, value in values.items()}
    detail["digest"] = runner.digest()
    detail["failures"] = runner.failures
    correct = not runner.failures
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, metric in result.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name in detail.get("missing", ()):
        print(f"{name}: missing")
    print(f"digest = {detail['digest']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": result}))
    return 0 if correct else 1


def _sample_count(name: str, samples: dict, attempted: int) -> str:
    if name == "setup_s" or name.startswith("setup."):
        return f"{samples['setup_runs']} interpreters"
    if name == "peak_rss_mib":
        return "1 process"
    if name == "success_ratio":
        return f"{attempted} jobs run"
    if name == "trace.overhead_ratio":
        return f"{samples['untraced_passes']}+{samples['passes']} passes"
    if "untraced_passes" in samples:
        return f"{samples['passes']} traced passes"
    return f"{samples['jobs']} jobs, each the median of {samples['passes']} passes"


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    _import_program()
    import workloads

    report, ok = {}, True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.inject_fault:
                cmd.append("--inject-fault")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                detail = json.loads(lines[-2])["detail"]
                final = json.loads(lines[-1])
            except (IndexError, ValueError, KeyError):
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and final["correct"]
            report.setdefault(workload, {})[f"trace{trace}"] = {**final, "detail": detail}
            samples = detail["samples"]
            print(f"== {workload} trace={trace} correct={final['correct']} "
                  f"attempted={final['attempted']} failed={final['failed']} "
                  f"fail_ratio={final['failed'] / final['attempted']:.4g} "
                  f"digest={detail['digest'][:16]}")
            for failure in detail["failures"]:
                print(f"  FAILED {failure}")
            for name, metric in final["metrics"].items():
                count = _sample_count(name, samples, final["attempted"])
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}  (n = {count})")
            for name in detail.get("missing", ()):
                print(f"  {name}: missing")
    _print_predictions(report)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


PREDICTIONS = (
    ("dense_cover", "embedding.outerplanar_share",
     "embedding.outerplanar_s is the majority of dense_cover job time"),
    ("oracle_cap", "embedding.trace_share",
     "embedding.trace_s is the majority of oracle_cap job time"),
    ("sparse_certify", "graph_certify.share",
     "graph building plus certify is the majority of sparse_certify job time"),
)


def _print_predictions(report: dict) -> None:
    print("== predictions")
    for workload, metric, claim in PREDICTIONS:
        value = report.get(workload, {}).get("trace1", {}).get("metrics", {}).get(metric)
        if value is None:
            print(f"  unresolved ({metric} missing): {claim}")
            continue
        verdict = "confirmed" if value["value"] > 0.5 else "refuted"
        print(f"  {verdict} ({metric} = {value['value']:.3f}): {claim}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=34)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload both ways")
    p.add_argument("--out", help="with --all: write the results as JSON here")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first verified certificate (harness self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.all:
        return run_all(args)
    if args.workload not in ("dense_cover", "sparse_certify", "oracle_cap"):
        p.error("--workload must be dense_cover, sparse_certify or oracle_cap")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
