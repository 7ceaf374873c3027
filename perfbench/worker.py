"""Workload process of the benchmark: one client running CLI jobs back to back.

    python3 perfbench/worker.py --workload NAME --dir DIR --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts it after writing the job configs into DIR.  The process imports
entconv from ``src/``, makes the workload's warm-up call and prints ``ready``;
the time until then is one set-up sample.  It then runs jobs, each one
``entconv.cli.main`` call with ``--jobs 1``, until S seconds have passed, and
writes DIR/result.json.

Every call, the warm-up too, runs in a child forked from this process after
its imports, and the client waits for it.  So each job starts from the state
a fresh CLI process has after importing entconv, and nothing one job leaves
behind (a cache, say) reaches the next: a user who runs one CLI command per
process would not see that reuse either.

With ``--trace 1`` every job runs twice at the same seed, untraced and then
traced; the outputs must be byte-identical.  Afterwards the first job runs
once more under cProfile, whose share of the workload's dominant layer must
agree with the spans' share within DOMINANT_SHARE_TOLERANCE.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pickle
import pstats
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import SpanRecorder, layer_metrics, profile_keys, profile_share, quantile, span_share
from workloads import WORKLOADS, job_seeds

ROOT = Path(__file__).resolve().parent.parent
DOMINANT_SHARE_TOLERANCE = 0.10
# Set-up samples per untraced run: the workload process itself, plus fresh
# processes started at even intervals through the run, because the host's
# slow phases last seconds and would otherwise catch every sample at once.
SETUP_SAMPLES = 9
READY_TIMEOUT_S = 60.0


class WorkerFailed(Exception):
    """A workload process or job process did not get ready, ran too long or failed."""


def start_worker(args: list[str], own_group: bool = False) -> tuple[subprocess.Popen, float]:
    """Start a workload process; returns it and the seconds until its warm-up call ended.

    With ``own_group`` the process leads a new process group, which ``stop``
    kills whole, with the job and set-up processes it started.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=own_group)
    proc.own_group = own_group
    if select.select([proc.stdout], [], [], READY_TIMEOUT_S)[0] and proc.stdout.readline().strip() == "ready":
        return proc, time.perf_counter() - start
    stop(proc)
    raise WorkerFailed(f"workload process not ready, exit code {proc.returncode}")


def stop(proc: subprocess.Popen) -> None:
    """Kill a workload process (with its group, if it leads one) and wait for it."""
    if proc.own_group:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    else:
        proc.kill()
    proc.communicate()


def finish(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a workload process, stopping it after ``timeout`` seconds; it must exit with 0."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerFailed(f"workload process still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process exited with code {proc.returncode}")


def in_child(body):
    """Run ``body()`` in a child forked from this process; returns what it returns."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, body()))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        payload = source.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise WorkerFailed(f"job process ended with wait status {status} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise WorkerFailed(f"job process failed:\n{value}")
    return value


class Traced:
    """Probe of a traced job: spans around the CLI call, per-layer metrics after it."""

    def __init__(self, workload, out: Path, spans_path: Path | None) -> None:
        self.workload = workload
        self.out = out
        self.spans_path = spans_path   # where to write this job's spans, if anywhere
        self.recorder = SpanRecorder()

    def call(self, main, argv):
        self.recorder.install()
        try:
            return main(argv)
        finally:
            self.recorder.uninstall()

    def result(self) -> dict:
        recorder, workload = self.recorder, self.workload
        output = self.out.read_bytes() if self.out.exists() else b""
        if self.spans_path is not None:
            recorder.write(self.spans_path)
        kind, names = workload.dominant
        return {
            "layers": layer_metrics(recorder, workload.work_units(), workload.success_per_round(output)),
            "run_ns": recorder.durations("protocols.run_protocol"),
            "span_share": span_share(recorder, kind, names),
            "absent": recorder.absent,
        }


class Profiled:
    """Probe of a job run under cProfile: the dominant layer's share of its time."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.profiler = cProfile.Profile()

    def call(self, main, argv):
        return self.profiler.runcall(main, argv)

    def result(self) -> float:
        kind, names = self.workload.dominant
        return profile_share(pstats.Stats(self.profiler).stats, profile_keys(), kind, names)


class Client:
    """Runs CLI jobs of one workload, each in a forked child, and checks their outputs."""

    def __init__(self, workload, directory: Path, cli) -> None:
        self.workload = workload
        self.cli = cli   # looked up per job, so an installed span recorder sees the call
        self.config = directory / "config.json"
        self.out = directory / "job.out"
        self.failures: list[str] = []
        self.attempted = 0
        self.peak_rss_mb = 0.0   # largest peak resident memory of a job process
        self.pooled: Counter = Counter()   # ensemble counts summed over the untraced jobs
        self.pooled_trials = 0

    def run(self, job_seed: int, config: Path | None = None, check: bool = True,
            expect: bytes | None = None, probe=None) -> tuple[float, bytes, object]:
        """Run one job; returns its wall seconds, its output and what ``probe`` found, recording any failure.

        ``expect`` is the untraced output of the same job, which this output must equal byte for byte.
        ``probe`` (``Traced`` or ``Profiled``) wraps the CLI call in the job process.
        """
        argv = self.workload.job_argv(config or self.config, job_seed, self.out)
        self.out.unlink(missing_ok=True)
        self.attempted += 1

        def job():
            def main(args):
                return self.cli.main(args)   # looked up at the call, after a probe patched it

            err = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = main(argv) if probe is None else probe.call(main, argv)
            except Exception:
                code = None
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - start
            found = None if probe is None else probe.result()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            return code, seconds, err.getvalue(), rss_mb, found

        code, seconds, err, rss_mb, found = in_child(job)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        output = self.out.read_bytes() if self.out.exists() else b""
        problems = [] if code == 0 else [f"exit code {code}"]
        if "Traceback" in err:
            problems.append("traceback printed")
        if code == 0 and check:
            problems += self.workload.check(output)
            if self.workload.ensemble and expect is None and not problems:
                self.pooled.update(self.workload.counts(output))
                self.pooled_trials += self.workload.work_units()
        if expect is not None and output != expect:
            problems.append("output differs from the untraced output")
        if problems:
            self.failures.append(f"job seed {job_seed}: {'; '.join(problems)} {err[-2000:]}".strip())
        return seconds, output, found


def measure(client: Client, seeds, seconds: float, setup_args: list[str]) -> dict:
    """Closed loop: jobs back to back until ``seconds`` have passed, with set-up samples in between."""
    job_seconds = []
    setups = []
    due = [seconds * (i + 0.5) / (SETUP_SAMPLES - 1) for i in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    while not job_seconds or time.perf_counter() - start < seconds:
        if due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.append(setup_sample(setup_args))
        elapsed, _, _ = client.run(next(seeds))
        job_seconds.append(elapsed)
    setups += [setup_sample(setup_args) for _ in due]
    return {"job_seconds": job_seconds, "setups": setups}


def setup_sample(args: list[str]) -> float:
    proc, seconds = start_worker(args)
    finish(proc, READY_TIMEOUT_S)
    return seconds


def trace(client: Client, seeds, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced job pairs until ``seconds`` have passed, then one profiled job."""
    workload = client.workload
    per_job: list[dict] = []
    ratios = []
    run_ns: list[int] = []
    first = None
    start = time.perf_counter()
    while not per_job or time.perf_counter() - start < seconds:
        seed = next(seeds)
        plain_s, plain, _ = client.run(seed)
        probe = Traced(workload, client.out, spans_path if first is None else None)
        traced_s, _, found = client.run(seed, expect=plain, probe=probe)
        ratios.append(traced_s / plain_s)
        per_job.append(found["layers"])
        run_ns += found["run_ns"]
        if first is None:
            first = {"seed": seed, "output": plain, **found}

    _, _, profiled = client.run(first["seed"], expect=first["output"], probe=Profiled(workload))
    kind, names = workload.dominant
    problems = []
    if abs(first["span_share"] - profiled) > DOMINANT_SHARE_TOLERANCE:
        problems.append(f"{kind} share of {', '.join(names)}: spans {first['span_share']:.3f}, cProfile {profiled:.3f}")

    # counts and ratios repeat exactly at a fixed seed, so they come from the
    # first job; times are medians over the run's traced jobs
    layers = dict(per_job[0])
    for name in layers:
        if name.endswith(("_s", "_us")):
            layers[name] = statistics.median(job[name] for job in per_job)
    # percentiles over every traced run_protocol call of the run
    layers["protocols.run_protocol.p50_us"] = quantile(run_ns, 0.50) * 1e-3
    layers["protocols.run_protocol.p99_us"] = quantile(run_ns, 0.99) * 1e-3
    layers["trace.overhead_ratio"] = statistics.median(ratios)
    return {
        "layers": layers,
        "absent": first["absent"],
        "dominant": {"kind": kind, "names": names, "span_share": first["span_share"], "profile_share": profiled},
        "traced_jobs": len(per_job),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark workload process (started by run.py)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from entconv import cli

    workload = WORKLOADS[args.workload]
    client = Client(workload, args.dir, cli)
    seeds = job_seeds(args.seed)
    client.run(next(seeds), config=args.dir / "warmup.json", check=False)
    if client.failures:
        print(f"warm-up call failed: {client.failures[0]}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.setup_only:
        return 0

    client.attempted = 0
    if args.trace:
        result = trace(client, seeds, args.seconds, args.dir / "spans.tsv")
    else:
        setup_args = ["--workload", args.workload, "--dir", str(args.dir), "--seed", str(args.seed),
                      "--seconds", "0", "--setup-only"]
        result = measure(client, seeds, args.seconds, setup_args)
    result.setdefault("problems", [])
    if client.pooled_trials:
        result["problems"] += [f"{client.pooled_trials} trials of the run together: {problem}"
                               for problem in workload.check_counts(client.pooled, client.pooled_trials)]
    result.update(
        attempted=client.attempted,
        failures=client.failures,
        peak_rss_mb=client.peak_rss_mb,
        numpy=numpy.__version__,
        entconv=str(Path(cli.__file__).resolve().parent),
    )
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
