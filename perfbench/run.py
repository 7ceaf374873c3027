"""entconv benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run prints a record of the machine, every
metric by name with its unit, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  A run of
one workload exits 0 once it has printed that line; the run of every workload
exits 1 if any job failed.  Without the program's sources under ``src/`` it
exits 2 and prints no result.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from spans import quantile
from worker import WorkerFailed, finish, start_worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 160.0        # a run that is not done by then is stopped and fails


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_probe_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop: how fast the host runs this process now."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(100_000))
        best = min(best, time.perf_counter() - start)
    return best


def host_sample() -> dict:
    """Load average and CPU steal, read from /proc, and the CPU probe's time."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:]
    ticks = [int(x) for x in fields]
    return {
        "probe_s": cpu_probe_s(),
        "loadavg": _read("/proc/loadavg").split()[:3],
        "steal_ticks": ticks[7] if len(ticks) > 7 else None,
        "total_ticks": sum(ticks[:8]),
    }


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    found = _read(str(ROOT / ".git" / ref)).strip()
    if found:
        return found
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine_record() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def host_change(before: dict, after: dict) -> dict:
    total = after["total_ticks"] - before["total_ticks"]
    steal = None
    if before["steal_ticks"] is not None and after["steal_ticks"] is not None:
        steal = after["steal_ticks"] - before["steal_ticks"]
    return {
        "cpu_probe_s_before": before["probe_s"],
        "cpu_probe_s_after": after["probe_s"],
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_s": None if steal is None else steal / os.sysconf("SC_CLK_TCK"),
        "steal_share": None if steal is None or total <= 0 else steal / total,
    }


def run_worker(name: str, directory: Path, seed: int, seconds: float, trace: int) -> float:
    """Run the workload process; returns the seconds from its spawn to the end of its warm-up call."""
    proc, setup = start_worker(["--workload", name, "--dir", str(directory), "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace)], own_group=True)
    finish(proc, RUN_LIMIT_S - setup)
    return setup


def run_workload(name: str, seed: int, seconds: float, trace: int, layer_units: dict[str, str]) -> dict:
    """One benchmark run of one workload; returns the result object and prints the metrics."""
    workload = WORKLOADS[name]
    directory = OUT / name
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "result.json").unlink(missing_ok=True)
    (directory / "config.json").write_text(json.dumps({**workload.config, "seed": seed}))
    (directory / "warmup.json").write_text(json.dumps({**workload.warmup_config(), "seed": seed}))

    record = machine_record()
    before = host_sample()
    setups = [run_worker(name, directory, seed, seconds, trace)]
    result = json.loads((directory / "result.json").read_text())
    record.update(host_change(before, host_sample()), numpy=result["numpy"], entconv=result["entconv"])

    attempted = result["attempted"]
    failed = len(result["failures"])
    unit = workload.unit_name()
    print(f"run record: {json.dumps(record)}")
    print(f"workload {name}: seed {seed}, {seconds:g} s, trace {trace}, {attempted} jobs of "
          f"{workload.work_units()} {unit}, --jobs 1, one client")
    for failure in result["failures"] + result["problems"]:
        print(f"  FAILED: {failure}")
    if trace:
        metrics = {key: {"value": value, "unit": layer_units[key]} for key, value in result["layers"].items()}
        dominant = result["dominant"]
        print(f"  dominant {dominant['kind']} share of {', '.join(dominant['names'])}: "
              f"spans {dominant['span_share']:.3f}, cProfile {dominant['profile_share']:.3f}")
        if result["absent"]:
            print(f"  absent from the program, reported as 0: {', '.join(result['absent'])}")
    else:
        job_seconds = result["job_seconds"]
        setups += result["setups"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # all the run's work over all its job time: the host runs at two or
            # more speeds for seconds at a time, and this average over the run
            # spread less from run to run than the median or a fast quantile
            "work_per_s": {"value": workload.work_units() * len(job_seconds) / sum(job_seconds), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ops_ok_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
        print(f"  {unit}_per_s = work_per_s: work of {len(job_seconds)} jobs over their {sum(job_seconds):.3f} s")
        print(f"  job seconds: 10th percentile {quantile(job_seconds, 0.1):.4f}, median {statistics.median(job_seconds):.4f}, "
              f"90th percentile {quantile(job_seconds, 0.9):.4f}, max {max(job_seconds):.4f}")
        print(f"  setup_s is the median of {len(setups)} fresh processes: {', '.join(f'{s:.3f}' for s in setups)}")
        print(f"  ops_failed_share = {failed}/{attempted}")
    for key, metric in metrics.items():
        print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0 and not result["problems"], "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entconv" / "cli.py").is_file():
        print(f"entconv sources not found under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload is not None:
        try:
            result = run_workload(args.workload, args.seed, seconds, args.trace, layer_units)
        except WorkerFailed as err:
            print(f"run failed: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    failed = []
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run_workload(name, args.seed, seconds, trace, layer_units)
                ok = result["correct"]
            except WorkerFailed as err:
                print(f"  run failed: {err}")
                ok = False
            if not ok:
                failed.append(f"{name} trace {trace}")
    print("all workloads correct" if not failed else f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
