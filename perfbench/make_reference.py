"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run from the repository root.  It writes ``perfbench/reference/sweep_basis.csv``
(the ``sweep_basis`` job's output) and ``perfbench/reference/realistic_n5.json``
(one large ``realistic_n5`` ensemble).  A change that alters what the program
computes, such as a new outcome class, refreshes these files in its own
benchmark change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entconv.cli import main as entconv_main  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, parse_montecarlo  # noqa: E402

OUT = ROOT / ".perfbench_out"
REFERENCE_SEED = 20261017
REFERENCE_TRIALS = 200_000   # size of the realistic_n5 reference ensemble
REFERENCE_JOBS = 2           # worker processes for the reference ensemble


def _run(workload, config: dict, extra: list[str], out: Path, scratch: Path) -> None:
    config_path = scratch / f"{workload.name}.json"
    config_path.write_text(json.dumps(config))
    argv = workload.job_argv(config_path, REFERENCE_SEED, out) + extra
    if entconv_main(argv) != 0:
        raise SystemExit(f"{workload.name}: entconv {' '.join(argv)} failed")


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        sweep = WORKLOADS["sweep_basis"]
        _run(sweep, sweep.config, [], REFERENCE_DIR / "sweep_basis.csv", scratch)

        realistic = WORKLOADS["realistic_n5"]
        config = {**realistic.config, "trials": REFERENCE_TRIALS}
        out = scratch / "realistic_n5.csv"
        _run(realistic, config, ["--jobs", str(REFERENCE_JOBS)], out, scratch)
        counts = parse_montecarlo(out.read_text(), REFERENCE_TRIALS)
    (REFERENCE_DIR / "realistic_n5.json").write_text(reference_text(config, REFERENCE_TRIALS, counts))


def reference_text(config: dict, trials: int, counts: dict) -> str:
    """The reference ensemble as JSON, one (class, round, count) row per line."""
    rows = ",\n".join(f"  {json.dumps([cls, iters, count])}" for (cls, iters), count in sorted(counts.items()))
    return (
        f'{{\n "config": {json.dumps(config)},\n "seed": {REFERENCE_SEED},\n "trials": {trials},\n'
        f' "counts": [\n{rows}\n ]\n}}\n'
    )


if __name__ == "__main__":
    main()
