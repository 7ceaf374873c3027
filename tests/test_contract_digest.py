"""The seeded CLI outputs match the committed contract digest, line by line.

``scripts/contract_digest.py`` runs its grid of CLI calls in this process
(about 1.5 s).  A change that moves seeded bytes on purpose regenerates
``results/contract_digest.txt`` with that script.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _digest_script():
    spec = importlib.util.spec_from_file_location("contract_digest", ROOT / "scripts" / "contract_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numpy_build() -> str:
    """numpy's version and BLAS, and the OpenBLAS core when one is forced: the BLAS kernel moves realistic bytes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    text = f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"
    if "OPENBLAS_CORETYPE" in os.environ:
        text += f", OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    return text


def test_seeded_outputs_match_the_committed_digest(tmp_path):
    committed = (ROOT / "results" / "contract_digest.txt").read_text().splitlines()
    got = list(_digest_script().lines(tmp_path))
    labels = [line.split(" ", 2)[2] for line in committed]   # <sha256> <exit code> <call>
    assert [line.split(" ", 2)[2] for line in got] == labels, "the grid of calls changed"
    moved = [name for name, want, have in zip(labels, committed, got) if want != have]
    assert not moved, f"{len(moved)} of {len(got)} digest lines moved under {_numpy_build()}:\n" + "\n".join(moved)
