"""``results/`` is the byte contract that ``scripts/write_contract.py`` writes.

The writer runs once in this process, into a temporary directory (about
2.5 s).  The two directories must hold the same file names, so a missing or
an extra file fails, and every file must match byte for byte.  A change that
moves bytes on purpose rewrites ``results/`` with
``PYTHONPATH=src python scripts/write_contract.py`` and says why.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
DIGEST = "contract_digest.txt"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("write_contract", ROOT / "scripts" / "write_contract.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    directory = tmp_path_factory.mktemp("contract")
    module.write_contract(directory)
    return directory


def _names(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir())


def _numpy_build() -> str:
    """numpy's version and BLAS, and the OpenBLAS core when one is forced: the BLAS kernel moves realistic bytes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    text = f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"
    if "OPENBLAS_CORETYPE" in os.environ:
        text += f", OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    return text


def test_seeded_outputs_match_the_committed_digest(written):
    committed = (RESULTS / DIGEST).read_text().splitlines()
    got = (written / DIGEST).read_text().splitlines()
    labels = [line.split(" ", 2)[2] for line in committed]   # <sha256> <exit code> <call>
    assert [line.split(" ", 2)[2] for line in got] == labels, "the grid of calls changed"
    moved = [name for name, want, have in zip(labels, committed, got) if want != have]
    assert not moved, f"{len(moved)} of {len(got)} digest lines moved under {_numpy_build()}:\n" + "\n".join(moved)


def test_results_is_the_written_contract(written):
    assert _names(RESULTS) == _names(written)
    differ = [name for name in _names(written) if (RESULTS / name).read_bytes() != (written / name).read_bytes()]
    assert differ == [], f"these files differ from the written contract: {differ}"
