"""The runtime package stands alone: it imports nothing from the test tree, the
spin-register primitives live only in the test oracle, and amplitude rows are
the only state type.  Importing the CLI leaves ``numpy.random`` unimported,
and so do a seeded run and a realistic ensemble that draw from
``stream.Stream``; a command line is read without an argument parser
library, the success table without ``fractions`` or ``decimal``, and configs
are checked without the test extras."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import entconv
from entconv import cavity, cli, cnot, optics, qstate

TEST_TREE = {"tests", "conftest", "oracle"}
MODULES = ("qstate", "cavity", "optics", "cnot", "kerr", "protocols", "config", "cli", "stream")
MOVED = (
    "SPIN", "Site", "MeasurementRecord", "measure_site", "measure_spin", "attach_spin", "discard_spin",
    "apply_single_qubit", "apply_controlled", "qwp", "hwp", "spin_hadamard", "cnot_ideal", "SpinPhotonMap",
    "IDEAL_BOUNCE",
)
STATE_WRAPPERS = (
    "QuantumState", "Pol", "make_basis_state", "superpose", "inner", "cnot_fidelity", "uniform_input", "basis_inputs",
    "Spin",
)


def test_runtime_does_not_import_the_test_tree():
    paths = sorted(Path(entconv.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]   # None for "from . import x"
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in TEST_TREE, (path.name, module)


def test_spin_register_names_are_gone():
    for module in (entconv, qstate, optics, cnot, cavity):
        assert [name for name in MOVED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(cavity.CavityParams, "resonant")


def test_state_wrappers_are_gone():
    for module in (entconv, qstate, cnot):
        assert [name for name in STATE_WRAPPERS if hasattr(module, name)] == [], module.__name__


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports this entconv."""
    src = str(Path(entconv.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_the_cli_module_runs_as_a_script():
    # python -m entconv.cli reads sys.argv and exits with main's code: the usage
    # on stdout for --help (exit 0), and on stderr for an unknown command (exit 2)
    src = str(Path(entconv.__file__).resolve().parent.parent)
    shown, bad = (subprocess.run([sys.executable, "-m", "entconv.cli", arg], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src}) for arg in ("--help", "frobnicate"))
    assert (shown.returncode, shown.stdout, shown.stderr) == (0, cli.USAGE, "")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith(cli.USAGE) and "invalid choice: 'frobnicate'" in bad.stderr


NUMPY_RANDOM = "sorted(m for m in sys.modules if m.startswith('numpy.random'))"


def test_importing_the_cli_leaves_numpy_random_unimported():
    # only run and montecarlo draw, and they draw from stream.Stream; the import costs 13–18 ms
    code = f"import sys, entconv.cli; print({NUMPY_RANDOM})"
    assert _fresh_interpreter(code) == "[]"


def test_the_success_table_loads_no_exact_arithmetic_module():
    # the closed forms are written as exact binary floats; fractions and decimal
    # took ~2 ms of every CLI import
    code = ("import os, sys; from entconv.cli import main; "
            "codes = [main(['success-table', '--n', str(n), '--rounds', '1000', '--out', os.devnull]) for n in (3, 4, 5)]; "
            "print(codes, sorted({'fractions', 'decimal', '_decimal'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == "[0, 0, 0] []"


def _commands_in_fresh_interpreter(tmp_path, gate_mode: str, *commands) -> str:
    """Exit codes of each n=5 gaussian-readout command, then the ``numpy.random`` modules loaded, in a new interpreter."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": {"n_photons": 5, "gate_mode": gate_mode, "homodyne_mode": "gaussian",
                                               "params": {"g": 0.3, "kappa": 26.0, "gamma": 0.0004}}, "seed": 20260810}))
    argvs = [[*command, "--config", str(config), "--out", os.devnull] for command in commands]
    code = f"import sys; from entconv.cli import main; print([main(a) for a in {argvs!r}], {NUMPY_RANDOM})"
    return _fresh_interpreter(code)


def test_a_run_and_a_realistic_ensemble_leave_numpy_random_unimported(tmp_path):
    # 300 realistic n=5 trials draw ~2 200 uniforms, well below stream.HANDOVER
    out = _commands_in_fresh_interpreter(tmp_path, "realistic", ["run"], ["montecarlo", "--trials", "300"])
    assert out == "[0, 0] []"


def test_an_ideal_gate_ensemble_imports_numpy_random_for_its_multinomial(tmp_path):
    # where the Python stream stops: numpy's binomial, which the multinomial draws with, is not ported
    out = _commands_in_fresh_interpreter(tmp_path, "ideal", ["montecarlo", "--trials", "300"])
    assert out.startswith("[0] [") and "'numpy.random'" in out


def test_commands_load_no_argument_parser(tmp_path):
    # argparse's first message lookup imported gettext and locale: ~8 ms of every call
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": {"g_over_kappa": [0.5, 5.0], "g_over_gamma": [0.5, 5.0], "steps": 2}}))
    code = ("import os, sys; from entconv.cli import main; "
            "codes = (main(['success-table', '--n', '3', '--rounds', '2', '--out', os.devnull]), "
            f"main(['sweep-fidelity', '--config', {str(config)!r}, '--out', os.devnull])); "
            "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == "(0, 0) []"


def test_the_runtime_checks_configs_without_the_test_extras(tmp_path):
    # jsonschema is a test extra: with it blocked, a valid document runs (exit 0)
    # and one the schema rejects is a config error (exit 2)
    ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
    ok.write_text(json.dumps({"protocol": {"n_photons": 3}, "seed": 1}))
    bad.write_text(json.dumps({"protocol": {"n_photons": 6}, "seed": 1}))
    code = ("import sys; sys.modules['jsonschema'] = None; from entconv.cli import main; "
            f"print((main(['run', '--config', {str(ok)!r}, '--out', {str(tmp_path / 'run.json')!r}]), "
            f"main(['run', '--config', {str(bad)!r}])))")
    assert _fresh_interpreter(code) == "(0, 2)"


def _readme_dotted_names(readme: Path):
    """``(owner, name)`` of every inline code span in ``readme`` that begins ``owner.name``."""
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        match = re.match(r"(\w+)\.(\w+)", span)
        if match:
            yield match.groups()


def test_readme_api_names_resolve():
    # every `module.name` of the package's modules, and every `Name.attr` of a class
    # one of them defines, is one a reader can call today
    readme = Path(__file__).resolve().parent.parent / "README.md"
    modules = [importlib.import_module(f"entconv.{name}") for name in MODULES]
    owners = {module.__name__.split(".")[1]: module for module in modules}
    owners.update((name, obj) for module in modules for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__)
    checked, missing = 0, []
    for owner, name in sorted(set(_readme_dotted_names(readme))):
        if owner in owners:
            checked += 1
            obj = owners[owner]
            if not (hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", {})):
                missing.append(f"{owner}.{name}")
    assert checked
    assert missing == []
