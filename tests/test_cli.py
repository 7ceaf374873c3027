import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from dataclasses import replace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cli import USAGE, main
from entconv.config import (
    ConfigError,
    config_from_dict,
    load_config,
    schema_path,
)
from entconv.protocols import run_protocol


def make_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE_PROTOCOL = {
    "n_photons": 3,
    "max_iterations": 4,
    "gate_mode": "ideal",
    "homodyne_mode": "ideal",
    "params": {"g": 0.3, "kappa": 26.0, "gamma": 0.013, "omega_c": 0.0, "omega_0": 0.0, "omega_p": 0.0},
    "theta": 0.1,
    "alpha": math.sqrt(1.3e4),
    "standardize_flipped": False,
}


def full_config():
    return {
        "protocol": dict(BASE_PROTOCOL),
        "sweep": {"g_over_kappa": [0.5, 5.0], "g_over_gamma": [0.5, 5.0], "steps": 2},
        "trials": 1000,
        "seed": 42,
        "output": {"path": None, "format": "csv"},
    }


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_config_examples_validate_against_schema():
    schema = json.loads(schema_path().read_text())
    jsonschema.validate(full_config(), schema)
    jsonschema.validate({"protocol": {"n_photons": 4}, "seed": 1}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"protocol": {"n_photons": 7}}, schema)


# JSON numbers have no NaN or infinity (Python's json module reads them only as
# an extension), so the schema is checked with a number type that excludes them;
# an integer of any size is a number, and the schema's bounds judge its size
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
JsonValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine(
        "number", lambda checker, x: _TYPES.is_type(x, "number") and (isinstance(x, int) or math.isfinite(x))
    ),
)
REAL_PARAMS = {"g": 0.3, "kappa": 26.0, "gamma": 0.0004}
GRID = {"g_over_kappa": [0.5, 5.0], "g_over_gamma": [0.5, 5.0], "steps": 2}


@pytest.mark.parametrize(
    "doc",
    [
        {"trials": 1.5},
        {"sweep": {**GRID, "steps": 2.5}},
        {"sweep": {**GRID, "g_over_gamma": [0.5, math.inf]}},
        {"protocol": {"n_photons": 3, "max_iterations": 2.5}},
        {"protocol": {"n_photons": 3, "theta": 0}},
        {"protocol": {"n_photons": 3, "theta": -0.1}},
        {"protocol": {"n_photons": 3, "theta": math.nan}},
        {"protocol": {"n_photons": 3, "theta": math.inf}},
        {"protocol": {"n_photons": 3, "alpha": math.nan}},
        {"protocol": {"n_photons": 3, "alpha": -math.inf}},
        {"protocol": {"n_photons": 3, "params": {**REAL_PARAMS, "g": math.nan}}},
        {"protocol": {"n_photons": 3, "params": {**REAL_PARAMS, "kappa": math.inf}}},
        {"protocol": {"n_photons": 3, "params": {**REAL_PARAMS, "omega_p": math.nan}}},
        {"sweep": {**GRID, "g_over_kappa": ["a", 1]}},
        {"sweep": {**GRID, "g_over_kappa": [0.5, 1.0, 2.0]}},
        {"protocol": {"n_photons": 3, "theta": True}},
        {"protocol": {"n_photons": 3, "params": {**REAL_PARAMS, "g": True}}},
        {"protocol": {"n_photons": 3, "standardize_flipped": "no"}},
        {"protocol": 5},
        {"sweep": 5},
        {"output": 5},
        {"output": {"path": 5}},
        {"output": {"colour": "red"}},
        {"seed": -1},
        {"seed": -(2**70)},
        {"protocol": {}},
        {"sweep": {"g_over_kappa": [0.5, 5.0], "g_over_gamma": [0.5, 5.0]}},
    ],
    ids=repr,
)
def test_config_rejects_what_schema_rejects(tmp_path, doc):
    # every other field is valid, so the one under test decides
    doc = {"protocol": {"n_photons": 3}, "seed": 1, "trials": 10, **doc}
    with pytest.raises(jsonschema.ValidationError):
        JsonValidator(json.loads(schema_path().read_text())).validate(doc)
    assert main(["montecarlo", "--config", make_config(tmp_path, doc), "--jobs", "1"]) == 2


@pytest.mark.parametrize(
    "command,doc",
    [
        ("homodyne-curves", {"protocol": {"n_photons": 3, "theta": 10**400}}),
        ("homodyne-curves", {"protocol": {"n_photons": 3, "alpha": 10**400}}),
        ("montecarlo", {"protocol": {"n_photons": 3, "max_iterations": 10**30}}),
        ("montecarlo", {"protocol": {"n_photons": 3, "max_iterations": 1001}}),
        ("montecarlo", {"trials": 2**63}),
        ("sweep-fidelity", {"sweep": {**GRID, "steps": 201}}),
        ("sweep-fidelity", {"sweep": {**GRID, "g_over_kappa": [0.5, 10**400]}}),
        ("run", {"protocol": {"n_photons": 3, "params": {**REAL_PARAMS, "omega_p": -(10**400)}}}),
    ],
    ids=["theta", "alpha", "max_iterations_1e30", "max_iterations_1001", "trials", "steps", "sweep_range", "omega_p"],
)
def test_oversized_numbers_are_config_errors(tmp_path, capsys, command, doc):
    # every count has a documented upper bound and every number must fit a float;
    # without them a huge theta ended in an OverflowError traceback and a huge
    # max_iterations never finished
    doc = {"protocol": {"n_photons": 3}, "sweep": GRID, "seed": 1, "trials": 10, **doc}
    with pytest.raises(jsonschema.ValidationError):
        JsonValidator(json.loads(schema_path().read_text())).validate(doc)
    assert main([command, "--config", make_config(tmp_path, doc)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["montecarlo", "--seed", "1", "--trials", "0"], {}, "trials must be >= 1"),
        (["montecarlo", "--seed", "1", "--trials", str(2**63)], {}, "trials must be <= 9223372036854775807"),
        # np.random.SeedSequence takes no negative seed; it used to end as a runtime error
        (["run", "--seed", "-5"], {}, "seed must be >= 0"),
        (["montecarlo", "--seed", "-5"], {}, "seed must be >= 0"),
        (["success-table", "--rounds", "1001"], {}, "protocol.max_iterations must be <= 1000"),
        (["success-table", "--n", "6"], {}, "protocol.n_photons must be one of [3, 4, 5]"),
        (["montecarlo", "--seed", "1", "--jobs", "0"], {}, "jobs must be >= 1"),
        # a flag never hides a malformed section it would write into
        (["run", "--seed", "1", "--out", "out.json"], {"output": 5}, "output must be an object or null"),
        (["success-table", "--n", "3"], {"protocol": 5}, "protocol must be an object or null"),
    ],
    ids=["trials_0", "trials_2**63", "run_seed", "montecarlo_seed", "rounds", "n", "jobs_0", "out_over_output",
         "n_over_protocol"],
)
def test_flags_are_checked_with_the_config(tmp_path, capsys, monkeypatch, argv, doc, message):
    # each flag is written over its config field, and the document is checked once
    monkeypatch.chdir(tmp_path)
    config = make_config(tmp_path, {"protocol": {"n_photons": 3}, "trials": 10, **doc})
    assert main([*argv, "--config", config]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out.json").exists()


# the keywords config._checked interprets; any other keyword would be silently ignored
SCHEMA_KEYWORDS = {"type", "properties", "additionalProperties", "required", "enum", "minimum", "maximum",
                   "exclusiveMinimum", "items", "minItems", "maxItems"}
SCHEMA_ANNOTATIONS = {"$schema", "title", "description"}


def test_schema_uses_only_the_keywords_the_checker_reads():
    def walk(node, where):
        assert set(node) <= SCHEMA_KEYWORDS | SCHEMA_ANNOTATIONS, (where, set(node) - SCHEMA_KEYWORDS)
        assert node.get("additionalProperties", False) is False, where   # read only as false
        for name, sub in node.get("properties", {}).items():
            walk(sub, f"{where}.{name}")
        if "items" in node:
            walk(node["items"], f"{where}[]")

    walk(json.loads(schema_path().read_text()), "config")


_REALISTIC = {"n_photons": 3, "gate_mode": "realistic"}


@pytest.mark.parametrize(
    "command,doc",
    [
        ("run", {"protocol": {**_REALISTIC, "params": {**REAL_PARAMS, "g": 1e200}}}),
        ("run", {"protocol": {**_REALISTIC, "params": {**REAL_PARAMS, "omega_c": 1e308, "omega_p": -1e308}}}),
        ("run", {"protocol": {**_REALISTIC, "params": {"g": 0.0, "kappa": 5e-324, "gamma": 1.0}}}),
        ("sweep-fidelity", {"protocol": _REALISTIC, "sweep": {**GRID, "g_over_kappa": [1e-300, 1e-200],
                                                             "g_over_gamma": [1e-300, 1e-200]}}),
    ],
    ids=["g_squared_overflows", "detuning_overflows", "response_divides_by_zero", "sweep_rates_overflow"],
)
def test_non_finite_resonator_response_is_runtime_error(tmp_path, capsys, command, doc):
    # the schema accepts these finite numbers, but the reflection coefficients
    # overflow or divide by zero; that used to end in an OverflowError or
    # ZeroDivisionError traceback or in nan output
    out = tmp_path / "out.csv"
    assert main([command, "--config", make_config(tmp_path, {"seed": 1, **doc}), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "runtime error: resonator response is not finite at these parameters\n"
    assert not out.exists()


def test_sweep_at_vanishing_kappa_prices_the_gate_as_a_run_does(tmp_path):
    # kappa near 1e-308 is a finite gate for one parameter set and, with one
    # arithmetic, for a grid too; numpy's complex division took the reciprocal
    # of the subnormal denominator, overflowed and made the sweep exit 3
    doc = {"protocol": _REALISTIC, "sweep": {**GRID, "g_over_kappa": [1e300, 1e308]}, "seed": 1}
    out = tmp_path / "sweep.csv"
    assert main(["sweep-fidelity", "--config", make_config(tmp_path, doc), "--out", str(out)]) == 0
    fidelities = [float(row["fidelity"]) for row in csv.DictReader(out.read_text().splitlines())]
    assert len(fidelities) == 8 and all(0.0 <= f <= 1.0 for f in fidelities)
    run = {"protocol": {**_REALISTIC, "params": {"g": 1.0, "kappa": 1e-308, "gamma": 2.0}}, "seed": 1}
    assert main(["run", "--config", make_config(tmp_path, run, "run.json"), "--out", str(tmp_path / "run.json")]) == 0


@pytest.mark.parametrize(
    "g,code", [(2**64, 0), (10**300, 3)], ids=["beyond_int64", "301_digits"],
)
def test_integers_the_schema_accepts_reach_the_model_as_floats(tmp_path, capsys, g, code):
    # an integer beyond int64 but within the float range meets the schema; handed
    # on as an int it made numpy's isfinite raise a TypeError traceback
    doc = {"protocol": {**_REALISTIC, "params": {**REAL_PARAMS, "g": g}}, "seed": 1}
    JsonValidator(json.loads(schema_path().read_text())).validate(doc)
    assert config_from_dict(doc)["protocol"].params.g == float(g)
    assert main(["run", "--config", make_config(tmp_path, doc), "--out", str(tmp_path / "out.json")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_counts_at_their_bounds_are_accepted(tmp_path):
    doc = {"protocol": {"n_photons": 3, "max_iterations": 1000}, "sweep": {**GRID, "steps": 200},
           "seed": 1, "trials": 2**63 - 1}
    JsonValidator(json.loads(schema_path().read_text())).validate(doc)
    assert config_from_dict(doc)["protocol"].max_iterations == 1000
    assert main(["success-table", "--n", "3", "--rounds", "1000", "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["success-table", "--n", "3", "--rounds", "1001", "--out", str(tmp_path / "t.csv")]) == 2
    # an ideal-gate ensemble at both bounds is one exact table and one draw
    ensemble = {"protocol": {"n_photons": 5, "max_iterations": 1000, "homodyne_mode": "gaussian"},
                "seed": 1, "trials": 2**63 - 1}
    JsonValidator(json.loads(schema_path().read_text())).validate(ensemble)
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", make_config(tmp_path, ensemble, "mc.json"), "--out", str(out)]) == 0
    assert sum(int(row[2]) for row in read_rows(out)[1]) == 2**63 - 1


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"protocol": {"n_photons": 3, "typo": 1}})


def test_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_run_reports_four_photon_success(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 4}, "seed": 5})
    out = tmp_path / "report.json"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["outcome_class"] == "W"
    assert report["iterations_used"] == 1
    assert report["homodyne_tags"][0] in (1, 3)


def test_run_seeded_byte_identical(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 5, "max_iterations": 8}, "seed": 77})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", config, "--out", str(a)]) == 0
    assert main(["run", "--config", config, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_realistic_reports_norm_and_fidelity(tmp_path):
    cfg = {
        "protocol": {
            "n_photons": 3,
            "gate_mode": "realistic",
            "params": {"g": 5.0, "kappa": 1.0, "gamma": 1.0},
        },
        "seed": 3,
    }
    out = tmp_path / "real.json"
    assert main(["run", "--config", make_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 0 < report["accumulated_norm"] < 1
    assert report["fidelity_vs_ideal"] is not None
    assert report["fidelity_vs_ideal"] > 0.99


def test_run_realistic_fidelity_follows_the_runs_own_spins(tmp_path):
    protocol = {"n_photons": 5, "max_iterations": 8, "gate_mode": "realistic", "params": REAL_PARAMS}
    out = tmp_path / "real.json"
    assert main(["run", "--config", make_config(tmp_path, {"protocol": protocol, "seed": 0}), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    spec = config_from_dict({"protocol": protocol})["protocol"]
    run = run_protocol(spec, rng=np.random.default_rng(np.random.SeedSequence(0)))
    assert 1 in run.spin_outcomes
    # the run's own final state against the ideal trajectory on its tags
    ideal = run_protocol(replace(spec, gate_mode="ideal"), forced_tags=run.true_tags)
    own = abs(np.vdot(run.final_state, ideal.final_state)) ** 2
    assert report["fidelity_vs_ideal"] == pytest.approx(own, rel=1e-12)


def test_run_without_seed_is_config_error(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 3}})
    assert main(["run", "--config", config]) == 2


def test_run_without_config_is_config_error():
    assert main(["run", "--seed", "1"]) == 2


def test_montecarlo_csv(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 4}, "seed": 11, "trials": 500})
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", config, "--out", str(out), "--jobs", "1"]) == 0
    header, rows = read_rows(out)
    assert header == ["outcome_class", "iterations", "count", "frequency"]
    assert rows == [["W", "1", "500", "1"]]


def test_montecarlo_without_trials_runs_one_trial(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 4}, "seed": 11})
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", config, "--out", str(out)]) == 0
    assert read_rows(out)[1] == [["W", "1", "1", "1"]]


def test_montecarlo_byte_identical(tmp_path):
    config = make_config(
        tmp_path, {"protocol": {"n_photons": 3, "max_iterations": 4}, "seed": 21, "trials": 20000}
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["montecarlo", "--config", config, "--out", str(a), "--jobs", "1"]) == 0
    assert main(["montecarlo", "--config", config, "--out", str(b), "--jobs", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_montecarlo_matches_closed_form(tmp_path):
    config = make_config(
        tmp_path, {"protocol": {"n_photons": 3, "max_iterations": 1}, "seed": 31, "trials": 100000}
    )
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", config, "--out", str(out), "--jobs", "1"]) == 0
    _, rows = read_rows(out)
    freq = {row[0]: float(row[3]) for row in rows}
    assert abs(freq["W"] - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / 100000)


def test_sweep_fidelity_rows_and_monotonicity(tmp_path):
    config = make_config(tmp_path, full_config())
    out = tmp_path / "sweep.csv"
    assert main(["sweep-fidelity", "--config", config, "--out", str(out), "--jobs", "1",
                 "--input", "basis-average"]) == 0
    header, rows = read_rows(out)
    assert header == ["g_over_kappa", "g_over_gamma", "outcome", "fidelity"]
    assert len(rows) == 8  # 2x2 grid, two outcomes
    # fidelity at g/kappa = g/gamma = 5 (g^2 = 25 kappa gamma) stays above 0.99
    strong = [float(r[3]) for r in rows if r[0] == "5" and r[1] == "5"]
    assert strong and all(f >= 0.99 for f in strong)
    # nondecreasing along each axis for each outcome
    table = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    for outcome in ("plus", "minus"):
        assert table[("5", "0.5", outcome)] >= table[("0.5", "0.5", outcome)] - 1e-12
        assert table[("0.5", "5", outcome)] >= table[("0.5", "0.5", outcome)] - 1e-12


def test_sweep_fidelity_missing_grid(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 3}})
    assert main(["sweep-fidelity", "--config", config]) == 2


def test_homodyne_curves_contract(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["homodyne-curves", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["kind", "x", "pdf_k1", "pdf_k3", "pdf_k5", "value"]
    curve = [r for r in rows if r[0] == "curve"]
    assert len(curve) == 1000
    xs = np.array([float(r[1]) for r in curve])
    for col, k in ((2, 1), (3, 3), (4, 5)):
        pdf = np.array([float(r[col]) for r in curve])
        assert abs(np.trapezoid(pdf, xs) - 1.0) < 1e-6
        peak_x = xs[np.argmax(pdf)]
        mean = 2 * math.sqrt(1.3e4) * math.cos(k * 0.1)
        assert abs(peak_x - mean) <= (xs[1] - xs[0])
    summary = {r[0]: float(r[5]) for r in rows if r[0] != "curve"}
    assert summary["P_error1"] < 1e-5
    assert summary["P_error2"] < 1e-5
    assert summary["x_d1"] == pytest.approx(9.0456219, abs=1e-6)
    assert summary["x_d2"] == pytest.approx(17.7306234, abs=1e-6)


def test_homodyne_curves_degenerate_theta_is_runtime_error(tmp_path):
    cfg = {"protocol": {"n_photons": 3, "theta": 1e-13}}
    assert main(["homodyne-curves", "--config", make_config(tmp_path, cfg)]) == 3


def test_homodyne_curves_too_coarse_a_step_is_runtime_error(tmp_path, capsys):
    # at alpha = 10000 the 1000 samples lie 2.36 apart and the k=1 curve
    # printed a peak of 0.22 instead of 1/sqrt(2 pi)
    out = tmp_path / "curves.csv"
    cfg = {"protocol": {"n_photons": 3, "alpha": 10000.0}}
    assert main(["homodyne-curves", "--config", make_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: curve step 2.36 ") and err.count("\n") == 1
    assert not out.exists()


def test_homodyne_curves_keep_their_peaks_at_the_widest_step(tmp_path):
    out = tmp_path / "curves.csv"
    cfg = {"protocol": {"n_photons": 3, "alpha": 1000.0}}
    assert main(["homodyne-curves", "--config", make_config(tmp_path, cfg), "--out", str(out)]) == 0
    curve = [r for r in read_rows(out)[1] if r[0] == "curve"]
    assert 0.24 < float(curve[1][1]) - float(curve[0][1]) <= 0.25
    for col in (2, 3, 4):
        peak = max(float(r[col]) for r in curve)
        assert abs(peak * math.sqrt(2 * math.pi) - 1) <= 0.01


@pytest.mark.parametrize("theta", [1.0, 2.0])
def test_homodyne_curves_past_monotone_means(tmp_path, theta):
    # beyond 5 theta = pi the means no longer fall as the tag rises; the curve
    # distances run between adjacent means in mean order and stay positive
    out = tmp_path / "curves.csv"
    cfg = {"protocol": {"n_photons": 3, "theta": theta, "alpha": 10.0}}
    assert main(["homodyne-curves", "--config", make_config(tmp_path, cfg), "--out", str(out)]) == 0
    summary = {r[0]: float(r[5]) for r in read_rows(out)[1] if r[0] != "curve"}
    assert sorted(summary) == ["P_error1", "P_error2", "x_d1", "x_d2"]
    assert all(math.isfinite(v) and v > 0 for v in summary.values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["homodyne-curves", "run", "montecarlo"])
def test_overflowing_probe_means_are_runtime_error(tmp_path, capsys, command):
    # 2 alpha cos(k theta) is inf at alpha = 1e308, which the schema accepts;
    # curves printed nan rows, a gaussian run read every probe as one tag and
    # an ensemble failed inside numpy
    cfg = {"protocol": {"n_photons": 3, "homodyne_mode": "gaussian", "alpha": 1e308}, "seed": 4, "trials": 100}
    out = tmp_path / "out.csv"
    assert main([command, "--config", make_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "runtime error: probe quadrature means overflow\n"
    assert not out.exists()


def test_huge_finite_probe_reads_every_tag(tmp_path):
    # at alpha = 8e307 the means are finite but the sum of two overflows; the
    # peaks lie so far apart that gaussian readout classifies as ideal readout
    # does, and the exact ensemble table gives the same seeded counts
    outs = []
    for mode in ("ideal", "gaussian"):
        cfg = {"protocol": {"n_photons": 3, "homodyne_mode": mode, "alpha": 8e307}, "seed": 4, "trials": 1000}
        outs.append(tmp_path / f"{mode}.csv")
        assert main(["montecarlo", "--config", make_config(tmp_path, cfg), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_success_table_golden(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["success-table", "--n", "3", "--rounds", "4", "--out", str(out)]) == 0
    assert out.read_text() == (
        "n_photons,outcome_class,round,per_round_probability,cumulative_probability\n"
        "3,W,1,0.75,0.75\n"
        "3,W,2,0.1875,0.9375\n"
        "3,W,3,0.046875,0.984375\n"
        "3,W,4,0.01171875,0.99609375\n"
        "3,W,limit,,1\n"
    )


def test_success_table_five_photon_series(tmp_path):
    out = tmp_path / "table5.csv"
    assert main(["success-table", "--n", "5", "--rounds", "8", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    w_rows = [r for r in rows if r[1] == "W" and r[2] != "limit"]
    assert float(w_rows[-1][4]) == pytest.approx((1 - 16.0**-8) / 3, abs=1e-9)
    limits = {r[1]: float(r[4]) for r in rows if r[2] == "limit"}
    assert limits["W"] == pytest.approx(1 / 3, abs=1e-12)
    assert limits["Dicke"] == pytest.approx(2 / 3, abs=1e-12)


def test_success_table_four_photons(tmp_path):
    out = tmp_path / "table4.csv"
    assert main(["success-table", "--n", "4", "--rounds", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0] == ["4", "W", "1", "1", "1"]


def test_success_table_bad_n():
    assert main(["success-table", "--n", "6", "--rounds", "2"]) == 2


def test_unwritable_out_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "table.csv"
    assert main(["success-table", "--n", "3", "--rounds", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: cannot write output") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "a command is required"),
        (["frobnicate", "--config", "CONFIG", "--out", "out"], "invalid choice: 'frobnicate'"),
        (["run", "--config", "CONFIG", "--out", "out", "stray"], "unrecognized arguments: stray"),
        (["run", "--config", "CONFIG", "--out", "out", "--seed"], "argument --seed: expected one argument"),
        # a value that begins with "-" and is no negative number is the next flag, not a path
        (["run", "--config", "CONFIG", "--out", "--seed", "1"], "argument --out: expected one argument"),
        (["run", "--config", "CONFIG", "--out", "out", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["run", "--config", "CONFIG", "--out", "out", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["sweep-fidelity", "--config", "CONFIG", "--out", "out", "--input", "diagonal"],
         "argument --input: invalid choice: 'diagonal'"),
        # flags are spelled in full: argparse used to read --conf as --config
        (["run", "--conf", "CONFIG", "--out", "out"], "unrecognized arguments: --conf"),
    ],
    ids=["no_command", "frobnicate", "stray", "seed_last", "out_then_flag", "seed_x", "format_xml", "input_diagonal",
         "conf"],
)
def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    config = make_config(tmp_path, full_config())
    assert main([config if token == "CONFIG" else token for token in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"{USAGE}entconv: error: {message}")
    assert err.count("\n") == USAGE.count("\n") + 1   # one error line, no traceback
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_flags_take_the_spellings_argparse_took(tmp_path):
    config = make_config(tmp_path, full_config())
    out = tmp_path / "run.json"

    def run(*flags):
        assert main(["run", "--config", config, *flags]) == 0
        return out.read_bytes()

    five = run("--seed", "5", "--out", str(out))
    assert run(f"--out={out}", "--seed=5") == five
    assert run("--out", str(out), "--seed", "1", "--seed", "5") == five   # the last value wins
    assert run("--out", str(out), "--seed", " +0_5 ") == five   # int() reads what argparse's type=int read
    assert run("--out", str(out), "--seed", "1") != five


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "--help"], ["sweep-fidelity", "--config", "x", "-h"]],
                         ids=["h", "help", "run_help", "sweep_h"])
def test_help_prints_the_usage_text(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE, "")


def test_readme_cli_block_is_the_usage_text():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    assert [line.strip() for line in block.splitlines()] == \
        [line.removeprefix("usage:").strip() for line in USAGE.splitlines()]


def test_json_format_flag(tmp_path):
    out = tmp_path / "table.json"
    assert main(["success-table", "--n", "4", "--rounds", "1", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["outcome_class"] == "W"
    assert rows[0]["cumulative_probability"] == 1.0


def test_malformed_config_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--seed", "1"]) == 2


@pytest.mark.parametrize("document", [
    b'{"seed": 1, "protocol": {"n_photons": 3}}\xff',   # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,                      # nested past the parser's stack
    b'{"seed": 1' + b"0" * 5000 + b"}",                   # an integer past int()'s digit limit
], ids=["invalid_utf8", "deep_array", "5000_digit_int"])
def test_undecodable_config_exits_two(tmp_path, capsys, document):
    path = tmp_path / "config.json"
    path.write_bytes(document)
    assert main(["run", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_montecarlo_output_independent_of_jobs(tmp_path):
    cfg = {
        "protocol": {"n_photons": 3, "max_iterations": 4, "homodyne_mode": "gaussian"},
        "seed": 55,
        "trials": 4000,
    }
    config = make_config(tmp_path, cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["montecarlo", "--config", config, "--out", str(a), "--jobs", "1"]) == 0
    assert main(["montecarlo", "--config", config, "--out", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


WEAK_PARAMS = {"g": 1.0, "kappa": 3.3333333333333335, "gamma": 2.5}   # CavityParams.from_ratios(0.3, 0.4)
# what these seeds reported before a leaked true tag was told apart
UNLEAKED_FIDELITY = {0: 0.6418177709542928, 5: 0.16348344432407896, 6: 0.7345711669423323,
                     8: 0.8305718441525544, 9: 0.6418177709542928}


@pytest.mark.parametrize("seed", range(10))
def test_run_with_a_leaked_tag_reports_no_fidelity(tmp_path, seed):
    protocol = {"n_photons": 3, "max_iterations": 4, "gate_mode": "realistic", "params": WEAK_PARAMS}
    out = tmp_path / "run.json"
    assert main(["run", "--config", make_config(tmp_path, {"protocol": protocol, "seed": seed}), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    leaked = not set(report["true_tags"]) <= {1, 3}
    assert leaked == (seed not in UNLEAKED_FIDELITY)
    if leaked:
        assert report["fidelity_vs_ideal"] is None
    else:
        assert report["fidelity_vs_ideal"] == pytest.approx(UNLEAKED_FIDELITY[seed], rel=1e-12)


def test_four_photon_realistic_ensemble_counts_failed_no_recovery(tmp_path):
    config = make_config(tmp_path, {"protocol": {"n_photons": 4, "gate_mode": "realistic"}, "trials": 20000})
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", config, "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert {row[0] for row in rows} == {"W", "failed_no_recovery"}
    assert sum(int(row[2]) for row in rows) == 20000


@pytest.mark.parametrize(
    "command,flag",
    [("run", "--trials"), ("run", "--jobs"), ("sweep-fidelity", "--seed"), ("sweep-fidelity", "--trials"),
     ("homodyne-curves", "--seed"), ("homodyne-curves", "--trials"), ("homodyne-curves", "--jobs"),
     ("success-table", "--seed"), ("success-table", "--trials"), ("success-table", "--jobs")],
)
def test_flag_a_command_would_ignore_is_rejected(tmp_path, capsys, command, flag):
    argv = [command, "--config", make_config(tmp_path, full_config()), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [flag, "1"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


# config documents built from the schema's field names. With junk, each field or
# section is a valid value most of the time and anything else otherwise, any
# section may hold an unknown key, and counts reach one past their bounds.
# Without it, every document is one the schema accepts and names each top-level
# field, for a handler reads an absent field as it reads a null one.
_OVERSIZED = st.one_of(
    st.integers(2**62, 2**64), st.integers(-(2**64), -(2**62)), st.sampled_from([10**400, -(10**400), 10**30]),
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(), st.sampled_from([1.5, 2.0]),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2), _OVERSIZED,
)
_POSITIVE = st.floats(1e-3, 30.0)
_OFFSET = st.floats(-5.0, 5.0)


def _documents(junk: bool):
    def maybe(valid):
        return st.integers(0, 9).flatmap(lambda i: _JUNK if i == 0 else valid) if junk else valid

    def edges(accepted, rejected):
        return st.sampled_from(accepted + rejected if junk else accepted)

    def section(required, optional):
        fields = st.fixed_dictionaries(
            {name: maybe(v) for name, v in required.items()},
            optional={**{name: maybe(v) for name, v in optional.items()}, **({"unknown": _JUNK} if junk else {})},
        )
        return maybe(fields)

    params = section({"g": st.floats(0.0, 10.0), "kappa": _POSITIVE, "gamma": _POSITIVE},
                     {"omega_c": _OFFSET, "omega_0": _OFFSET, "omega_p": _OFFSET})
    protocol = section({"n_photons": st.sampled_from([3, 4, 5])}, {
        "max_iterations": st.one_of(st.integers(1, 8), edges([1000], [1001])),
        "gate_mode": st.sampled_from(["ideal", "realistic"]),
        "homodyne_mode": st.sampled_from(["ideal", "gaussian"]),
        "theta": st.floats(1e-3, 3.0),
        "alpha": st.one_of(st.floats(0.0, 200.0), st.sampled_from([1e308, 8e307])),
        "standardize_flipped": st.booleans(),
        "params": params,
    })
    axis = st.lists(maybe(_POSITIVE), min_size=2, max_size=2)
    sweep = section({"g_over_kappa": axis, "g_over_gamma": axis,
                     "steps": st.one_of(st.integers(2, 5), edges([200], [201]))}, {})
    output = section({}, {"path": st.one_of(st.none(), st.text(max_size=5)), "format": st.sampled_from(["csv", "json"])})
    seeds = [st.none(), st.integers(0, 2**32)] + ([st.integers(-(2**32), -1)] if junk else [])
    fields = {
        "protocol": st.one_of(st.none(), protocol),
        "sweep": st.one_of(st.none(), sweep),
        "trials": st.one_of(st.integers(1, 10**6), edges([2**63 - 1], [2**63])),
        "seed": maybe(st.one_of(*seeds)),
        "output": st.one_of(st.none(), output),
    }
    return section({}, fields) if junk else section(fields, {})


_DOCUMENTS = _documents(junk=True)


def _assert_defined_outcome(command, doc):
    """``command`` on ``doc`` with ``--out`` exits 0, 2 or 3, prints no traceback and writes no NaN or infinity."""
    # a directory per example: a function-scoped tmp_path would be shared by all of them
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", make_config(Path(tmp), doc), "--out", str(out)])
        text = out.read_text().lower() if code == 0 else ""
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "nan" not in text and "inf" not in text


# the slowest example seen, a 200-step sweep, took 0.36 s (three suite runs, 2-core
# VM); a document that does not end fails at this deadline instead of hanging
EXAMPLE_DEADLINE_MS = 5000


@settings(max_examples=200, deadline=EXAMPLE_DEADLINE_MS)
@given(_DOCUMENTS)
def test_config_contract_agrees_with_schema(doc):
    doc = json.loads(json.dumps(doc))   # as the CLI reads it back
    schema = JsonValidator(json.loads(schema_path().read_text()))
    try:
        config = config_from_dict(doc)
    except ConfigError:
        config = None
    assert (config is not None) == schema.is_valid(doc)
    _assert_defined_outcome("homodyne-curves", doc)


# montecarlo is left out: a realistic ensemble at the trials the schema accepts does not finish
@pytest.mark.parametrize("command", ["run", "success-table", "sweep-fidelity"])
@settings(max_examples=100, deadline=EXAMPLE_DEADLINE_MS)
@given(doc=st.one_of(_DOCUMENTS, _documents(junk=False)))
def test_every_document_ends_in_a_defined_outcome(command, doc):
    _assert_defined_outcome(command, json.loads(json.dumps(doc)))
