"""Strict parameter handling: verify suites, check params and solver configs.

Malformed input must end with exit code 2 and a message that names where
the problem is, before any check or solver run starts; never a traceback
and never a silently applied default.
"""

import copy
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lanslab.checks import CHECKS, check_parameters, parse_params
from lanslab.cli import main
from lanslab.errors import ConfigError
from lanslab.solver import SolverConfig, config_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

VALID_SUITE = {
    "checks": [
        {"id": "k2_tail", "params": {"r": 2.5}},
        {"id": "bernstein", "params": {"n": 2, "N": 16, "trials": 2, "seed": 1}},
        {"id": "heat_smoothing", "params": {"n": 2, "N": 16, "trials": 1, "t_grid": [0.01, 1]}},
        {"id": "energy_monotone", "params": {"n": 2, "N": 16, "T": 0.01, "initial_kind": "zero"}},
    ]
}
VALID_CONFIG = {
    "n": 3,
    "N": 16,
    "T": 0.01,
    "dt": 0.005,
    "initial": {"kind": "taylor_green", "amplitude": 0.1},
    "besov": {"r": 2.5, "p": 2},
    "picard": {"max_iter": 3, "ball_radius": None},
}


def _run(tmp_path, command, doc, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, capsys.readouterr().err, out


def test_valid_inputs_parse():
    for entry in VALID_SUITE["checks"]:
        parse_params(entry["id"], entry["params"])
    config_from_dict(VALID_CONFIG)


@pytest.mark.parametrize("name", ["verify_default.json", "verify_extended.json"])
def test_shipped_suites_parse(name):
    for entry in json.loads((CONFIGS / name).read_text())["checks"]:
        parse_params(entry["id"], entry["params"])


# Each case exited 0 (silently applied) or 1 (traceback) before parameters
# were read against the check signatures.
BERNSTEIN = {"n": 2, "N": 16, "trials": 2}
SUITE_PROBES = {
    "unknown_key": ({"id": "bernstein", "params": {**BERNSTEIN, "bogus": 1}}, ["bernstein", "'bogus'"]),
    "float_count": ({"id": "bernstein", "params": {**BERNSTEIN, "trials": 1.7}}, ["bernstein", "'trials'", "integer"]),
    "string_flag": ({"id": "product", "params": {"n": 3, "N": 16, "refine": "no"}}, ["product", "'refine'", "boolean"]),
    "string_count": ({"id": "bernstein", "params": {**BERNSTEIN, "trials": "abc"}}, ["bernstein", "'trials'"]),
    "missing_required": ({"id": "k2_tail", "params": {}}, ["k2_tail", "'r'"]),
    "bad_dimension": ({"id": "bernstein", "params": {**BERNSTEIN, "n": 4}}, ["bernstein", "n=4"]),
    "bad_points": ({"id": "bernstein", "params": {**BERNSTEIN, "N": 12}}, ["bernstein", "N=12"]),
    "entry_not_object": ("bernstein", ["checks[1]", "'bernstein'"]),
    "params_not_object": ({"id": "bernstein", "params": [1, 2]}, ["checks[1]", "bernstein", "'params'"]),
    # well-typed but out of range: each raised from inside the check
    "unresolved_j_max": ({"id": "partition_of_unity", "params": {"n": 3, "N": 32, "j_max": 9}},
                         ["checks[1]", "partition_of_unity", "'j_max'", "<= 3"]),
    "negative_j_max": ({"id": "partition_of_unity", "params": {"n": 2, "N": 16, "j_max": -1}},
                       ["checks[1]", "partition_of_unity", "'j_max'"]),
    "unresolved_j_hi": ({"id": "bernstein", "params": {**BERNSTEIN, "j_hi": 9}},
                        ["checks[1]", "bernstein", "'j_hi'", "<= 2"]),
    "empty_block_range": ({"id": "bernstein", "params": {**BERNSTEIN, "j_lo": 2, "j_hi": 1}},
                          ["checks[1]", "bernstein", "'j_lo'", "'j_hi'"]),
    "no_trials": ({"id": "product", "params": {"n": 2, "N": 16, "trials": 0}},
                  ["checks[1]", "product", "'trials'", "at least 1"]),
    "zero_sample_stride": ({"id": "energy_monotone", "params": {"n": 2, "N": 16, "sample_stride": 0}},
                           ["checks[1]", "energy_monotone", "'sample_stride'"]),
    "empty_t_grid": ({"id": "heat_smoothing", "params": {"n": 2, "N": 16, "t_grid": []}},
                     ["checks[1]", "heat_smoothing", "'t_grid'", "non-empty"]),
    "negative_time": ({"id": "heat_smoothing", "params": {"n": 2, "N": 16, "t_grid": [0.1, -1]}},
                      ["checks[1]", "heat_smoothing", "'t_grid'"]),
    # a run parameter out of its range: refused by the rule a config's nu has
    "zero_viscosity": ({"id": "energy_monotone", "params": {"n": 2, "N": 16, "nu": 0}},
                       ["checks[1]", "energy_monotone", "'nu'", "positive"]),
    "unknown_initial_kind": ({"id": "gronwall_differential", "params": {"initial_kind": "bogus"}},
                             ["checks[1]", "gronwall_differential", "'bogus'"]),
    # T/dt overflowed the step count: a traceback when the check ran
    "overflowing_step_count": ({"id": "energy_monotone", "params": {"n": 2, "N": 8, "dt": 5e-324}},
                               ["checks[1]", "energy_monotone", "'T'", "'dt'", "steps"]),
}


@pytest.mark.parametrize("case", sorted(SUITE_PROBES))
def test_malformed_suite_entry_exit2_before_any_check(tmp_path, capsys, case):
    entry, expected = SUITE_PROBES[case]
    # the faulty entry comes last: no check may run before it is rejected
    suite = {"checks": [{"id": "k2_tail", "params": {"r": 2.5}}, entry]}
    code, err, out = _run(tmp_path, "verify", suite, capsys)
    assert code == 2
    for text in expected:
        assert text in err
    assert not out.exists()


# Out of an estimate's range: each ended in a traceback (exit 1) from inside
# the check, or ran on a value its estimate is not stated for.
RANGE_PROBES = {
    "bernstein_negative_order": ("bernstein", "order", -1, "at least 0"),
    "embedding_sub_one_p": ("embedding", "p", 0.5, "at least 1"),
    "moser_sub_one_p": ("moser", "p", 0.5, "at least 1"),
    "heat_smoothing_sub_one_q": ("heat_smoothing", "q", 0.5, "at least 1"),
    "gamma_ct_zero_horizon": ("gamma_ct", "T", 0, "positive"),
    "bernstein_negative_seed": ("bernstein", "seed", -5, "at least 0"),
    "heat_smoothing_no_positive_time": ("heat_smoothing", "t_grid", [0.0], "one of them positive"),
    "v_alpha_ct_negative_weight": ("v_alpha_ct", "a", -1, "at least 0"),
    "tau_negative_alpha": ("tau", "alpha", -1, "at least 0"),
    # alpha^2 overflows: each raised OverflowError
    **{f"{cid}_overflowing_alpha": (cid, "alpha", 1e300, "a finite square")
       for cid in ("tau", "v_alpha_ct", "energy_monotone", "gronwall_differential",
                   "apriori_bound")},
    # 2^{s j} overflows: a norm read inf, its ratio 0, and each passed (exit 0)
    **{f"{cid}_overflowing_{key}": (cid, key, value, "|s| (j_max + 1) < 1024")
       for cid, key, value in [
           ("embedding", "beta2", 1e300), ("embedding", "s", 1e300),
           ("embedding", "gamma2", -1e300), ("heat_smoothing", "s0", -1e300),
           ("gamma_ct", "s0", -1e300),
       ]},
}


@pytest.mark.parametrize("case", sorted(RANGE_PROBES))
def test_out_of_range_parameter_exit2(tmp_path, capsys, case):
    cid, key, value, requirement = RANGE_PROBES[case]
    suite = {"checks": [{"id": cid, "params": {"n": 2, "N": 16, key: value}}]}
    code, err, out = _run(tmp_path, "verify", suite, capsys)
    assert code == 2
    for text in ("checks[0]", cid, f"'{key}'", requirement):
        assert text in err
    assert not out.exists()


def test_smoothness_bound_is_the_grid_s_last_finite_weight():
    # N=16: j_max = 2, so |s| < 1024/3 = 341.33...
    for key in ("s", "beta1", "beta2", "gamma2"):
        parse_params("embedding", {"n": 2, "N": 16, key: 341.0})
        with pytest.raises(ConfigError, match=f"'{key}' must be a smoothness index.*j_max = 2"):
            parse_params("embedding", {"n": 2, "N": 16, key: -341.5})
    parse_params("k2_tail", {"r": 1e300})  # no grid: its sum stops at k_max


# A NaN ratio behind a finite one: Python's max skipped it and each passed
# (exit 0).  gamma2 = 1e300 gave the same NaN; it is now a range error.
NAN_PROBES = {
    "bony_bounds_huge_p": ("bony_bounds", {"pairs": 1, "p": 1e300}),
    "embedding_huge_exponents": ("embedding", {"trials": 1, "emb_p1": 1e300, "emb_p2": 1e300}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(NAN_PROBES))
def test_nan_ratio_fails_the_report_with_nan_constant(tmp_path, capsys, case):
    cid, params = NAN_PROBES[case]
    suite = {"checks": [{"id": cid, "params": {"n": 2, "N": 8, **params}}]}
    code, _, out = _run(tmp_path, "verify", suite, capsys)
    assert code == 5
    record = json.loads((out / "verify_report.json").read_text())["checks"][0]
    assert record["pass"] is False and math.isnan(record["max_ratio"])
    if cid == "bony_bounds":
        assert not math.isnan(record["ratios"][0]) and any(map(math.isnan, record["ratios"]))
    else:
        assert math.isnan(record["details"]["integrability_max"])
        assert not math.isnan(record["ratios"][0])


# Every int and float parameter of every check at 0 and -1, and a float at
# 1e300, on a small base: each case ends in a report (exit 0 or 5), a
# rejected record (5), a blow-up (3) or exit 2, never in a traceback.  The
# run horizon T is left out: its step count is a resource limit.
PROBE_BASE = {"n": 2, "N": 8, "trials": 1, "pairs": 1, "T": 0.02, "dt": 0.01, "r": 2.5}
PARAMETER_PROBES = sorted(
    (cid, key, value)
    for cid in CHECKS
    for key, (kind, _) in check_parameters(cid).items()
    if kind in (int, float) and key != "T"
    for value in ((0, -1) if kind is int else (0.0, -1.0, 1e300))
)


# A 1e300 exponent overflows numpy powers to inf, which a report reads as a
# failing ratio; those RuntimeWarnings are the probe's, not a finding.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cid, key, value", PARAMETER_PROBES)
def test_parameter_probe_ends_in_an_exit_code(tmp_path, cid, key, value):
    spec = check_parameters(cid)
    params = {k: v for k, v in PROBE_BASE.items() if k in spec}
    suite = {"checks": [{"id": cid, "params": {**params, key: value}}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) in {0, 2, 3, 5}


# Python's json reads NaN and Infinity, 1e999 as inf and an integer of any
# size; a run then ended in OverflowError or ValueError (exit 1).
HUGE = "1" + "0" * 400
NON_FINITE_PROBES = {
    "config_infinite_horizon": ("solve", '{"n": 3, "N": 16, "T": Infinity}', "Infinity"),
    "config_nan_step": ("solve", '{"n": 3, "N": 16, "dt": NaN}', "NaN"),
    "config_overflowing_float": ("picard", '{"n": 3, "N": 16, "T": -1e999}', "-1e999"),
    "config_integer_beyond_float": ("solve", '{"n": 3, "N": 16, "T": %s}' % HUGE, HUGE),
    "suite_infinite_horizon": (
        "verify",
        '{"checks": [{"id": "energy_monotone", "params": {"n": 2, "N": 16, "T": Infinity}}]}',
        "Infinity",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_PROBES))
def test_non_finite_number_exit2(tmp_path, capsys, case):
    command, text, literal = NON_FINITE_PROBES[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"number {literal} is not a finite float" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_utf8_input_exit2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"checks": [], "\xff": 1}')
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "byte 0xff at offset 16" in err
    assert not out.exists()


def test_suite_checks_not_array_exit2(tmp_path, capsys):
    code, err, _ = _run(tmp_path, "verify", {"checks": 5}, capsys)
    assert code == 2 and "'checks' array" in err


def test_config_value_type_exit2(tmp_path, capsys):
    doc = {**VALID_CONFIG, "initial": {"kind": "taylor_green", "amplitude": "x"}}
    code, err, out = _run(tmp_path, "solve", doc, capsys)
    assert code == 2 and "'initial.amplitude'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("csv_stride", "a"), ("alpha", True), ("N", "16"), ("picard.max_iter", 2.5),
     ("initial.kind", 1), ("picard.ball_radius", "big"), ("besov.q", None)],
)
def test_config_field_types(key, value):
    doc = copy.deepcopy(VALID_CONFIG)
    section, _, field = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[field] = value
    with pytest.raises(ConfigError, match=f"'{key}' must be of type"):
        config_from_dict(doc)


def test_config_values_pass_through_unconverted():
    cfg = config_from_dict(VALID_CONFIG)
    assert cfg.to_dict()["besov"]["p"] == 2 and type(cfg.besov.p) is int
    assert config_from_dict({"picard": {"ball_radius": 2}}).picard.ball_radius == 2


def test_check_type_rules():
    _, kwargs = parse_params("bernstein", {"p": 2, "q": 4.0, "j_hi": None})
    assert type(kwargs["p"]) is float and kwargs["p"] == 2.0 and kwargs["j_hi"] is None
    assert parse_params("product", {"refine": True})[1]["refine"] is True
    assert parse_params("heat_smoothing", {"t_grid": [0.5, 1]})[1]["t_grid"] == [0.5, 1]
    for cid, params in [
        ("bernstein", {"trials": True}),
        ("bernstein", {"seed": 1.0}),
        ("bernstein", {"p": False}),
        ("bernstein", {"j_hi": 2.0}),
        ("product", {"refine": 1}),
        ("heat_smoothing", {"t_grid": 0.5}),
        ("heat_smoothing", {"t_grid": [0.5, "1"]}),
        ("energy_monotone", {"initial_kind": 3}),
        ("energy_monotone", {"sample_stride": "2"}),
    ]:
        key = next(iter(params))
        with pytest.raises(ConfigError, match=f"check '{cid}': parameter '{key}' must be of type"):
            parse_params(cid, params)


def test_dynamic_checks_share_the_run_table():
    run = {"n", "N", "alpha", "nu", "T", "dt", "seed", "initial_kind", "amplitude",
           "band_j", "sample_stride"}
    assert set(check_parameters("energy_monotone")) == run | {"c_tol"}
    for cid in ("gronwall_differential", "apriori_bound"):
        assert set(check_parameters(cid)) == run | {"r", "q"}


def test_verify_seed_fills_only_checks_that_take_one(tmp_path, capsys):
    suite = {"checks": [{"id": "k2_tail", "params": {"r": 2.5}},
                        {"id": "bernstein", "params": {"n": 2, "N": 16, "trials": 2}}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out = tmp_path / "out"
    assert main(["verify", "--seed", "3", "--config", str(path), "--out", str(out)]) == 0
    k2, bern = json.loads((out / "verify_report.json").read_text())["checks"]
    assert "seed" not in k2["params"]
    assert bern["params"]["seed"] == 3


# CLI arguments: each ended in a traceback (exit 1), silently ran another
# value (N=16.7 ran N=16) or wrote NaN literals into norms.jsonl (exit 0).
ARG_PROBES = {
    "sweep_value_not_number": (["sweep", "--axis", "alpha", "--values", "x"], ["--values", "x"]),
    "sweep_grid_not_power_of_two": (["sweep", "--axis", "N", "--values", "12", "16"],
                                    ["--values", "N=12", "power of two"]),
    "sweep_grid_not_integer": (["sweep", "--axis", "N", "--values", "16.7"],
                               ["--values", "N=16.7", "integer"]),
    "sweep_negative_alpha": (["sweep", "--axis", "alpha", "--values", "-0.5"],
                             ["--values", "alpha=-0.5", "at least 0"]),
    "sweep_nan_horizon": (["sweep", "--axis", "amplitude", "--values", "0.1", "--t-max", "nan"],
                          ["--t-max", "nan"]),
    # a horizon of more than 10^7 steps of the config's dt: refused when
    # the bisection probed it, after the output directory was made
    "sweep_horizon_too_many_steps": (["sweep", "--axis", "amplitude", "--values", "0.1",
                                      "--t-max", "1e300"], ["--t-max", "'dt'", "steps"]),
    "indices_two_numbers": (["lp-analyze", "--indices", "1,2"], ["--indices", "'1,2'"]),
    "indices_four_numbers": (["lp-analyze", "--indices", "1,2,2,3"], ["--indices", "'1,2,2,3'"]),
    "indices_sub_one_p": (["lp-analyze", "--indices", "1,0.5,2"], ["--indices", "'1,0.5,2'"]),
    "indices_nan_s": (["lp-analyze", "--indices", "nan,2,2"], ["--indices", "'nan,2,2'"]),
    # 2^{s j} overflowed: an OverflowError traceback from block_profile (exit 1)
    "indices_huge_s": (["lp-analyze", "--indices", "1e300,2,2"],
                       ["--indices", "'1e300,2,2'", "|s| (j_max + 1) < 1024"]),
    "field_missing": (["lp-analyze", "--field", "{tmp}/nope.lans"], ["nope.lans"]),
    "field_malformed": (["lp-analyze", "--field", "{tmp}/bad.lans"],
                        ["bad.lans", "not a field snapshot"]),
    "horizon_not_number": (["sweep", "--axis", "amplitude", "--values", "0.1", "--t-max", "abc"],
                           ["--t-max", "'abc'"]),
    "threads_not_integer": (["--threads", "x", "sweep", "--axis", "alpha", "--values", "0.1"],
                            ["--threads", "'x'"]),
    "threads_zero": (["--threads", "0", "sweep", "--axis", "alpha", "--values", "0.1"],
                     ["--threads", "0"]),
    "seed_not_integer": (["sweep", "--axis", "alpha", "--values", "0.1", "--seed", "x"],
                         ["--seed", "'x'"]),
    "seed_negative": (["sweep", "--axis", "alpha", "--values", "0.1", "--seed", "-1"],
                      ["'seed'", "got -1"]),
    "threads_env_not_integer": (["sweep", "--axis", "alpha", "--values", "0.1"],
                                ["LANS_LAB_THREADS", "'junk'"], {"LANS_LAB_THREADS": "junk"}),
    "threads_env_zero": (["sweep", "--axis", "alpha", "--values", "0.1"],
                         ["LANS_LAB_THREADS", "'0'"], {"LANS_LAB_THREADS": "0"}),
    "threads_env_negative": (["sweep", "--axis", "alpha", "--values", "0.1"],
                             ["LANS_LAB_THREADS", "'-2'"], {"LANS_LAB_THREADS": "-2"}),
    # paths of the wrong kind ({tmp}/bad.lans is a file, {tmp} a directory)
    "out_is_a_file": (["solve", "--out", "{tmp}/bad.lans"], ["--out", "bad.lans"]),
    "out_below_a_file": (["solve", "--out", "{tmp}/bad.lans/sub"], ["--out", "bad.lans/sub"]),
    "solve_config_is_a_directory": (["solve", "--config", "{tmp}"], ["--config", "{tmp}"]),
    "verify_config_is_a_directory": (["verify", "--config", "{tmp}"], ["--config", "{tmp}"]),
    "field_is_a_directory": (["lp-analyze", "--field", "{tmp}"], ["--field", "{tmp}"]),
}


@pytest.mark.parametrize("case", sorted(ARG_PROBES))
def test_malformed_cli_argument_exit2(tmp_path, capsys, monkeypatch, case):
    from lanslab.fieldio import write_field
    from lanslab.fields import zero_field
    from lanslab.grid import Grid

    argv, expected, *env = ARG_PROBES[case]
    for name, value in (env[0] if env else {}).items():
        monkeypatch.setenv(name, value)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    expected = [text.replace("{tmp}", str(tmp_path)) for text in expected]
    out = tmp_path / "out"
    (tmp_path / "bad.lans").write_bytes(b"not a field")
    if argv[0] == "lp-analyze":
        if "--field" not in argv:
            path = tmp_path / "f.lans"
            write_field(path, zero_field(Grid(2, 8)), field_id="probe")
            argv = argv + ["--field", str(path)]
    elif "--config" not in argv:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(VALID_CONFIG))
        argv = argv + ["--config", str(path)]
    if "--out" not in argv:
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    for text in expected:
        assert text in err
    assert not out.exists()
    assert (tmp_path / "bad.lans").read_bytes() == b"not a field"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "lans-lab" in capsys.readouterr().out


_SCHEMA_TYPES = {int: "integer", float: "number", str: "string", float | None: ["number", "null"]}


def _assert_schema_matches(cls, schema, path):
    props = schema["properties"]
    assert set(props) == set(cls.__dataclass_fields__), path
    for name, f in cls.__dataclass_fields__.items():
        if dataclasses.is_dataclass(f.type):
            assert props[name]["type"] == "object", f"{path}{name}"
            _assert_schema_matches(f.type, props[name], f"{path}{name}.")
        else:
            assert props[name]["type"] == _SCHEMA_TYPES[f.type], f"{path}{name}"


def test_schema_lists_the_config_fields():
    schema = json.loads((CONFIGS / "schema.json").read_text())
    _assert_schema_matches(SolverConfig, schema, "")


def _past_the_bounds(schema, path=""):
    """(dotted key, value) one step past each minimum, exclusiveMinimum and
    enum that `schema` states, nested objects included."""
    for name, prop in schema["properties"].items():
        key = path + name
        if prop["type"] == "object":
            yield from _past_the_bounds(prop, key + ".")
            continue
        step = 1 if prop["type"] == "integer" else 0.5
        if "minimum" in prop:
            yield key, prop["minimum"] - step
        if "exclusiveMinimum" in prop:
            yield key, prop["exclusiveMinimum"]
        if "enum" in prop:
            enum = prop["enum"]
            yield key, max(enum) + 1 if prop["type"] == "integer" else f"not_{enum[0]}"


SCHEMA_BOUNDS = sorted(_past_the_bounds(json.loads((CONFIGS / "schema.json").read_text())))


def _at_the_bounds(schema, path=""):
    """(dotted key, value) at each inclusive minimum and just above each
    exclusiveMinimum that `schema` states, nested objects included."""
    for name, prop in schema["properties"].items():
        key = path + name
        if prop["type"] == "object":
            yield from _at_the_bounds(prop, key + ".")
            continue
        if "minimum" in prop:
            yield key, prop["minimum"]
        if "exclusiveMinimum" in prop:
            bound = prop["exclusiveMinimum"]
            yield key, bound + 1 if prop["type"] == "integer" else math.nextafter(bound, math.inf)


SCHEMA_EDGES = sorted(_at_the_bounds(json.loads((CONFIGS / "schema.json").read_text())))


def test_schema_states_bounds():
    assert {"seed", "csv_stride", "initial.j", "besov.q", "picard.ball_radius"} <= {
        key for key, _ in SCHEMA_BOUNDS
    }
    enums = {"n", "initial.kind"}
    assert {key for key, _ in SCHEMA_EDGES} == {key for key, _ in SCHEMA_BOUNDS} - enums


@pytest.mark.parametrize("key, value", SCHEMA_BOUNDS)
def test_schema_bounds_are_enforced(key, value):
    doc = copy.deepcopy(VALID_CONFIG)
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = value
    with pytest.raises(ConfigError, match=f"'{re.escape(key)}'"):
        config_from_dict(doc)


@pytest.mark.parametrize("key, value", SCHEMA_EDGES)
def test_schema_bounds_are_tight(key, value):
    # a rule stricter than the schema would refuse a value the schema allows;
    # T/dt is bound as well (at most 10^7 steps, the schema's `dt` says), so
    # at dt's edge T is one step
    doc = copy.deepcopy(VALID_CONFIG)
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = value
    if key == "dt":
        doc["T"] = value
    config_from_dict(doc)


# Each name a config and a check both take has one rule: an out-of-range
# value is refused through `solve` and `verify` with the same requirement.
# The check params are those of a check that takes the name.
SHARED_NAMES = {
    "alpha": ("alpha", "energy_monotone", -1),
    "seed": ("seed", "energy_monotone", -1),
    "T": ("T", "energy_monotone", 0),
    "nu": ("nu", "energy_monotone", 0),
    "dt": ("dt", "energy_monotone", 0),
    "p": ("besov.p", "product", 0.5),
    "q": ("besov.q", "product", 0.5),
    "r": ("besov.r", "gronwall_differential", 1e300),
    "s": ("besov.s", "product", -1e300),
}


@pytest.mark.parametrize("name", sorted(SHARED_NAMES))
def test_one_rule_per_name(tmp_path, capsys, name):
    key, cid, value = SHARED_NAMES[name]
    config = copy.deepcopy(VALID_CONFIG)
    section, _, leaf = key.rpartition(".")
    (config.setdefault(section, {}) if section else config)[leaf] = value
    suite = {"checks": [{"id": cid, "params": {"n": 3, "N": 16, name: value}}]}
    requirements = []
    for command, doc, quoted in (("solve", config, key), ("verify", suite, name)):
        (tmp_path / command).mkdir()
        code, err, out = _run(tmp_path / command, command, doc, capsys)
        assert code == 2 and f"'{quoted}' must be " in err and not out.exists()
        requirements.append(re.search(r"must be (.*), got", err).group(1))
    assert requirements[0] == requirements[1]


# Values the schema bounds but the code took: each ended in a traceback
# (exit 1), a wrong exit code or a silently clamped or ignored value.
RANDOM_INITIAL = {"kind": "random_divfree", "amplitude": 0.1}
BOUND_PROBES = {
    "negative_seed": ("solve", {"seed": -1, "initial": RANDOM_INITIAL}, "seed"),
    "zero_csv_stride": ("solve", {"csv_stride": 0}, "csv_stride"),
    "negative_snapshot_stride": ("solve", {"snapshot_stride": -4}, "snapshot_stride"),
    "negative_blowup_threshold": ("solve", {"blowup_threshold": -1}, "blowup_threshold"),
    "sub_one_besov_q": ("solve", {"besov": {"q": 0.5}}, "besov.q"),
    "sub_one_besov_p": ("solve", {"besov": {"p": 0.5}}, "besov.p"),
    "negative_band_unused": ("solve", {"initial": {"kind": "taylor_green", "j": -1}}, "initial.j"),
    "negative_ball_radius": ("picard", {"picard": {"ball_radius": -1}}, "picard.ball_radius"),
    "solve_overflowing_alpha": ("solve", {"alpha": 1e300}, "alpha"),
    "picard_overflowing_alpha": ("picard", {"alpha": 1e300}, "alpha"),
    # a JSON integer reaches the rule unconverted: its exact square is no float
    "solve_overflowing_integer_alpha": ("solve", {"alpha": 10**155}, "alpha"),
    # 2^{s j} overflowed: exit 0 with inf in every Besov row
    "solve_overflowing_besov_r": ("solve", {"besov": {"r": 1e300, "s": 1e300}}, "besov.r"),
    "solve_overflowing_besov_s": ("solve", {"besov": {"s": -1e300}}, "besov.s"),
    "picard_overflowing_besov_s": ("picard", {"besov": {"s": 1e300}}, "besov.s"),
    # T/dt steps: an OverflowError, and an array too large to allocate
    "solve_overflowing_step_count": ("solve", {"dt": 5e-324}, "dt"),
    "solve_huge_step_count": ("solve", {"dt": 1e-300}, "dt"),
}


@pytest.mark.parametrize("case", sorted(BOUND_PROBES))
def test_out_of_bound_config_value_exit2(tmp_path, capsys, case):
    command, update, key = BOUND_PROBES[case]
    code, err, out = _run(tmp_path, command, {**VALID_CONFIG, **update}, capsys)
    assert code == 2 and f"'{key}'" in err
    assert not out.exists()


# ----------------------------------------------------------------------
# fuzz: one fault injected into a valid suite or config

_VALUES = {
    "integer": st.integers(-3, 40),
    "number": st.floats(),
    "boolean": st.booleans(),
    "string": st.text(max_size=6),
    "null": st.none(),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_ACCEPTS = {int: {"integer"}, float: {"integer", "number"}, bool: {"boolean"}, str: {"string"}}


def _except(*accepted):
    return st.one_of(*[s for name, s in _VALUES.items() if name not in accepted])


@st.composite
def _faulty_suite(draw):
    suite = copy.deepcopy(VALID_SUITE)
    i = draw(st.integers(0, len(suite["checks"]) - 1))
    entry = suite["checks"][i]
    spec = check_parameters(entry["id"])
    fault = draw(st.sampled_from(["unknown key", "mistyped", "container", "missing"]))
    if fault == "unknown key":
        target, known = draw(st.sampled_from(
            [(suite, {"checks"}), (entry, {"id", "params"}), (entry["params"], set(spec))]
        ))
        key = draw(st.text(max_size=8))
        assume(key not in known)
        target[key] = draw(_except())
    elif fault == "mistyped":
        simple = sorted(k for k, (kind, _) in spec.items() if kind in _ACCEPTS)
        key = draw(st.sampled_from(simple))
        entry["params"][key] = draw(_except(*_ACCEPTS[spec[key][0]]))
    elif fault == "container":
        where = draw(st.sampled_from(["root", "checks", "entry", "params"]))
        if where == "root":
            return draw(_except("object"))
        if where == "checks":
            suite["checks"] = draw(_except("array"))
        elif where == "entry":
            suite["checks"][i] = draw(_except("object"))
        else:
            entry["params"] = draw(_except("object"))
    else:
        draw(st.sampled_from([
            lambda: suite.pop("checks"),
            lambda: entry.pop("id"),
            lambda: suite["checks"][0]["params"].pop("r"),
        ]))()
    return suite


@st.composite
def _faulty_config(draw):
    config = copy.deepcopy(VALID_CONFIG)
    sections = [(SolverConfig, config)] + [
        (f.type, config.setdefault(name, {}))
        for name, f in SolverConfig.__dataclass_fields__.items()
        if dataclasses.is_dataclass(f.type)
    ]
    cls, target = draw(st.sampled_from(sections))
    fields = cls.__dataclass_fields__
    fault = draw(st.sampled_from(["unknown key", "mistyped", "container"]))
    if fault == "unknown key":
        key = draw(st.text(max_size=8))
        assume(key not in fields)
        target[key] = draw(_except())
    elif fault == "mistyped":
        key = draw(st.sampled_from(sorted(k for k, f in fields.items() if f.type in _ACCEPTS)))
        target[key] = draw(_except(*_ACCEPTS[fields[key].type]))
    elif cls is SolverConfig:
        return draw(_except("object"))
    else:
        name = next(k for k, v in config.items() if v is target)
        config[name] = draw(_except("object"))
    return config


def _exit_code(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(suite=_faulty_suite())
def test_fuzz_malformed_suite_exits_2(suite):
    assert _exit_code("verify", suite) == 2


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_faulty_config())
def test_fuzz_malformed_config_exits_2(config):
    assert _exit_code("solve", config) == 2
