"""Command-line interface."""

from __future__ import annotations

import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import cli, stabilizer
from stabkit.cli import _COMMANDS, ReportBundle, RunConfig, emit, main, run


def _capture(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_enumerate_sigma_count(capsys):
    code, out = _capture(capsys, ["enumerate-sigma", "--t", "4", "--d", "2", "--emit", "count"])
    assert code == 0
    assert out.strip() == "30"


def test_enumerate_o_count(capsys):
    code, out = _capture(capsys, ["enumerate-o", "--t", "4", "--d", "2", "--emit", "count"])
    assert code == 0
    assert out.strip() == "24"


def test_json_round_trip(capsys):
    code, out = _capture(capsys, ["moments", "--t", "3", "--n", "1", "--d", "2", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "moments"
    assert payload["wall_clock"] is None
    assert all(r["status"] == "pass" for r in payload["records"])


def test_csv_rows_match_records():
    rep = run(RunConfig(command="verify-all", profile="quick"))
    text = emit(rep, "csv").decode()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(rep.records)
    assert {"name", "check_id", "status", "measured", "bound", "tolerance"} <= set(rows[0])


def test_output_deterministic():
    cfg = RunConfig(command="test", protocol="mc", seed=7, shots=2000)
    a = emit(run(cfg), "json")
    b = emit(run(cfg), "json")
    assert a == b


def test_verify_all_quick_passes(capsys):
    code, out = _capture(capsys, ["verify-all", "--profile", "quick"])
    assert code == 0
    payload = json.loads(out)
    assert payload["records"]
    assert all(r["status"] in ("pass", "skip") for r in payload["records"])


def test_text_table_format():
    rep = run(RunConfig(command="double-cosets", t=4, d=2))
    text = emit(rep, "text-table").decode()
    assert text.splitlines()[0].startswith("name")
    assert len(text.splitlines()) == len(rep.records) + 1


def _invalid_record(cfg):
    """The one record of run(cfg), which must be an invalid-argument failure."""
    rep = run(cfg)
    assert [(r["name"], r["check_id"], r["status"]) for r in rep.records] == [
        (cfg.command, "invalid-argument", "fail")
    ]
    return rep.records[0]["measured"]


def test_test_command_requires_seed():
    assert "--seed" in _invalid_record(RunConfig(command="test", protocol="mc", seed=None))


def test_hudson_command_requires_seed():
    assert "--seed" in _invalid_record(RunConfig(command="hudson", d=3, seed=None))


def test_unknown_emit_format():
    rep = run(RunConfig(command="enumerate-sigma", t=3, d=3))
    with pytest.raises(ValueError):
        emit(rep, "yaml")


def test_design_command_qutrit(capsys):
    code, out = _capture(capsys, ["design", "--d", "3", "--t", "3", "--n", "1"])
    assert code == 0
    payload = json.loads(out)
    gaps = [r for r in payload["records"] if r["name"] == "design"]
    assert gaps and float(gaps[0]["measured"]) < 1e-8


@pytest.mark.parametrize("t,n", [(6, 2), (7, 1), (7, 2)])
def test_design_command_qubits_in_class_space(capsys, monkeypatch, t, n):
    # |0...0>, the T-state product and six Haar states give 6- and 7-designs
    # under the default cap; at (7, 1) the class Gram is singular (rank 3 of
    # 6), and the gap stays at rounding level, far below the 1e-8 to pass
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    argv = ["design", "--t", str(t), "--n", str(n), "--d", "2", "--seed", "0"]
    code, out = _capture(capsys, argv)
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["name"], r["status"]) for r in records] == [("design", "pass")]
    assert records[0]["measured"] < 1e-12


def test_design_command_without_weights_is_one_failed_record(capsys):
    # the eight Haar fiducials of seed 0 admit no qutrit 4-design (linprog
    # agrees, see test_definetti_routes): one failed record, no traceback
    code = main(["design", "--t", "4", "--n", "1", "--d", "3", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code != 0
    assert "Traceback" not in err
    records = json.loads(out)["records"]
    assert [(r["name"], r["check_id"], r["status"]) for r in records] == [
        ("design", "weighted-orbit-design", "fail")
    ]
    assert records[0]["measured"] > records[0]["tolerance"] == 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--t", "3", "--n", "2"],
        ["verify-commutant", "--t", "3", "--d", "3"],
        ["design", "--t", "3", "--n", "2"],
        ["test", "--protocol", "qudit", "--d", "11", "--seed", "1"],
        ["hudson", "--d", "11", "--seed", "1"],
        ["definetti", "--t", "4"],
    ],
)
def test_cap_hit_is_one_failed_record(capsys, monkeypatch, argv):
    # sizes no other test caches, so each command reaches a cap check
    monkeypatch.setenv("STABKIT_DIM_CAP", "1")
    code, out = _capture(capsys, argv)
    assert code == 1
    records = json.loads(out)["records"]
    assert [r["status"] for r in records] == ["fail"]
    assert records[0]["check_id"] == "resource-cap"
    assert "exceeds cap 1" in records[0]["measured"]


@pytest.mark.parametrize(
    "argv,value",
    [
        (["enumerate-sigma", "--t", "3", "--d", "4"], "d=4"),
        (["enumerate-sigma", "--t", "0", "--d", "2"], "t=0"),
        (["moments", "--t", "2", "--n", "1", "--d", "6"], "d=6"),
        (["verify-commutant", "--t", "3", "--d", "2", "--n", "0"], "n=0"),
        (["test", "--protocol", "qudit", "--d", "4", "--seed", "1"], "d=4"),
        (["enumerate-o", "--t", "3", "--d", "4"], "d=4"),
        (["definetti", "--s", "0"], "s=0"),
        (["test", "--protocol", "qudit", "--d", "3", "--s", "3", "--seed", "1"], "s=3"),
        (["test", "--protocol", "mc", "--shots", "0", "--seed", "1"], "shots=0"),
        (["definetti", "--variant", "anti", "--t", "1"], "t=1"),
        (["definetti", "--variant", "exp", "--t", "2", "--s", "3"], "s=3"),
        (["test", "--protocol", "three-copy", "--d", "3"], "d=3"),
        (["hudson", "--seed", "1"], "d=2"),
        (["test", "--protocol", "qubit6", "--n", "1", "--seed", "-1"], "seed=-1 is below 0"),
        (["test", "--protocol", "mc", "--seed", "-2"], "seed=-2 is below 0"),
        (["hudson", "--d", "3", "--seed", "-5"], "seed=-5 is below 0"),
        (["design", "--t", "3", "--n", "1", "--d", "3", "--seed", "-1"], "seed=-1 is below 0"),
        (["definetti", "--variant", "exp", "--t", "4", "--s", "2", "--seed", "-1"],
         "seed=-1 is below 0"),
        (["definetti", "--variant", "anti", "--t", "6", "--s", "6", "--seed", "-3"],
         "seed=-3 is below 0"),
    ],
)
def test_invalid_sizes_are_one_failed_record(capsys, argv, value):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    records = json.loads(out)["records"]
    assert [r["status"] for r in records] == ["fail"]
    assert records[0]["check_id"] == "invalid-argument"
    assert value in records[0]["measured"]


def test_verify_all_skips_cap_hits(monkeypatch):
    monkeypatch.setenv("STABKIT_DIM_CAP", "1")
    rep = run(RunConfig(command="verify-all", profile="quick"))
    assert "skip" in {r["status"] for r in rep.records}
    assert rep.ok


@pytest.mark.parametrize("protocol", ["qubit6", "mc"])
def test_qubit_protocols_reject_qudits(protocol):
    assert "d=3" in _invalid_record(RunConfig(command="test", protocol=protocol, d=3, seed=1))


@pytest.mark.parametrize(
    "cfg,value",
    [
        (RunConfig(command="test", protocol="bell", seed=1), "protocol='bell'"),
        (RunConfig(command="definetti", variant="linear"), "variant='linear'"),
        (RunConfig(command="verify-all", profile="medium"), "profile='medium'"),
        (RunConfig(command="bogus"), "command='bogus'"),
    ],
)
def test_unknown_choice_is_one_failed_record(cfg, value):
    # argparse refuses these; run() is the only way in
    assert value in _invalid_record(cfg)


# each command's options besides --emit and --output
OPTIONS = {
    "enumerate-sigma": {"t", "d"},
    "enumerate-o": {"t", "d"},
    "double-cosets": {"t", "d"},
    "verify-commutant": {"t", "d", "n"},
    "moments": {"t", "n", "d", "check"},
    "design": {"t", "n", "d", "seed"},
    "test": {"protocol", "d", "n", "s", "seed", "shots"},
    "hudson": {"d", "n", "seed"},
    "definetti": {"variant", "t", "n", "d", "s", "seed"},
    "verify-all": {"profile"},
}
# a valid value of every option, or None for a flag
VALUES = {"t": "3", "d": "2", "n": "1", "s": "2", "seed": "1", "shots": "10",
          "protocol": "mc", "variant": "exp", "profile": "quick", "check": None}


def test_options_cover_every_command():
    assert set(OPTIONS) == set(_COMMANDS)
    assert set().union(*OPTIONS.values()) == set(VALUES)
    assert sum(len(options) + 2 for options in OPTIONS.values()) == 53


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_the_command_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z]+)", capsys.readouterr().out))
    assert listed == OPTIONS[command] | {"help", "emit", "output"}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_the_command_does_not_read_exit_2(capsys, command):
    for option in sorted(set(VALUES) - OPTIONS[command]):
        value = VALUES[option]
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}"] + ([] if value is None else [value]))
        assert exc.value.code == 2, option
        assert "unrecognized arguments" in capsys.readouterr().err


# (name, check_id, status, fields set, integer fields) of every verify-all
# record; the threshold of each check is its bound
_QUICK = [
    ("sigma-count-(3,3)", "count-identity", "pass", ("measured", "bound"),
     {"measured": 8, "bound": 8}),
    ("sigma-count-(4,2)", "count-identity", "pass", ("measured", "bound"),
     {"measured": 30, "bound": 30}),
    ("commutant-(3,3,1)", "clifford-commutator", "pass", ("measured", "bound"), {}),
    ("moment-(3,1,3)", "ensemble-average", "pass", ("measured", "bound"), {}),
    ("completeness-qubit-n1", "perfect-completeness", "pass", ("measured", "bound"), {}),
    ("completeness-qutrit-n1", "perfect-completeness", "pass", ("measured", "bound"), {}),
]
_FULL = _QUICK + [
    ("sigma-count-(4,3)", "count-identity", "pass", ("measured", "bound"),
     {"measured": 80, "bound": 80}),
    ("sigma-count-(6,2)", "count-identity", "pass", ("measured", "bound"),
     {"measured": 4590, "bound": 4590}),
    ("commutant-(4,2,1)", "clifford-commutator", "pass", ("measured", "bound"), {}),
    ("commutant-(4,2,2)", "clifford-commutator", "pass", ("measured", "bound"), {}),
    ("moment-(4,1,2)", "ensemble-average", "pass", ("measured", "bound"), {}),
    ("moment-(4,2,2)", "ensemble-average", "pass", ("measured", "bound"), {}),
    ("moment-(6,1,2)", "ensemble-average", "pass", ("measured", "bound"), {}),
    ("completeness-qubit-n2", "perfect-completeness", "pass", ("measured", "bound"), {}),
]
_THRESHOLDS = {"clifford-commutator": 1e-9, "ensemble-average": 1e-10,
               "perfect-completeness": 1e-12}


@pytest.mark.parametrize("profile,want", [("quick", _QUICK), ("full", _FULL)])
def test_verify_all_records_are_pinned(profile, want):
    rep = run(RunConfig(command="verify-all", profile=profile))
    got = [
        (r["name"], r["check_id"], r["status"],
         tuple(k for k in ("measured", "bound", "tolerance") if r[k] is not None),
         {k: v for k, v in r.items() if type(v) is int})
        for r in rep.records
    ]
    assert got == want
    for r in rep.records:
        if r["check_id"] in _THRESHOLDS:
            assert r["bound"] == _THRESHOLDS[r["check_id"]]
            assert 0.0 <= r["measured"] < r["bound"]


def test_config_has_only_command_line_fields(capsys):
    code, out = _capture(capsys, ["enumerate-o", "--t", "3", "--d", "3"])
    assert code == 0
    assert not {"cap", "tolerance"} & set(json.loads(out)["config"])


def test_double_cosets_at_t1(capsys):
    # O_1(d) is trivial: the one element of Sigma_{1,1}(d) is its own coset
    code, out = _capture(capsys, ["double-cosets", "--t", "1", "--d", "3"])
    assert code == 0
    assert json.loads(out)["records"][0]["measured"] == [1]


def test_candidate_table_cap_is_one_failed_record(capsys, monkeypatch):
    # the Lagrangians of two qubits: the scan of 2^4 digit rows (a side of 4)
    # and the 15 bases of 2 x 4 entries (a side of 11) pass a cap of 12, the
    # running count of 15 candidate rows does not; the fidelity tables are
    # dropped from their cache so that the scan runs
    monkeypatch.setenv("STABKIT_DIM_CAP", "12")
    stabilizer._fidelity_tables.cache_clear()
    code, out = _capture(capsys, ["test", "--protocol", "qubit6", "--n", "2", "--seed", "0"])
    assert code == 1
    records = json.loads(out)["records"]
    assert [r["check_id"] for r in records] == ["resource-cap"]
    assert records[0]["measured"] == "requested operator dimension 15 exceeds cap 12"


def test_sigma_size_cap_refuses_sigma_9_9_7(capsys, monkeypatch):
    # the stack of Sigma_{9,9}(7) is refused before any defect scan
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    code, out = _capture(capsys, ["enumerate-sigma", "--t", "9", "--d", "7"])
    assert code == 1
    records = json.loads(out)["records"]
    assert [r["check_id"] for r in records] == ["resource-cap"]
    assert "dimension 13205827278828 exceeds cap 8192" in records[0]["measured"]


def test_six_copy_soundness_at_five_qubits(capsys, monkeypatch):
    # the state list (a side of 8807) is refused; the fidelity tables (1557)
    # and the 75735 Lagrangians (1946) are not
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    code, out = _capture(capsys, ["test", "--protocol", "qubit6", "--n", "5", "--seed", "1"])
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["check_id"], r["status"]) for r in records] == [("soundness-bound", "pass")]


def test_sigma_size_cap_is_one_failed_record(capsys, monkeypatch):
    # Sigma_{8,8}(2) has 9845550 elements: its stack is refused before it is built
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    code, out = _capture(capsys, ["enumerate-sigma", "--t", "8", "--d", "2"])
    assert code == 1
    records = json.loads(out)["records"]
    assert [r["check_id"] for r in records] == ["resource-cap"]
    assert "dimension 35500 exceeds cap 8192" in records[0]["measured"]


@pytest.mark.parametrize(
    "argv,dim",
    [
        (["enumerate-sigma", "--t", "2", "--d", "65537"], 65537),  # a scan of 65537^2 rows
        (["enumerate-sigma", "--t", "3", "--d", "65537"], 16777601),
        (["enumerate-o", "--t", "2", "--d", "65537"], 92684),  # the (65537^2, 2) column table
    ],
)
def test_wide_digit_tables_are_one_failed_record(capsys, monkeypatch, argv, dim):
    # the digit rows are refused before they are scanned or built
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    records = json.loads(out)["records"]
    assert [r["check_id"] for r in records] == ["resource-cap"]
    assert f"dimension {dim} exceeds cap 8192" in records[0]["measured"]


def _emit_oracle(rep: ReportBundle) -> bytes:
    payload = rep.to_json()
    payload["wall_clock"] = None
    return (json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n").encode()


_SMALL_RUNS = [
    RunConfig(command="enumerate-sigma", t=4, d=3),
    RunConfig(command="enumerate-o", t=4, d=3),
    RunConfig(command="verify-commutant", t=3, d=2, n=2),
    RunConfig(command="double-cosets", t=4, d=3),
    RunConfig(command="moments", t=3, n=1, d=3, check=True),
    RunConfig(command="design", t=3, n=1, d=3),
    RunConfig(command="test", protocol="qubit6", n=2, seed=3),
    RunConfig(command="test", protocol="qudit", d=3, seed=3),
    RunConfig(command="test", protocol="three-copy", d=5, seed=3),
    RunConfig(command="test", protocol="mc", shots=500, seed=3),
    RunConfig(command="hudson", d=3, seed=3),
    RunConfig(command="definetti", variant="exp", t=4, s=2, seed=3),
    RunConfig(command="verify-all", profile="quick"),
    RunConfig(command="enumerate-sigma", t=3, d=4),  # invalid-argument
]


@pytest.mark.parametrize("cfg", _SMALL_RUNS, ids=lambda c: c.command)
def test_json_report_is_byte_identical_to_json_dumps(cfg):
    rep = run(cfg)
    assert emit(rep, "json") == _emit_oracle(rep)


@pytest.mark.parametrize(
    "command,t,d",
    [pytest.param("enumerate-sigma", t, d, id=f"{t}-{d}")
     for t, d in [(1, 2), (2, 3), (4, 3), (3, 7), (2, 11), (6, 2)]]
    + [pytest.param("enumerate-o", t, d, id=f"o-{t}-{d}")
       for t, d in [(1, 2), (1, 3), (2, 3), (4, 3), (3, 5), (6, 2)]],
)
def test_sigma_report_is_byte_identical_to_json_dumps(command, t, d):
    rep = run(RunConfig(command=command, t=t, d=d))
    assert emit(rep, "json") == _emit_oracle(rep)


def test_sigma_report_blocks_that_do_not_divide_sigma(monkeypatch):
    # Sigma_{4,4}(3): 11 blocks of 7, then 3; O_4(3): 6 blocks of 7, then 6
    monkeypatch.setattr(cli, "_STACK_BLOCK", 7)
    for command, key, size in [("enumerate-sigma", "sigma", 80), ("enumerate-o", "group", 48)]:
        rep = run(RunConfig(command=command, t=4, d=3))
        assert len(rep.to_json()["config"][key]) == size
        assert emit(rep, "json") == _emit_oracle(rep)


def test_report_holding_a_stack_marker_string():
    # json.dumps writes a marker in place of the stack: a report string
    # equal to a marker must come out as itself, and the stack where it stands
    rep = run(RunConfig(command="enumerate-o", t=3, d=5))
    rep.config["note"] = ["\ue000stack 0\ue000", "\ue000stack 1\ue000"]
    assert emit(rep, "json") == _emit_oracle(rep)


def test_sigma_report_on_stdout_and_in_a_file(capsys, tmp_path):
    argv = ["enumerate-sigma", "--t", "5", "--d", "2"]
    code, out = _capture(capsys, argv)
    assert code == 0 and main(argv + ["--output", str(tmp_path / "sigma.json")]) == 0
    assert (tmp_path / "sigma.json").read_bytes() == out.encode()


def test_sigma_report_is_written_a_block_at_a_time(tmp_path):
    rep = run(RunConfig(command="enumerate-sigma", t=6, d=2))
    with open(tmp_path / "sigma.json", "wb") as fh:
        tracemalloc.start()
        try:
            cli._write_json(rep, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "sigma.json").stat().st_size == 6004253
    assert peak < 2 * 2**20  # the whole text is 6 MB


def test_small_runs_cover_every_command():
    assert {cfg.command for cfg in _SMALL_RUNS} == set(_COMMANDS)


def test_resource_cap_record_is_byte_identical(monkeypatch):
    monkeypatch.setenv("STABKIT_DIM_CAP", "1")
    rep = run(RunConfig(command="moments", t=3, n=2))
    assert rep.records[0]["check_id"] == "resource-cap"
    assert emit(rep, "json") == _emit_oracle(rep)


class _Int(int):
    def __repr__(self):
        return "not json"


_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-17])
_ints = st.integers(-(2**100), 2**100) | st.sampled_from([2**70, -(2**70), 2**200])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    st.text(),
    st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\n\t\"\\"]),
    _ints.map(_Int),
    _floats.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(_floats, max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
)
# keys of one dict must be comparable for sort_keys: text, numbers or None
_key_sets = [st.text(), _ints | _floats | st.booleans(), st.none()]


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(_ints, max_size=6),
        st.lists(_ints | st.booleans(), max_size=6),
        *[st.dictionaries(keys, children, max_size=5) for keys in _key_sets],
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_scalars, _containers, max_leaves=40))
def test_json_encoding_matches_json_dumps(payload):
    rep = ReportBundle(config={"payload": payload})
    assert emit(rep, "json") == _emit_oracle(rep)


@pytest.mark.parametrize("key", [(1, 2), np.int64(1), np.bool_(True)])
def test_json_rejects_keys_as_json_dumps_does(key):
    rep = ReportBundle(config={key: 0})
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        _emit_oracle(rep)
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        emit(rep, "json")
