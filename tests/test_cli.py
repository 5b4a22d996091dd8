"""Command-line interface."""

from __future__ import annotations

import csv
import io
import json

import pytest

from stabkit.cli import RunConfig, emit, main, run


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


def test_test_command_requires_seed():
    with pytest.raises(SystemExit):
        run(RunConfig(command="test", protocol="mc", seed=None))


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
    with pytest.raises(SystemExit, match="--d 2"):
        run(RunConfig(command="test", protocol=protocol, d=3, seed=1))


def test_config_has_only_command_line_fields(capsys):
    code, out = _capture(capsys, ["enumerate-o", "--t", "3", "--d", "3"])
    assert code == 0
    assert not {"cap", "tolerance"} & set(json.loads(out)["config"])
