"""Command line behavior: formats, exit codes, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest

import pedpod.cli as cli
from pedpod.core import PartitionClass
from pedpod.enumeration import class_members


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_count_csv_example(capsys):
    code, out, err = run(["count", "--class", "ped", "--to", "5", "--backend", "dp", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3", "4,4", "5,6"]
    assert err == ""


def test_count_table(capsys):
    code, out, _ = run(["count", "--class", "pod", "--to", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pod counts, backend=DP"
    assert lines[1].split() == ["n", "count"]
    assert lines[-1].split() == ["4", "3"]


def test_count_json(capsys):
    code, out, _ = run(["count", "--class", "ped", "--to", "3", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"class": "ped", "backend": "DP", "n_max": 3, "counts": [1, 1, 2, 3]}


def test_list_example(capsys):
    code, out, _ = run(["list", "--class", "d1", "--n", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["(3,1)", "(1,1,1,1)"]


def test_list_csv_and_json(capsys):
    code, out, _ = run(["list", "--class", "d1", "--n", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,partition", '4,"(3,1)"', '4,"(1,1,1,1)"']
    code, out, _ = run(["list", "--class", "d1", "--n", "4", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 4, "class": "d1", "members": [[3, 1], [1, 1, 1, 1]]}


def test_apply_example(capsys):
    code, out, _ = run(["apply", "--bijection", "thm1.add", "--partition", "(3,3,2)"], capsys)
    assert code == 0
    assert out.strip() == "(4,3,2)"


def test_apply_inverse(capsys):
    code, out, _ = run(["apply", "--bijection", "thm1.add", "--partition", "(4,3,2)", "--inverse"], capsys)
    assert code == 0
    assert out.strip() == "(3,3,2)"


def test_apply_total_forward_and_inverse(capsys):
    code, out, _ = run(["apply", "--bijection", "thm2.total", "--partition", "(6,5)"], capsys)
    assert code == 0
    assert out.strip() == "(5,5,1) @ n"
    code, out, _ = run(["apply", "--bijection", "thm2.total", "--partition", "(3,2)"], capsys)
    assert code == 0
    assert out.strip() == "(1,1) @ n-3"
    code, out, _ = run(
        ["apply", "--bijection", "thm2.total", "--partition", "(1,1)", "--inverse", "--tag", "n-3"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "(3,2)"


def test_apply_json_payload(capsys):
    code, out, _ = run(
        ["apply", "--bijection", "thm5.total", "--partition", "(5)", "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "input": [5],
        "output": [2, 2, 1],
        "tag": "n",
        "bijection": "thm5.total",
        "direction": "forward",
    }


def test_apply_usage_errors(capsys):
    code, _, err = run(["apply", "--bijection", "thm1.add", "--partition", "(2,2)"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["apply", "--bijection", "thm2.total", "--partition", "(1,1)", "--inverse"], capsys)
    assert code == 2
    code, _, err = run(
        ["apply", "--bijection", "thm1.add", "--partition", "(3,3)", "--tag", "n"], capsys
    )
    assert code == 2
    code, _, err = run(["apply", "--bijection", "thm1.add", "--partition", "3,3"], capsys)
    assert code == 2


def test_verify_example_exit_zero(capsys):
    code, out, _ = run(["verify", "--identity", "T1", "--to", "35", "--backend", "enum"], capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_informational_rows_do_not_fail(capsys):
    code, out, _ = run(["verify", "--identity", "T5", "--from", "0", "--to", "10"], capsys)
    assert code == 0
    assert "info-fail" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    real = cli.verify_identity

    def fake(identity, n_lo, n_hi, backend):
        return dataclasses.replace(real(identity, n_lo, n_hi, backend), overall_pass=False)

    monkeypatch.setattr(cli, "verify_identity", fake)
    code, out, _ = run(["verify", "--identity", "T1", "--to", "5"], capsys)
    assert code == 1


def test_audit_exit_codes(monkeypatch, capsys):
    code, out, _ = run(["audit", "--bijection", "thm4.add", "--to", "10"], capsys)
    assert code == 0
    assert "[reconstructed]" in out
    real = cli.audit_bijection_range

    def fake(key, n_lo, n_hi):
        return dataclasses.replace(real(key, n_lo, n_hi), overall_pass=False)

    monkeypatch.setattr(cli, "audit_bijection_range", fake)
    code, _, _ = run(["audit", "--bijection", "thm4.add", "--to", "10"], capsys)
    assert code == 1


def test_audit_to_is_capped(capsys):
    code, out, err = run(["audit", "--bijection", "thm1.add", "--to", "51"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: audits list both sides of a map in full; n_hi is capped at 50\n"


def test_audit_json(capsys):
    code, out, _ = run(["audit", "--bijection", "thm6.sub", "--to", "8", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["subject"] == "thm6.sub"
    assert obj["reconstructed"] is True
    assert obj["overall_pass"] is True


def test_crosscheck(capsys):
    code, out, _ = run(["crosscheck", "--to", "20"], capsys)
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(["crosscheck", "--to", "20", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "check,n_hi,passed"


def test_unknown_selector_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--class", "nope", "--to", "3"])
    assert info.value.code == 2
    capsys.readouterr()


def test_out_of_range_n_exit_two(capsys):
    code, _, err = run(["count", "--class", "ped", "--to", "-2"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run(["list", "--class", "ped", "--n", "-1"], capsys)
    assert code == 2
    code, _, _ = run(["count", "--class", "ped", "--to", "60", "--backend", "enum"], capsys)
    assert code == 2
    code, _, _ = run(["count", "--class", "d1", "--to", "5", "--backend", "series"], capsys)
    assert code == 2


def test_list_n_is_capped(capsys):
    code, out, err = run(["list", "--class", "o2", "--n", str(cli.LIST_N_CAP + 1)], capsys)
    assert code == 2
    assert out == ""
    assert "list --n" in err and str(cli.LIST_N_CAP) in err
    code, out, _ = run(["list", "--class", "o2", "--n", str(cli.LIST_N_CAP)], capsys)
    assert code == 0
    assert len(out.splitlines()) == len(class_members(cli.LIST_N_CAP, PartitionClass.O2).members)
    assert class_members(cli.LIST_N_CAP + 1, PartitionClass.O2).members  # the library is uncapped


def test_count_to_is_capped_on_every_backend(capsys):
    for backend in ("dp", "series", "enum"):
        argv = ["count", "--class", "ped", "--to", str(cli.COUNT_TO_CAP + 1), "--backend", backend]
        code, out, err = run(argv, capsys)
        assert code == 2, backend
        assert out == ""
        assert "count --to" in err and str(cli.COUNT_TO_CAP) in err, backend
    code, _, err = run(["count", "--class", "ped", "--to", "51", "--backend", "enum"], capsys)
    assert code == 2
    assert err == "error: enum backend is capped at n_max <= 50; use dp\n"



def test_verify_and_crosscheck_to_are_capped(capsys):
    over = str(cli.COUNT_TO_CAP + 1)
    for argv, flag in (
        (["verify", "--identity", "T2", "--to", over], "verify --to"),
        (["verify", "--identity", "T4", "--to", over, "--backend", "series"], "verify --to"),
        (["crosscheck", "--to", over], "crosscheck --to"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: {flag} is capped at {cli.COUNT_TO_CAP}, got {over}\n"

def test_verify_enum_cap_counts_the_identity_offset(capsys):
    code, out, err = run(["verify", "--identity", "T3", "--to", "49", "--backend", "enum"], capsys)
    assert code == 2
    assert out == ""
    assert "T3" in err and "n_hi+2" in err and "at most 48" in err
    code, _, err = run(["verify", "--identity", "T6", "--to", "49", "--backend", "enum"], capsys)
    assert code == 2
    assert "T6" in err and "at most 48" in err
    code, _, err = run(["verify", "--identity", "T1", "--to", "51", "--backend", "enum"], capsys)
    assert code == 2
    assert "T1" in err and "at most 50" in err


def test_count_and_list_are_byte_identical_across_runs(capsys):
    first = run(["count", "--class", "o2", "--to", "12", "--format", "csv"], capsys)
    second = run(["count", "--class", "o2", "--to", "12", "--format", "csv"], capsys)
    assert first == second
    first = run(["list", "--class", "ped", "--n", "9"], capsys)
    second = run(["list", "--class", "ped", "--n", "9"], capsys)
    assert first == second


def test_width_hint_caps_table_lines(monkeypatch, capsys):
    monkeypatch.setenv("PEDPOD_WIDTH", "18")
    code, out, _ = run(["verify", "--identity", "T1", "--to", "8"], capsys)
    assert code == 0
    assert out.splitlines()
    assert all(len(line) <= 18 for line in out.splitlines())
    code, out, _ = run(["count", "--class", "ped", "--to", "5", "--format", "csv"], capsys)
    assert out.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3", "4,4", "5,6"]


def test_width_hint_ignores_garbage(monkeypatch, capsys):
    monkeypatch.setenv("PEDPOD_WIDTH", "wide")
    code, out, _ = run(["list", "--class", "d1", "--n", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["(3,1)", "(1,1,1,1)"]


def test_module_entry_point(pedpod_env):
    result = subprocess.run(
        [sys.executable, "-m", "pedpod", "count", "--class", "ped", "--to", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        env=pedpod_env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3"]
