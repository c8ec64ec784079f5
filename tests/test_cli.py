"""Command line behavior: formats, exit codes, determinism."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

import pedpod.cli as cli
from pedpod.core import PartitionClass
from pedpod.counting import count_table
from pedpod.enumeration import class_members
from pedpod.verification import audit_bijection_range, cross_check_counts, verify_identity


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


# The only JSON keys that are not their field's name.
_RENAMED = {"partition_class": "class", "identity_id": "identity"}


def _field_keys(record) -> list:
    return [_RENAMED.get(field.name, field.name) for field in dataclasses.fields(record)]


def test_json_objects_are_their_fields_in_order():
    reports = [
        (count_table(PartitionClass.PED, 5), None),
        (class_members(6, PartitionClass.D1), None),
        (verify_identity("T2", 0, 6), "rows"),
        (audit_bijection_range("thm2.total", 0, 6), "records"),
        (cross_check_counts(8), "records"),
    ]
    for report, inner in reports:
        obj = report.to_obj()
        name = type(report).__name__
        assert list(obj) == _field_keys(report), name
        assert json.loads(json.dumps(obj)) == obj, name  # lists, not tuples, at every depth
        if inner:
            records = getattr(report, inner)
            assert len(obj[inner]) == len(records) > 0, name
            for record, record_obj in zip(records, obj[inner]):
                assert list(record_obj) == _field_keys(record), name


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
    for bad in ("3,3", "(1_0)", "(+3)", "(\u0663,1)"):
        code, out, err = run(["apply", "--bijection", "thm1.add", "--partition", bad], capsys)
        assert code == 2, bad
        assert out == ""
        assert err.startswith("error: malformed partition text"), bad


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


def test_verify_offers_only_the_backends_that_can_count_an_identity(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--identity", "T1", "--to", "5", "--backend", "series"])
    assert info.value.code == 2
    assert "argument --backend: invalid choice: 'series' (choose from 'enum', 'dp')" in capsys.readouterr().err


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
        (["verify", "--identity", "T4", "--to", over, "--backend", "enum"], "verify --to"),
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


# sha256 of stdout for `count --class C --to 60` (dp) and `list --class C --n 12`
# in table and csv form: the README promises that these bytes do not change.
_PINNED_DIGESTS = {
    ("count", "all", "table"): "dee3fd0c490082765f412215bad379f3e5776895a86dd92a6c27a781857c58d9",
    ("list", "all", "table"): "5f1842e1209d24ca4bf0b52a7a1b93ce56e4e0891a71d701b6e64faeee466e4b",
    ("count", "all", "csv"): "53060b2475c5ce53e1d88fb4c8fb93b906a44a75cbe046ab11c600038bb8de85",
    ("list", "all", "csv"): "afb40e37bd7c178cccbe633de12d1e0a975e55d31ac496dafad40580dec23b5d",
    ("count", "four_regular", "table"): "f4278046b5410e3420c191929614f3720adba725d20731d29e22681e2d5502d2",
    ("list", "four_regular", "table"): "46941ff8db20971bfd3b4b28e0093281389dc6aa0e170ae78b7427284e870c28",
    ("count", "four_regular", "csv"): "32a6c6cdceca35a7bf56cf7bf0442e8814b9208bdece3680091b27c0f36a9daf",
    ("list", "four_regular", "csv"): "901fc670e7b56511e6269dd26cf0b955ba220227bbeb620cef30e9c7bc9d2286",
    ("count", "ped", "table"): "a512e818ded5a46e08887c501027f43400d9e3e1c2530cbc7c4e11f16cb75945",
    ("list", "ped", "table"): "bd3fdefc77ebf43a101954f827b559cfaa47ed438a54add66ba0302756a2cbf7",
    ("count", "ped", "csv"): "32a6c6cdceca35a7bf56cf7bf0442e8814b9208bdece3680091b27c0f36a9daf",
    ("list", "ped", "csv"): "6fe4ce99161b5f79f561b14384c737d8d9ad0f3fc7d4233f16722bf6517d2884",
    ("count", "ped_gt1", "table"): "f0719b227abffd04fd6a66e508287b440ecf255fcd88537776325a4fdf9ef37e",
    ("list", "ped_gt1", "table"): "b5bf0b98d14abcbf55b13d77e9cb71e044f8347bdd91b1a81b08ca35d044c3e5",
    ("count", "ped_gt1", "csv"): "6a9593beb482a2cc05da34458a1c7d0ce5b83de78a59bf6e28e356f6b1ff2f60",
    ("list", "ped_gt1", "csv"): "0a3ae8ef2d2afa0dfcbe113d44f69dba5a170f55a878931e683bec4f9af08d0d",
    ("count", "d1", "table"): "0480aa769e8beda25c41f6f5a857bc38dbc0b944fa658aaf668a851774d2be00",
    ("list", "d1", "table"): "ad24ecc8e8297be8e15fde77b0d0f637364824806c9ab2f44215b33d5c43b433",
    ("count", "d1", "csv"): "c44b040c0736e80d63bd350a7c28b969f9c1a107dbe216f9df02a5348b61346e",
    ("list", "d1", "csv"): "0a402c546a66add46b76f27faba5a2709d06e27e87730b73dd8db634d593cd3b",
    ("count", "d2", "table"): "a080184b87f969059fb166681aac035d93866e5d84b10629e419ad4e48f1b54e",
    ("list", "d2", "table"): "bae58c245aba0817eeb589c33c7913420c32f4831fc6632b54c43d5ee7b04276",
    ("count", "d2", "csv"): "33be1b0081a230018562eec0eafbae497109b6c58463e2591ea5c6196191e6d1",
    ("list", "d2", "csv"): "1fa7cbb33917079186f1ffd598a3e9c8ae7e8d49a67b5f0ee79dff2c559f802f",
    ("count", "d3", "table"): "f8551c72d6c4bb4a90aa195f5ccd56271c9b12d1551277b8f2a29554bdd27af1",
    ("list", "d3", "table"): "1e992889050893170fd7e710afa88fb82d93a36fcaf7489a67748e1b57a16fca",
    ("count", "d3", "csv"): "7a6ae8c389a46b9ef5e7171aab3a881c1e708f0519be4654d8d4c0746504ae1d",
    ("list", "d3", "csv"): "0dc22bfeb88a3e9f2bf9e91b010d416ef4e7f5c44cf2a28dd1a87c4b4a3befa7",
    ("count", "pod", "table"): "1598f3e49f8192c0818c0d24a61f99b6eda1ed5c9e441092cc398012117ecca7",
    ("list", "pod", "table"): "0039a3e4c1187b701136c0c0a8de2108b8514d5b4744f1b9d3bedead0eaadb1d",
    ("count", "pod", "csv"): "6e36657fd23e9f677d9cb272ba314c9544ff2d2f158659c3db12a2e07893cec0",
    ("list", "pod", "csv"): "93a8239c068052b59a313690591e4af6356d29220cf82b9d41bd81f142b29365",
    ("count", "pod_gt2", "table"): "e1aafa69676b0d8cbdafd937498a31702e9ea8ec0515951b02083dd31064a49b",
    ("list", "pod_gt2", "table"): "2be576be619688875eeb2049bdaa073a9b8a5ae89ec1a62b4e25906aa89164dc",
    ("count", "pod_gt2", "csv"): "11d3675d96c62c27e4dc67d7790c8572fbbcfe727a023451fc44825da0b44daa",
    ("list", "pod_gt2", "csv"): "3eda49e42c1f8568ef6369fb159a6c802494642a641237a1c2ef5a9c54a26a39",
    ("count", "o1", "table"): "8924c9b43873d26da5faf5bd393f169a1180c07f72534868f42ce6a1e5a24362",
    ("list", "o1", "table"): "20228b5faa0e1bd1042fba5cb94a5826d434aeb5d31f563e4ec7306a86416d4c",
    ("count", "o1", "csv"): "a4b28ed02c03e9f7d6e0c7646fd25ed42f0c7031ecb2f0defab10d6931ed4969",
    ("list", "o1", "csv"): "77d03371a0febc180ce35f29657efa0f514556ff9886606d0d31dd7a753c1afd",
    ("count", "o2", "table"): "34ac4a16a792b6e3285f136055673e03933372a1b52c7d000c4f166ac034b178",
    ("list", "o2", "table"): "9920932ba7a0f1f392cf80374659262942cd48347d71af9e5b831b1a13ef7529",
    ("count", "o2", "csv"): "054401231ee6aa32d878a3f4101f6ab0930c9efc16e4a37fab01d5744338c8b2",
    ("list", "o2", "csv"): "a03be188c76bb6cd9aa87cf6b9bb73f3f3d89966b7d74825f6070daac79186fe",
    ("count", "o3", "table"): "5282be4144eea79879e7d7ea3095b9fe85fd290b347d30a531652b81b5022682",
    ("list", "o3", "table"): "235ef7ed7ac9adae6d8994faaa0cbb09e30f4ba004fbc4c0d01017f3d0e6f9eb",
    ("count", "o3", "csv"): "af323bea6703fc70847461ffe09f3d56fc94f5bf9fae177d16d0f0a96feee48a",
    ("list", "o3", "csv"): "e39ed97e86aff4c35b8b8cd806ae8cef647aef61481bf7722a4fe717884dbd57",
}


@pytest.mark.parametrize("cls", [c.value for c in PartitionClass])
def test_count_and_list_bytes_are_pinned(cls, capsys):
    for (command, name, fmt), digest in _PINNED_DIGESTS.items():
        if name == cls:
            size = ["--to", "60"] if command == "count" else ["--n", "12"]
            code, out, _ = run([command, "--class", cls, *size, "--format", fmt], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)


# sha256 of stdout for the report commands (verify, audit, crosscheck and the
# README's apply examples) in all three formats.  The apply forms cover a plain
# map both ways and a total forward and inverse at each tag, so the JSON key
# order of every apply branch is pinned, not only its dict.
_PINNED_REPORT_DIGESTS = {
    ("verify --identity T1 --to 60", "table"): "cc2bcd780f34adf2f989a3627905f2a97f1ef1084c3a3f27c6e83c838bddcc79",
    ("verify --identity T1 --to 60", "csv"): "669c7ea92c40703d0a58b6951176f820a9a28a4db9eefa1627daaa2180493094",
    ("verify --identity T1 --to 60", "json"): "37b6b02d3d705fa28f79b4b78d8650f1a9224f1877644745b3d99bc3b1cd2500",
    ("verify --identity T2 --to 60", "table"): "84d66274c4243d8bb90e836e479f4a81bf73b8578e584c47ccf6965e2cb53baa",
    ("verify --identity T2 --to 60", "csv"): "d128a9185a939ab379ea1e38914c7874e5437b5803a63b02a9109cfe133fb69f",
    ("verify --identity T2 --to 60", "json"): "ae637d373bd69f0ea9e29abe1510bf71f04edc2e6ff832bbb84d147a53d027c0",
    ("verify --identity T3 --to 60", "table"): "19181d8d58e757695b4a12412082416cc8bb31e4998a039e70be9d598052169a",
    ("verify --identity T3 --to 60", "csv"): "24f398f12c4521851d5cb002d1726fa5f751786825893e2c9a0ffc288df91a67",
    ("verify --identity T3 --to 60", "json"): "8bc0a39e037b636fa19dccbef4eab223a098519dcfb385206cce1673e820a515",
    ("verify --identity T4 --to 60", "table"): "5bf32e444065ce65c4aac9dd7150ae6d84ac40a397e27d2a8c1799398dad0eec",
    ("verify --identity T4 --to 60", "csv"): "e041521945afdc550b44a032a7f18287fe4d0f9ffdf568f007546619e27b6168",
    ("verify --identity T4 --to 60", "json"): "cdd0ab2017f49630e108a7a83fdfb81ed3fc6826a426bc65117319d71a2da57a",
    ("verify --identity T5 --to 60", "table"): "05dfdfc611b5bb725ba83caa5909fbd7edec92e12871feb15bf574503084e794",
    ("verify --identity T5 --to 60", "csv"): "c0b739724ed7a34ae041079d291ef051f786dc6ba4332fb18065aa10b79aa370",
    ("verify --identity T5 --to 60", "json"): "7c4c609addb02008ee2b452f9385866ff421eb152a952fdb601b764366722540",
    ("verify --identity T6 --to 60", "table"): "3e608eb17e42abd6136f7b2c281aaacfb23ec430e96b6723a488eb887de3a652",
    ("verify --identity T6 --to 60", "csv"): "3ac0f0a251e5b96655ec74f4f34acb9948df5ff514fb45b0550dd8fe21bd33d8",
    ("verify --identity T6 --to 60", "json"): "10427db3243a0ec77928addebf598410a50909e80e2443e5b5f842233b703e31",
    ("audit --bijection thm1.add --to 12", "table"): "28198cedb8ef8b8c0972f51d11969ac2112cb9f28b264466cfcc5d0134e2c63a",
    ("audit --bijection thm1.add --to 12", "csv"): "4c370f30f6ef92d14cbcdf1ca0ce53b54d68942664f5b18311bea6c446e02ea7",
    ("audit --bijection thm1.add --to 12", "json"): "19c843beb9c8d8586fdc7a5b24b84bcef15d4039794d0f275b856ac401021b91",
    ("audit --bijection thm2.exceptional --to 12", "table"): "448e02ed04249ee997c49f599bc17cc367e4b460313f04025cad36c4357fbc5e",
    ("audit --bijection thm2.exceptional --to 12", "csv"): "c16be8dff0c118fc3a6d0ed401c0c5d2b96766286e3ec455c5d5b51a5660c4c2",
    ("audit --bijection thm2.exceptional --to 12", "json"): "dc112232ace40ad0eb3c45c2f5462edc190d1e87c36ea024a4a5c49bd505e4d8",
    ("audit --bijection thm2.exchange.CA --to 12", "table"): "446df6c6757cc23a5ab81081d2d733e78e3fc7dde2512aefb90d0786f9dd5d05",
    ("audit --bijection thm2.exchange.CA --to 12", "csv"): "ae8400a24e87a8c39f306e44a274a498ec7d0d32db44cb68fec08fa7108df046",
    ("audit --bijection thm2.exchange.CA --to 12", "json"): "94342b113b1074bdb5ca380111d41cb830658d7f381b0d567ef258f462d6c83e",
    ("audit --bijection thm2.exchange.DB --to 12", "table"): "ffdca5cf5934d844e66dd6d7216a40e8ea77260f99a219457c461510df6cf8e4",
    ("audit --bijection thm2.exchange.DB --to 12", "csv"): "dc524fe8eebdfa1516907a260b187a86e4fca249dcdb142db2b19b1e3806f06b",
    ("audit --bijection thm2.exchange.DB --to 12", "json"): "6b8df6ca4e54d6d41513f9a0dbf93487e3be90e58a8bf92d7f259600782f3c55",
    ("audit --bijection thm2.shift --to 12", "table"): "57b336e076bb5d07820d2bfd2e2bf46194e10b44e3dcf102c0ebe06d25b2b40d",
    ("audit --bijection thm2.shift --to 12", "csv"): "b535869707c3fe4ac45f121881f63ecd1fa04035ef4d4312098413e1528dcdca",
    ("audit --bijection thm2.shift --to 12", "json"): "5865a99a008fcde0e71a0a92591cde1caaffe12a54bab1622b20bc7ecc43260f",
    ("audit --bijection thm2.total --to 12", "table"): "8bf412fbf3ff830b0ac30b59b038153c0ae256d367aaf36c16351e89659f38d1",
    ("audit --bijection thm2.total --to 12", "csv"): "641b1d2d44a31f33473fd0fcd99a8057b0322c7585cd0f1ae21b136f95733e35",
    ("audit --bijection thm2.total --to 12", "json"): "34a2f267afb8083e2e7ea3b406a851873789960b17b1c84a88e7d6d9146d3a96",
    ("audit --bijection thm3.add --to 12", "table"): "cea7b7ec400584972c12e7f886f3319f40e978106ca2ff64675b2d062a4ad7e3",
    ("audit --bijection thm3.add --to 12", "csv"): "ecbabff2c459fe02069db6edad134616553efd62152a39da447bbd441b4a1a49",
    ("audit --bijection thm3.add --to 12", "json"): "960ce2c58b872bd27ebd7c65a9876152cd4276e94c7609815b2ef873e418feb2",
    ("audit --bijection thm3.sub --to 12", "table"): "1034c16e75d247c973461d0e1a385d7df8a58a1b5a2e59dbcee5eefa1817db70",
    ("audit --bijection thm3.sub --to 12", "csv"): "fe2613e0d927f2b8b06ea7ce0e4a5f34929423e3332c74f624739277ab484f31",
    ("audit --bijection thm3.sub --to 12", "json"): "9ffaac767addd706dabd42b931c3188edf0102b2fe23803b22f6661f22f73c4b",
    ("audit --bijection thm4.add --to 12", "table"): "6deceb39cbe3de06640b3c5e22e9f2bfb49690fe4310df0fc4b2675f95d5d8bf",
    ("audit --bijection thm4.add --to 12", "csv"): "15f3542d66c0c98b670bb764d4e5a1884865f4ffe83c80057a6c09be595f10dd",
    ("audit --bijection thm4.add --to 12", "json"): "1bbe535ce17f0e40ad0ac7bbcdfcbc7edee54ea8f194a2f6322d295fb1364299",
    ("audit --bijection thm5.exchange --to 12", "table"): "14d2565f6ee9a69cc1081cc69e306f397cf821f20b192277b3662e572655a920",
    ("audit --bijection thm5.exchange --to 12", "csv"): "108435d64166fe6d99520a269918f79b0da2cb5bc147478ee68f894d602b86da",
    ("audit --bijection thm5.exchange --to 12", "json"): "98d8e49df06fa16c36e8a3d329c9c99f739b046cc18af04e73ee616028def53b",
    ("audit --bijection thm5.shift --to 12", "table"): "313de542732a91218f7498b8c6a1790cf6f57cabddf7605ed820525af300a5ef",
    ("audit --bijection thm5.shift --to 12", "csv"): "9f3f85de85b58b92b5557b14e0df6a7da1dada4ecd350bc8e6efae77274d2499",
    ("audit --bijection thm5.shift --to 12", "json"): "03da1b0e7280f4f1a0a5ea8348973c43044b4a1d406a52086a39f38c652f1cf3",
    ("audit --bijection thm5.total --to 12", "table"): "8a72decc75f14d752118a0c9e8135d40f2c801cd216308cebe5d2cd92d07849b",
    ("audit --bijection thm5.total --to 12", "csv"): "8ad51250026386b441e4ecd1540a2b5393050895540f722baa9f15c325d73995",
    ("audit --bijection thm5.total --to 12", "json"): "66fbaa7bc2e9b3b3e2a3326b16d58e7293ed0703a62069ed774739c7a8628d27",
    ("audit --bijection thm6.add --to 12", "table"): "69c630f4e09a7302b402f9507a56bc244faf9c5e966a8ac588179861d149285b",
    ("audit --bijection thm6.add --to 12", "csv"): "e78a375dec533d4393740c17cfc6b7e4060a47ac212aed3b306bd5d9131e581e",
    ("audit --bijection thm6.add --to 12", "json"): "f2877255e64b7d826fec6c6305bcc43f97320ad2a183438bc9cfdcae8b9d62a1",
    ("audit --bijection thm6.sub --to 12", "table"): "57fff85dca5300b3005334879028d0dbe4899e65424ff488a680f086ad60c083",
    ("audit --bijection thm6.sub --to 12", "csv"): "2650c9f21e928fcefa20a2611cf580acbda0289fbe0c3d87b19ca6f246743ee3",
    ("audit --bijection thm6.sub --to 12", "json"): "4eff30ac3bccba4777270af4463ca474294cd4bd7667d8bbcd04c44e1c53656a",
    ("crosscheck --to 100", "table"): "dc0d78a15f0de80106822f5a12be554ef43f6671c77c54a5096967e9e92be338",
    ("crosscheck --to 100", "csv"): "50a067fa362e7dec618c09c194f316e9374eee82a61e6f02fa0b9ae63a36819b",
    ("crosscheck --to 100", "json"): "3448e5cd182f7d9febe3c4b1e77eddb9b01fe8e45ec9709db4eca2e365189b92",
    ("apply --bijection thm1.add --partition (3,3,2)", "table"): "dba33088b81d70b75709175ae9b30dc0df377d161a58de12e8df6e00380712cc",
    ("apply --bijection thm1.add --partition (3,3,2)", "csv"): "96bd58a1bb5b78de842c6e54ff5ef11c15535f72f00bf288f6d9e896cb5f1183",
    ("apply --bijection thm1.add --partition (3,3,2)", "json"): "5ce00c30e76be5c724477ec39dc1ab01ae89bb3885a6d1d54ad438b6fa00b8ec",
    ("apply --bijection thm2.total --partition (6,5)", "table"): "9e6ef6271d0dd98af0f73ad9005f927e30c37eb946909b1c230b7589e693f6f2",
    ("apply --bijection thm2.total --partition (6,5)", "csv"): "0e01b7266b582889d05ae4b89f2f0850bccbb2f5e50fe51e64e8c1f3c458d98e",
    ("apply --bijection thm2.total --partition (6,5)", "json"): "19acfeed7e85432fe36aa75cd6520aec5ea6466d7532d3327cf2ffa318f883f9",
    ("apply --bijection thm2.total --partition (1,1) --inverse --tag n-3", "table"): "9ab538b9d52de28b08a60ec546e26aafa0d1516050da25f0d16d22c84bc75520",
    ("apply --bijection thm2.total --partition (1,1) --inverse --tag n-3", "csv"): "773703ea1ef66cb8e4e432699c68cd5b48ff8516308fd4be0c52c3284792fdc0",
    ("apply --bijection thm2.total --partition (1,1) --inverse --tag n-3", "json"): "7ac7abf35e333992ce5317e581a5b2812f264875bcf7cb8ff87a2196d6372d9e",
    ("apply --bijection thm1.add --partition (4,3,2) --inverse", "table"): "53e6f434b48da15e277baa6b09ef8f9da1d513831539e10693a71fdcd14f650e",
    ("apply --bijection thm1.add --partition (4,3,2) --inverse", "csv"): "4137465bf35409862c795c0043141b9fe25266036605c2ed710a52cfdef63182",
    ("apply --bijection thm1.add --partition (4,3,2) --inverse", "json"): "61bc1889ef4cabefd9b01c4b8c68449ce6bd63865f4c75d92d0524db6f180520",
    ("apply --bijection thm5.total --partition (5)", "table"): "f6ae287dadfa7cfec4b69db5fcd9d6bc05be913d2d4389a1f468c8eaebfd1e77",
    ("apply --bijection thm5.total --partition (5)", "csv"): "f28b2a1050ec3d75fa284b9d22d45c3816ec020e478d05783907f783f47e8330",
    ("apply --bijection thm5.total --partition (5)", "json"): "3c0034ab4796c9225ae643fd9216f2b49aa7d118c05d2ffe6e42b9e0032ef018",
    ("apply --bijection thm2.total --partition (5,5,1) --inverse --tag n", "table"): "e17ba6c11fbd444d08ef84e2ec63a6e1321e1e044c338753c833cfc729e429f9",
    ("apply --bijection thm2.total --partition (5,5,1) --inverse --tag n", "csv"): "1cd4501f81e88e3b2e367a1f36f201568f35e806a1d60e06091dc6f323ebce6e",
    ("apply --bijection thm2.total --partition (5,5,1) --inverse --tag n", "json"): "62d6a0ab7fbb55115139281d89a1cee8067e5695309baab7500d669f452f4dfd",
}


@pytest.mark.parametrize("command", sorted({command for command, _ in _PINNED_REPORT_DIGESTS}))
def test_report_bytes_are_pinned(command, capsys):
    for fmt in ("table", "csv", "json"):
        code, out, _ = run([*command.split(), "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_REPORT_DIGESTS[command, fmt], fmt


# sha256 of stdout for `list --class C --n N --format json` at n = 0, 1 and 12:
# the listing walk may change, these bytes may not.
_PINNED_LIST_JSON_DIGESTS = {
    ("all", 0): "afcabd4cb4843e94631e565bcace2bb1be681ffc22f6b9e3b29099e26b163cc0",
    ("all", 1): "9f6f41e4804b26f444d6809cd8b63e4ad3fb7bb1d4ff8a4e73a79d3cefe1b210",
    ("all", 12): "90ea658d6b5f10694709639064d33dc32570566f8784824a6dd7884e6eb6dffa",
    ("four_regular", 0): "09c49996c06a97e9c65158fecde7c9f31ec0e5a0ea6bf008f4d098eec8d54810",
    ("four_regular", 1): "179135878535bce60c4301e0d69ef0d4a891a0f7389f3a552500cf6148c9f71b",
    ("four_regular", 12): "10988d3ea964952e9a2e961df93b86071b7bc7e9365a6f8faa6078fd848c38fb",
    ("ped", 0): "83247101ea45494672e42eb297cc1750eadfe5202c6731b82eb41b9df502816d",
    ("ped", 1): "ef92eccc38e15a2b39d2a5e1c0d435b3a0f3fa8f2c5d0923638858aed2848d97",
    ("ped", 12): "b9fdfae8863defd1a643e0ad5cbfe12c0846a58c9c4981336b98e86b08f025a9",
    ("ped_gt1", 0): "73d128a944976daa251dc85813d64b019e1a9fb9cc40640363aad559c420fad8",
    ("ped_gt1", 1): "2923f245c7fb9ff68fbdfdc7662bddf383f1022df6ac1170e1941ae16babbcca",
    ("ped_gt1", 12): "ba50b913e51d8ab7577edc2d11004002ab257dcfc24703d7d8f6669fe82d86f7",
    ("d1", 0): "c1dda5b45cbfe4ae3152b19e5575e0d6f3758379b7255fbb4093905e365b2065",
    ("d1", 1): "0f313d7b9143310bd6fb3a77524a6d825a9a498fa2d338900fc4307ae11fe552",
    ("d1", 12): "f41cb9e60933653b7a7f22823d377623d0f70e102d675ead89e7423a5fabc26d",
    ("d2", 0): "26078dafc558afe101eda14b2c5360070914052025aaa49120089120615f27d6",
    ("d2", 1): "be8ab81bbbefdaa0cd42396adc5e37c8f946d9f80a46f1d02532338285943e58",
    ("d2", 12): "55b5b368888ca16d8d042d4f30a7cfcb391e5e249242a97a73583512b3b3dc08",
    ("d3", 0): "d9c715cf9f67b6d73ffb895c4592b2923ba6fd8fd4bf22d0f03c980a32e2d948",
    ("d3", 1): "014b395d58f0b9a9dd5b36b87159b4bb16da94e75c22c3ed13c0aa4389050440",
    ("d3", 12): "990c9be0e41374f6e4eefaea01a802b04ce9518dfbb4cc176167c9627ac955fe",
    ("pod", 0): "70273ce2f7a9f53cc96f24f4b6b5e445b71a1804f507f46a2d1a86077086fba7",
    ("pod", 1): "6cbbd9fae5d95e9add5c62dbf82aaf050969d842c90d01d2a872ed97792514c2",
    ("pod", 12): "9baa5919393d17dc4ec3f868c070b9b56b038502007dc3d06c41569bcbe7a822",
    ("pod_gt2", 0): "06afa9425c15573111707166e6791ae28d71a166309eff537119c52a8f137758",
    ("pod_gt2", 1): "dedc578d80dd17448a43dc64d6a80839237809077e4966d652d4d141b970fb1e",
    ("pod_gt2", 12): "b70ea6ab7db365617e0b25169da9dc7eee4fe2829c7b87a3e0d498a82a854005",
    ("o1", 0): "2e3a2c691cd086db875fbb23dc8e49d7188d76d0f222102a33d9c121425709c0",
    ("o1", 1): "28e938a10e045fd29850c67caac623da216ae51aea8a11f7998c3d595556ddf0",
    ("o1", 12): "d02f5785efbae9c52800f8c9b023d898143eca159e8495258084b902c3d77f4f",
    ("o2", 0): "299f5ed8e91e0f934f0b3206619dcd56812c9a2551cebc0291e22f48e32f96a2",
    ("o2", 1): "b946c763e1ddfaa11b80fd04aebba92171cc2a5559cac9d0db52fb2b65630262",
    ("o2", 12): "a5e19c78e848e36b03efb01a2d3ed64388c0a056b647e962847fb3df2f4c60ea",
    ("o3", 0): "4b05d829b97c7755f6003eb0e678fc825ccdf817a68cb8d48cc037fb4c31ea3e",
    ("o3", 1): "80f56581485cdd2bd6994b8d9f21f484eac7c151796c4ed48d0257e9ff5f8898",
    ("o3", 12): "8562ec78445204173afd7b866b9926053af8a0222263097c457961835bb1426e",
}


@pytest.mark.parametrize("cls", [c.value for c in PartitionClass])
def test_list_json_bytes_are_pinned(cls, capsys):
    for n in (0, 1, 12):
        code, out, _ = run(["list", "--class", cls, "--n", str(n), "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_LIST_JSON_DIGESTS[cls, n], n

def test_width_hint_caps_table_lines(monkeypatch, capsys):
    monkeypatch.setenv("PEDPOD_WIDTH", "18")
    code, out, _ = run(["verify", "--identity", "T1", "--to", "8"], capsys)
    assert code == 0
    assert out.splitlines()
    assert all(len(line) <= 18 for line in out.splitlines())
    code, out, _ = run(["count", "--class", "ped", "--to", "5", "--format", "csv"], capsys)
    assert out.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3", "4,4", "5,6"]


def test_width_hint_ignores_garbage(monkeypatch, capsys):
    for width in ("wide", "\u00b2", "\u0661\u0668"):  # "²" and Arabic-Indic "18" are not ASCII digits
        monkeypatch.setenv("PEDPOD_WIDTH", width)
        code, out, _ = run(["list", "--class", "d1", "--n", "4"], capsys)
        assert code == 0, width
        assert out.splitlines() == ["(3,1)", "(1,1,1,1)"]
        code, out, _ = run(["verify", "--identity", "T1", "--to", "8"], capsys)
        assert code == 0, width
        assert max(map(len, out.splitlines())) > 18, width


def test_module_entry_point(pedpod_env):
    result = subprocess.run(
        [sys.executable, "-m", "pedpod", "count", "--class", "ped", "--to", "3", "--format", "csv"],
        capture_output=True,
        text=True,
        env=pedpod_env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["n,count", "0,1", "1,1", "2,2", "3,3"]
