from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys

import pytest

from posetcode.bitset import from_elements
from posetcode.cli import main
from posetcode.code import LinearCode, format_code
from posetcode.field import gf

PAIR_TEXT = "q 2 n 4 k 2\n1 1 0 0\n0 0 1 1\n"
PARITY3_TEXT = "q 2 n 3 k 2\n1 0 1\n0 1 1\n"
REP3_TEXT = "q 2 n 3 k 1\n1 1 1\n"


@pytest.fixture
def pair_file(tmp_path):
    f = tmp_path / "pair.code"
    f.write_text(PAIR_TEXT)
    return str(f)


@pytest.fixture
def parity3_file(tmp_path):
    f = tmp_path / "parity3.code"
    f.write_text(PARITY3_TEXT)
    return str(f)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_hierarchy_text(capsys, pair_file):
    status, out, err = run_cli(capsys, "hierarchy", "--code", pair_file, "--poset", "antichain:4")
    digest = hashlib.sha256(b"n 4\n").hexdigest()[:12]
    assert status == 0 and err == ""
    assert out == (
        f"n=4 k=2 q=2 method=ideal-scan poset={digest}\n"
        "r=1 d=2 ideal {1,2}\n"
        "r=2 d=4 ideal {1,2,3,4}\n"
    )


def test_hierarchy_json(capsys, pair_file):
    status, out, err = run_cli(
        capsys, "hierarchy", "--code", pair_file, "--poset", "antichain:4", "--json"
    )
    assert status == 0
    digest = hashlib.sha256(b"n 4\n").hexdigest()[:12]
    assert json.loads(out) == {
        "n": 4,
        "k": 2,
        "q": 2,
        "poset": digest,
        "method": "ideal-scan",
        "weights": [2, 4],
        "witnesses": [[1, 2], [1, 2, 3, 4]],
    }
    assert out.count("\n") == 1


def test_hierarchy_bruteforce_text(capsys, pair_file):
    status, out, _ = run_cli(
        capsys,
        "hierarchy", "--code", pair_file, "--poset", "antichain:4", "--method", "bruteforce",
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[1] == "r=1 d=2 basis [1 1 0 0]"
    assert lines[2] == "r=2 d=4 basis [1 1 0 0 | 0 0 1 1]"


def test_duality_text(capsys, pair_file):
    status, out, err = run_cli(capsys, "duality", "--code", pair_file, "--poset", "antichain:4")
    assert status == 0 and err == ""
    assert out == (
        "n=4 k=2\n"
        "weights      2 4\n"
        "dual weights 2 4\n"
        "first  {2,4}\n"
        "second {1,3}\n"
        "partition of 1..4: ok\n"
    )


def test_duality_json(capsys, pair_file):
    status, out, _ = run_cli(capsys, "duality", "--code", pair_file, "--poset", "antichain:4", "--json")
    assert status == 0
    assert json.loads(out) == {
        "n": 4,
        "k": 2,
        "weights": [2, 4],
        "dual_weights": [2, 4],
        "first": [2, 4],
        "second": [1, 3],
    }


def test_distribution_text(capsys, pair_file):
    status, out, _ = run_cli(capsys, "distribution", "--code", pair_file, "--poset", "antichain:4")
    assert status == 0
    assert out == (
        "classification: NMDS d1=2 d2=4\n"
        "method: enumerate\n"
        "A_0 = 1\n"
        "A_1 = 0\n"
        "A_2 = 2\n"
        "A_3 = 0\n"
        "A_4 = 1\n"
    )


def test_distribution_methods_share_output(capsys, pair_file):
    results = []
    for method in ("enumerate", "moebius", "closed-form"):
        status, out, _ = run_cli(
            capsys,
            "distribution", "--code", pair_file, "--poset", "antichain:4",
            "--method", method, "--json",
        )
        assert status == 0
        results.append(json.loads(out))
    assert results[0]["counts"] == results[1]["counts"] == results[2]["counts"] == [1, 0, 2, 0, 1]
    assert {r["method"] for r in results} == {"enumerate", "moebius", "closed-form"}
    assert all(r["classification"] == "NMDS" for r in results)


def test_distribution_closed_form_rejects_other(capsys, tmp_path):
    f = tmp_path / "other.code"
    f.write_text("q 2 n 3 k 1\n1 1 0\n")
    status, out, err = run_cli(
        capsys,
        "distribution", "--code", str(f), "--poset", "antichain:3", "--method", "closed-form",
    )
    assert status == 1 and out == ""
    assert err.startswith("error: closed-form needs an MDS or NMDS code")


def test_classify_text(capsys, parity3_file, pair_file, tmp_path):
    status, out, _ = run_cli(capsys, "classify", "--code", parity3_file, "--poset", "antichain:3")
    assert status == 0 and out == "MDS d1=2 d2=3\n"
    status, out, _ = run_cli(capsys, "classify", "--code", pair_file, "--poset", "antichain:4")
    assert status == 0 and out == "NMDS d1=2 d2=4\n"
    f = tmp_path / "rep3.code"
    f.write_text(REP3_TEXT)
    status, out, _ = run_cli(capsys, "classify", "--code", str(f), "--poset", "chain:3")
    assert status == 0 and out == "MDS d1=3\n"


def test_classify_json(capsys, pair_file):
    status, out, _ = run_cli(capsys, "classify", "--code", pair_file, "--poset", "antichain:4", "--json")
    assert status == 0
    got = json.loads(out)
    assert got["label"] == "NMDS" and got["d1"] == 2 and got["d2"] == 4
    assert got["d1_witness"] == [1, 2]
    assert got["dimension_profile_ok"] is True
    assert got["dual_rank_profile_ok"] is True
    assert got["column_conditions_ok"] is True


def test_rank_json(capsys, pair_file):
    status, out, _ = run_cli(capsys, "rank", "--code", pair_file, "--set", "2,1")
    assert status == 0
    assert json.loads(out) == {
        "n": 4,
        "k": 2,
        "set": [1, 2],
        "rank": 1,
        "dual_rank": 1,
        "shortened_dim_three_ways": [1, 1, 1],
    }
    status, out, _ = run_cli(capsys, "rank", "--code", pair_file, "--set", "")
    assert status == 0
    assert json.loads(out)["set"] == []


def test_rank_json_above_table_limit(capsys, tmp_path):
    # n = 20 is past the all-subsets tables (n <= 16); one subset still works
    rng = random.Random(70)
    code = LinearCode.from_generator(gf(3), [[rng.randrange(3) for _ in range(20)] for _ in range(8)])
    f = tmp_path / "n20.code"
    f.write_text(format_code(code))
    elements = [e for e in range(1, 21) if e % 5]
    status, out, err = run_cli(capsys, "rank", "--code", str(f), "--set", ",".join(map(str, elements)))
    assert status == 0 and err == ""
    mask = from_elements(elements, 20)
    dual_rank = code.parity.column_submatrix(mask).rank()
    complement_rank = code.generator.column_submatrix(((1 << 20) - 1) ^ mask).rank()
    dim = code.shorten(mask)[0]
    assert len(elements) - dual_rank == code.k - complement_rank == dim
    assert json.loads(out) == {
        "n": 20,
        "k": code.k,
        "set": elements,
        "rank": code.generator.column_submatrix(mask).rank(),
        "dual_rank": dual_rank,
        "shortened_dim_three_ways": [dim, dim, dim],
    }


def test_rank_set_errors(capsys, pair_file):
    status, _, err = run_cli(capsys, "rank", "--code", pair_file, "--set", "1,x")
    assert status == 1 and "comma-separated integers" in err
    status, _, err = run_cli(capsys, "rank", "--code", pair_file, "--set", "0")
    assert status == 1 and err.startswith("error:")
    status, _, err = run_cli(capsys, "rank", "--code", pair_file, "--set", "5")
    assert status == 1 and err.startswith("error:")
    status, _, err = run_cli(capsys, "rank", "--code", pair_file, "--set", "1,1")
    assert status == 1 and err.startswith("error:")


def test_poset_preset_errors(capsys, pair_file):
    status, _, err = run_cli(capsys, "hierarchy", "--code", pair_file, "--poset", "chain:x")
    assert status == 1 and "not an integer" in err
    status, _, err = run_cli(capsys, "hierarchy", "--code", pair_file, "--poset", "chain:3")
    assert status == 1 and "poset size 3 != code length 4" in err
    status, _, err = run_cli(capsys, "hierarchy", "--code", pair_file, "--poset", "nowhere.poset")
    assert status == 1 and "cannot read" in err


def test_missing_code_file(capsys):
    status, _, err = run_cli(capsys, "classify", "--code", "nowhere.code", "--poset", "chain:2")
    assert status == 1 and err.startswith("error: cannot read")


def test_poset_file_input(capsys, pair_file, tmp_path):
    p = tmp_path / "v.poset"
    p.write_text("n 4\n1 < 3\n2 < 3\n")
    status, out, _ = run_cli(capsys, "hierarchy", "--code", pair_file, "--poset", str(p))
    assert status == 0 and out.startswith("n=4 k=2")


def test_usage_and_help_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["hierarchy"]) == 1  # missing required arguments
    capsys.readouterr()
    assert main(["hierarchy", "--code", "x", "--poset", "y", "--method", "guess"]) == 1
    capsys.readouterr()


def test_selftest_text_and_exit(capsys):
    status, out, err = run_cli(capsys, "selftest", "--seed", "3", "--trials", "4")
    assert status == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "seed=3 trials=4"
    assert lines[-1] == "PASS"
    assert any(line.startswith("rank-axioms:") for line in lines)
    assert any(line.startswith("mds=") for line in lines)


def test_selftest_trials_must_be_positive(capsys):
    status, _, err = run_cli(capsys, "selftest", "--trials", "0")
    assert status == 1 and "trials must be positive" in err


def test_selftest_json_deterministic(capsys):
    status1, out1, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "5", "--json")
    status2, out2, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "5", "--json")
    assert status1 == status2 == 0
    assert out1 == out2
    got = json.loads(out1)
    assert got["passed"] is True and got["failures"] == []


def test_selftest_corrupt_rank_fails_loudly(capsys):
    status, out, err = run_cli(capsys, "selftest", "--seed", "1", "--trials", "2", "--corrupt-rank")
    assert status == 2
    assert out.splitlines()[-1] == "FAIL"
    assert "FAIL rank-axioms: rank violates R1 at A=0x1" in err
    assert "reproducer:" in err
    assert "q " in err and "n " in err  # reproducer carries both text formats


def test_console_entry_point(pair_file):
    # the module also runs as a script; exercises sys.exit plumbing
    proc = subprocess.run(
        [sys.executable, "-m", "posetcode.cli", "classify", "--code", pair_file, "--poset", "antichain:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "NMDS d1=2 d2=4\n"
