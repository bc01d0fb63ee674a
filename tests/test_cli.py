from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from posetcode.bitset import from_elements
from posetcode.cli import _build_parser, main
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


@pytest.mark.parametrize(
    ("name", "methods"),
    [
        ("hierarchy", ["ideal-scan", "bruteforce"]),
        ("duality", None),
        ("distribution", ["enumerate", "moebius", "closed-form"]),
        ("classify", None),
    ],
)
def test_instance_subcommands_take_code_poset_method_and_json(capsys, name, methods):
    # --code and --poset required, the --method choices with the first the default, and --json
    parser = _build_parser()
    args = parser.parse_args([name, "--code", "c", "--poset", "p"])
    assert (args.code, args.poset, args.json) == ("c", "p", False)
    assert parser.parse_args([name, "--code", "c", "--poset", "p", "--json"]).json
    assert main([name, "--code", "c"]) == 1 and main([name, "--poset", "p"]) == 1
    capsys.readouterr()
    subparser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    method = next((a for a in subparser._actions if a.dest == "method"), None)
    if methods is None:
        assert method is None and not hasattr(args, "method")
    else:
        assert (method.choices, method.default, args.method) == (methods, methods[0], methods[0])


def test_main_calls_in_one_process_match_fresh_ones(capsys, pair_file):
    # the parser is built once per process; a usage error must leave it
    # as good as new for the calls after it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    calls = [
        ["classify", "--code", pair_file, "--poset", "antichain:4"],
        ["hierarchy", "--code", pair_file],
        ["hierarchy", "--code", pair_file, "--poset", "chain:4", "--json"],
        ["no-such-command"],
        ["distribution", "--code", pair_file, "--poset", "antichain:4", "--method", "moebius"],
        ["rank", "--code", pair_file, "--set", "1,x"],
        ["duality", "--code", pair_file, "--poset", "chain:4"],
    ]
    for argv in calls:
        status, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "posetcode.cli", *argv], capture_output=True, text=True, env=env)
        assert (status, out) == (fresh.returncode, fresh.stdout), argv
    assert list(map(main, calls[:4])) == [0, 1, 0, 1]
    assert _build_parser.cache_info().misses == 1


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


def test_selftest_corrupt_rank_fails_loudly(capsys, poison_first_instance):
    poison_first_instance()
    status, out, err = run_cli(capsys, "selftest", "--seed", "1", "--trials", "2")
    assert status == 2
    assert out.splitlines()[-1] == "FAIL"
    assert "FAIL rank-axioms: rank violates R1 at A=0x1" in err
    assert "reproducer:" in err
    assert "q " in err and "n " in err  # reproducer carries both text formats


@pytest.mark.parametrize("command", ["hierarchy", "duality", "distribution", "classify"])
def test_self_check_failure_prints_reproducer(capsys, monkeypatch, command):
    from posetcode.code import load_code, parse_code
    from posetcode.poset import load_poset, parse_poset

    # every table here is a zeta fill of an enumerate census; with every word
    # counted in the empty set each ideal holds the whole code, and the key
    # table's self-check must fail
    monkeypatch.setattr(LinearCode, "closure_tally", lambda self, poset: {0: self.codeword_count})
    data = Path(__file__).resolve().parent / "data"
    code_path, poset_path = str(data / "hamming7.code"), str(data / "nrt7.poset")
    status, out, err = run_cli(capsys, command, "--code", code_path, "--poset", poset_path)
    assert status == 2 and out == ""
    message, reproducer = err.split("reproducer:\n")
    assert message.startswith("self-check failed: ")
    lines = reproducer.splitlines()
    split = next(i for i, line in enumerate(lines) if line.startswith("n "))
    code = parse_code("\n".join(lines[:split]))
    assert code.generator.rows == load_code(code_path).generator.rows
    assert parse_poset("\n".join(lines[split:])) == load_poset(poset_path)


def poison_off_ideals(monkeypatch, source, value):
    """Patch the RankProfile table source (shortened_dims or census_dims) to
    hold value at every grid point that is no ideal."""
    from posetcode.matroid import RankProfile

    real = getattr(RankProfile, source)

    def poisoned(self, poset):
        flags = poset.chain_layout().flags
        return bytes(dim if flags is None or flags[i] else value for i, dim in enumerate(real(self, poset)))

    monkeypatch.setattr(RankProfile, source, poisoned)


@pytest.mark.parametrize(
    "files, index, value",
    [(("hamming7", "nrt7"), -1, 5), (("hamming7", "nrt7"), -1, 0), (("hamming7", "nrt7"), 0, 1)]
    + [(("parity3", "v3"), -1, 3), (("parity3", "v3"), -1, 0), (("parity3", "v3"), 0, 1)],
    ids=["dim-above-k", "rank-above-n-k", "rank-negative", "dim-above-k-v3", "rank-above-n-k-v3", "rank-negative-v3"],
)
def test_key_table_refuses_a_poisoned_dims_byte(capsys, monkeypatch, files, index, value):
    from posetcode.code import load_code
    from posetcode.distribution import classify
    from posetcode.errors import SelfCheckError
    from posetcode.hierarchy import duality_partition, weight_hierarchy
    from posetcode.matroid import RankProfile
    from posetcode.poset import load_poset

    data = Path(__file__).resolve().parent / "data"
    code_path, poset_path = str(data / f"{files[0]}.code"), str(data / f"{files[1]}.poset")
    code, poset = load_code(code_path), load_poset(poset_path)
    entries = (weight_hierarchy, duality_partition, classify)
    honest = [entry(code, poset) for entry in entries]
    # v3 has a grid point that is no ideal: whatever it holds, nothing reads it
    for off in (255, code.k + 1):
        poison_off_ideals(monkeypatch, "shortened_dims", off)
        assert [entry(load_code(code_path), poset) for entry in entries] == honest
        monkeypatch.undo()
    real = RankProfile.shortened_dims

    def poisoned(self, poset):
        # the last grid point is the full ideal, the first the empty one: hamming7
        # is [7,4] and parity3 [3,2], so dim k + 1 > k at the full ideal, dim 0
        # there leaves rank_H = n > n - k, and dim 1 on the empty ideal makes rank_H = -1
        dims = bytearray(real(self, poset))
        dims[index] = value
        return bytes(dims)

    monkeypatch.setattr(RankProfile, "shortened_dims", poisoned)
    for entry in entries:
        with pytest.raises(SelfCheckError, match="is not a pair"):
            entry(load_code(code_path), poset)
    status, out, err = run_cli(capsys, "duality", "--code", code_path, "--poset", poset_path)
    assert status == 2 and out == ""
    assert err.startswith("self-check failed: shortened dimension")
    assert "reproducer:\n" in err and format_code(code) in err


@pytest.mark.parametrize(
    "files, index, value",
    [(("simplex7", "antichain:7"), -1, 0), (("simplex7", "antichain:7"), 3, 5)]
    + [(("parity3", "v3"), -1, 0), (("parity3", "v3"), 3, 5)],
    ids=["borrow", "dim-above-k", "borrow-v3", "dim-above-k-v3"],
)
def test_moebius_census_refuses_a_poisoned_table(capsys, monkeypatch, files, index, value):
    from posetcode.cli import _poset_from_arg
    from posetcode.code import load_code
    from posetcode.distribution import _closed_form_counts, distribution, support_census
    from posetcode.matroid import RankProfile

    data = Path(__file__).resolve().parent / "data"
    code_path = str(data / f"{files[0]}.code")
    poset_path = files[1] if ":" in files[1] else str(data / f"{files[1]}.poset")
    code, poset = load_code(code_path), _poset_from_arg(poset_path)
    census, counts = support_census(code, poset, "moebius"), distribution(code, poset, "enumerate")
    # d1 = 1 makes the closed form read its window off the census table
    assert _closed_form_counts(code, poset, 1) == list(counts)
    for off in (255, code.k + 1):
        poison_off_ideals(monkeypatch, "census_dims", off)
        fresh = load_code(code_path)
        assert support_census(fresh, poset, "moebius") == census
        assert _closed_form_counts(fresh, poset, 1) == list(counts)
        monkeypatch.undo()
    real = RankProfile.census_dims

    def poisoned(self, poset):
        # the report takes the census before it classifies; dim 0 at the full set leaves it
        # fewer words than its subsets, and grid point 3 is an ideal under both posets
        dims = bytearray(real(self, poset))
        dims[index] = value
        return bytes(dims)

    monkeypatch.setattr(RankProfile, "census_dims", poisoned)
    status, out, err = run_cli(capsys, "distribution", "--method", "moebius", "--code", code_path, "--poset", poset_path)
    assert status == 2 and out == ""
    assert err.startswith("self-check failed: Moebius census")
    assert "reproducer:\n" in err and format_code(load_code(code_path)) in err


def test_console_entry_point(pair_file):
    # the module also runs as a script; exercises sys.exit plumbing
    proc = subprocess.run(
        [sys.executable, "-m", "posetcode.cli", "classify", "--code", pair_file, "--poset", "antichain:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "NMDS d1=2 d2=4\n"


def test_selftest_runs_without_numpy():
    script = (
        "import sys\n"
        "import posetcode.cli\n"
        "status = posetcode.cli.main(['selftest', '--seed', '0', '--trials', '1', '--json'])\n"
        "assert status == 0, status\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_dataclasses_nor_hashlib(pair_file):
    # every CLI process pays for what the package imports; the result
    # records are NamedTuples, and the poset tag comes from CPython's
    # built-in SHA-256 where it is built, so no subcommand loads hashlib
    # and its OpenSSL
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import posetcode, posetcode.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'hashlib', '_hashlib') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "print(posetcode.Poset.antichain(4).digest())\n"
        "hierarchy = ['hierarchy', '--code', sys.argv[2], '--poset', 'antichain:4', '--json']\n"
        "for argv in (hierarchy, ['selftest', '--seed', '0', '--trials', '1', '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert posetcode.cli.main(argv) == 0, argv\n"
        "    if argv is hierarchy:\n"
        "        print(json.loads(out.getvalue())['poset'])\n"
        "loaded = [m for m in ('hashlib', '_hashlib') if m in sys.modules]\n"
        "def built(name):\n"
        "    try:\n"
        "        __import__(name)\n"
        "    except ImportError:\n"
        "        return False\n"
        "    return True\n"
        "assert not (loaded and (built('_sha2') or built('_sha256'))), loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", script, src, pair_file], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 2 * (hashlib.sha256(b"n 4\n").hexdigest()[:12] + "\n")
