import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ecsumprod.charsum as charsum_module
import ecsumprod.cli as cli_module
import ecsumprod.extremal as extremal_module
import ecsumprod.sumprod as sumprod_module
from ecsumprod.cli import build_parser, main, parse_member_set
from ecsumprod.residue import units_of
from ecsumprod.sweep import RECORD_FIELDS
from ecsumprod.verify import run_identity_suite

KNOWN = ["--p", "5", "--a4", "1", "--a6", "1", "--px", "0", "--py", "1"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_member_set(tmp_path):
    assert parse_member_set("1,2,4") == [1, 2, 4]
    assert parse_member_set("1, 2") == [1, 2]
    f = tmp_path / "set.txt"
    f.write_text("1\n2 4\n")
    assert parse_member_set("@" + str(f)) == [1, 2, 4]


def test_member_set_file_split_on_any_whitespace(tmp_path, capsys):
    tabs, crlf = tmp_path / "tabs.txt", tmp_path / "crlf.txt"
    tabs.write_text("1\t2\n")
    crlf.write_bytes(b"1,\r\n2\r\n")
    assert parse_member_set("@" + str(tabs)) == [1, 2]
    assert parse_member_set("@" + str(crlf)) == [1, 2]
    from_files = run(capsys, ["sumprod", *KNOWN, "--setA", "@" + str(tabs),
                              "--setB", "@" + str(crlf)])
    assert from_files[0] == 0
    assert from_files == run(capsys, ["sumprod", *KNOWN, "--setA", "1,2", "--setB", "1,2"])


def test_curve_find_csv(capsys):
    code, out, err = run(capsys, ["curve", "find", "--p", "13", "--count", "3", "--seed", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,a4,a6,N,t,ordinary,Px,Py,T"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "13"
        assert cells[5] == "True"  # ordinary by default


def test_curve_find_deterministic(capsys):
    a = run(capsys, ["curve", "find", "--p", "13", "--count", "2", "--seed", "9"])
    b = run(capsys, ["curve", "find", "--p", "13", "--count", "2", "--seed", "9"])
    assert a == b


def test_curve_find_golden(capsys):
    # pins which curve and which base point a seed picks
    code, out, err = run(capsys, ["curve", "find", "--p", "1009", "--count", "5", "--seed", "1"])
    assert code == 0
    rows = [dict(zip(out.split("\n")[0].split(","), line.split(",")))
            for line in out.strip().split("\n")[1:]]
    assert [tuple(int(r[k]) for k in ("a4", "a6", "Px", "Py", "T")) for r in rows] == [
        (346, 387, 384, 578, 1011),
        (236, 163, 967, 100, 494),
        (238, 748, 899, 623, 528),
        (40, 453, 869, 726, 1030),
        (107, 99, 163, 87, 980),
    ]


def test_curve_find_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, ["curve", "find", "--p", "101", "--count", "-2"])
    assert code == 2 and out == ""
    assert err == "error: --count must be >= 0, got -2\n"
    code, out, err = run(capsys, ["curve", "find", "--p", "101", "--count", "0"])
    assert code == 0 and out == "p,a4,a6,N,t,ordinary,Px,Py,T\n"


def test_readme_commands_parse():
    # the Command line block of the README must stay valid usage; parsed, not run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("ecsumprod ")]
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"curve", "verify", "sumprod", "charsum", "extremal", "sweep"}


def test_readme_layout_names_every_module():
    # the Layout block lists exactly the package's modules, __init__ aside
    root = Path(__file__).resolve().parent.parent
    block = (root / "README.md").read_text().split("## Layout", 1)[1].split("```", 2)[1]
    listed = [line.split()[0] for line in block.splitlines() if line.startswith("  ")
              and line.split()[0].endswith(".py")]
    modules = {f.name for f in (root / "src" / "ecsumprod").glob("*.py")} - {"__init__.py"}
    assert sorted(listed) == sorted(modules)


def test_readme_constants_match_the_code():
    # every `module.NAME` = b^e or `module.NAME` (b^e) that README quotes is the
    # package's value, and the block sizes and caps it quotes are all among them
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    quoted = re.findall(r"`(\w+)\.([A-Z_]+)` (?:= |\()(\d+)\^(\d+)", readme)
    named = {(module, name) for module, name, _, _ in quoted}
    assert named >= {("curve", "STRIDE"), ("orbit", "GRID_LANES"), ("sumprod", "BLOCK"),
                     ("curve", "ENUMERATION_CAP"), ("charsum", "SCAN_CAP"),
                     ("charsum", "GEMM_MACS")}
    for module, name, base, exp in quoted:
        value = getattr(importlib.import_module(f"ecsumprod.{module}"), name)
        assert value == int(base) ** int(exp), f"{module}.{name}"


def test_readme_verify_paragraph_names_every_check(known_table, known_summary):
    # README lists the suite's checks in the order run_identity_suite returns them
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    listed = readme.split("`verify` runs the identity suite", 1)[1].split("per check:", 1)[1]
    listed = re.findall(r"`(\w+)`", listed.split(".", 1)[0])
    checks = run_identity_suite(known_table, known_summary.n_points, seed=0)
    assert listed == [c.name for c in checks]


@pytest.mark.parametrize("argv", [["curve", "find", "--p", "1009"], ["verify", "--p", "101"]])
def test_seed_outside_the_u64_range_exits_two(capsys, argv):
    # SplitMix64 keys on the seed mod 2^64, so -1 and 2^64 would alias 2^64 - 1 and 0
    for seed in ("-1", str(1 << 64)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be an int in [0, 2^64), got '{seed}'" in err
    code, out, err = run(capsys, [*argv, "--seed", str((1 << 64) - 1)])
    assert code == 0 and out and err == ""


def test_verify_text(capsys):
    code, out, err = run(capsys, ["verify", *KNOWN])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("instance p=5 a4=1 a6=1 P=(0,1) T=9 N=9")
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_verify_json(capsys):
    code, out, err = run(capsys, ["verify", *KNOWN, "--format", "json"])
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 6
    assert all(c["ok"] for c in checks)
    assert checks[0]["name"] == "group_order"


def test_sumprod_known_row(capsys):
    code, out, err = run(
        capsys, ["sumprod", *KNOWN, "--setA", "1,2", "--setB", "1,2", "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert (row["sizeA"], row["sizeB"], row["sizeS"], row["sizeT"], row["sizeH"]) == (2, 2, 3, 3, 3)
    assert row["J"] == 10 and row["J_lower"] == 8
    assert row["thm_lhs"] == 9.0
    assert row["min_branch"] == "bilinear_side"


def test_charsum_known_row(capsys):
    code, out, err = run(capsys, ["charsum", *KNOWN, "--nu", "1", "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert row["lam"] == 1
    assert row["value"] == pytest.approx(19.41640786499874)
    assert row["rhs"] == pytest.approx(46.89685380417448)
    assert row["subgroup_max"] == pytest.approx(2.0, abs=1e-9)


def test_charsum_lambda_is_the_same_on_both_scan_routes(capsys, monkeypatch):
    # the sweep CSV has no lambda column, so the CLI row is where a changed
    # lambda would show; all 400 units of this instance take the FFT route
    argv = ["charsum", "--p", "1009", "--seed", "2", "--format", "json"]
    rows = []
    for direct in (True, False):
        monkeypatch.setattr(charsum_module, "_direct_route", lambda size_m, p, d=direct: d)
        code, out, err = run(capsys, argv)
        assert code == 0
        rows.append(json.loads(out)[0])
    assert [(row["sizeM"], row["lam"]) for row in rows] == [(400, 234)] * 2
    assert rows[0]["value"] == pytest.approx(rows[1]["value"], rel=1e-12)


def test_charsum_checks_each_set_once(capsys, monkeypatch):
    # the row's sizeK and sizeM come from the scan's report, not from
    # checking K and M again
    real = charsum_module.check_unit_subset
    calls = []

    def spy(members, t):
        calls.append(t)
        return real(members, t)

    for module in (charsum_module, cli_module):
        monkeypatch.setattr(module, "check_unit_subset", spy, raising=False)
    code, out, err = run(capsys, ["charsum", *KNOWN, "--setA", "1,2,2", "--format", "json"])
    assert code == 0 and len(calls) == 2
    row = json.loads(out)[0]
    assert (row["sizeK"], row["sizeM"]) == (2, 6)


def test_extremal_known_row(capsys):
    code, out, err = run(capsys, ["extremal", *KNOWN, "--H", "3", "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert (row["H"], row["sizeA"], row["sizeS"], row["sizeT"]) == (3, 2, 1, 1)
    assert row["ratio"] == pytest.approx(1 / math.sqrt(10))
    assert row["predicted_sizeA"] == pytest.approx(3.6)


def _let_every_unit_below_h(monkeypatch):
    # a broken window filter: sums of every unit's x outgrow 2H - 1
    monkeypatch.setattr(extremal_module, "units_with_x_below",
                        lambda table, window: units_of(table.order))


def test_extremal_invariant_violation_exits_one(capsys, monkeypatch):
    _let_every_unit_below_h(monkeypatch)
    code, out, err = run(capsys, ["extremal", *KNOWN, "--H", "1"])
    assert code == 1 and out == ""
    assert err == "error: sum set of 5 exceeds 2H - 1 at H = 1\n"


def test_sumprod_invariant_violation_exits_one(capsys, monkeypatch):
    # all units of the known instance give S = F_5, where J must be #B^2 #H
    real = sumprod_module.count_solutions
    monkeypatch.setattr(sumprod_module, "count_solutions",
                        lambda table, b_set, *rest: real(table, b_set, *rest) + len(b_set))
    code, out, err = run(capsys, ["sumprod", *KNOWN])
    assert code == 1 and out == "" and "with S = F_p is not #B^2 #H" in err


@pytest.mark.parametrize("command, columns", [
    ("sumprod", "sizeA,sizeB,sizeS,sizeT,sizeH,J,J_lower,Delta,thm_lhs,thm_rhs,ratio,"
                "min_branch,exponent"),
    ("charsum", "nu,sizeK,sizeM,lam,value,rhs,ratio,subgroup_max,subgroup_lam,"
                "subgroup_over_sqrt_p"),
    ("extremal", "H,sizeA,sizeS,sizeT,ratio,predicted_sizeA,sizeA_over_predicted"),
], ids=["sumprod", "charsum", "extremal"])
def test_report_column_order(capsys, command, columns):
    # the CSV header and the JSON keys follow the row, instance columns first
    header = "p,a4,a6,N,t,T,Px,Py," + columns
    code, out, _ = run(capsys, [command, *KNOWN])
    assert code == 0 and out.split("\n")[0] == header
    code, out, _ = run(capsys, [command, *KNOWN, "--format", "json"])
    assert code == 0 and ",".join(json.loads(out)[0]) == header


def test_sweep_writes_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": "theorem2", "p_list": [5, 7], "sets_per_curve": 2, "master_seed": 4,
    }))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, _, _ = run(capsys, ["sweep", "--config", str(cfg), "--out", str(out_a)])
    assert code == 0
    code, _, _ = run(capsys, ["sweep", "--config", str(cfg), "--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()  # reruns are byte-identical
    header = out_a.read_text().split("\n")[0]
    assert header == ",".join(RECORD_FIELDS)


def test_sweep_fixed_set_size_beyond_a_double_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"mode": "theorem2", "p_list": [101], "master_seed": 1,
                               "set_size_rule": {"fixed": 10**400}}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 0 and err == ""
    (row,) = json.loads(out)
    assert row["error"] == "" and row["sizeA"] == row["sizeB"] > 0


def test_sweep_identities_exit_zero(tmp_path, capsys):
    cfg = tmp_path / "ids.json"
    cfg.write_text(json.dumps({"mode": "identities", "p_list": [5, 7]}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert all(r["error"] == "" for r in rows)


def test_sweep_invariant_violation_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sumprod_module, "count_solutions", lambda *args: 0)
    cfg = tmp_path / "thm2.json"
    cfg.write_text(json.dumps({"mode": "theorem2", "p_list": [5, 7], "master_seed": 42}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 1
    assert [r["error"] for r in json.loads(out)] == ["InvariantViolation"] * 2


def test_sweep_theorem3_invariant_violation_exits_one(tmp_path, capsys, monkeypatch):
    _let_every_unit_below_h(monkeypatch)
    cfg = tmp_path / "thm3.json"
    cfg.write_text(json.dumps({"mode": "theorem3", "p_list": [101], "master_seed": 1}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 1
    assert [r["error"] for r in json.loads(out)] == ["InvariantViolation"]


def test_exit_two_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mode": "theorem2", "p_list": [5], "surprise": 1}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("key, value", [("enumeration_cap", 10**7 + 1), ("scan_cap", 10**5 + 1)])
def test_exit_two_on_cap_above_the_package_cap(tmp_path, capsys, key, value):
    # the caps are the package's; a config that names one is rejected
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"mode": "theorem1", "p_list": [5], key: value}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and f"unknown config keys: ['{key}']" in err and out == ""


def test_exit_two_on_p_beyond_the_primality_bound(tmp_path, capsys):
    # 4759123141 = 48781 * 97561 passes Miller-Rabin to the bases 2, 7, 61
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"mode": "theorem2", "p_list": [4759123141]}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and "exact only below 4759123141" in err and out == ""
    # so is a p_range that reaches it, before any number is tested
    cfg.write_text(json.dumps({"mode": "theorem2", "p_range": [5, 2 ** 40]}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2 and f"exact only below 4759123141, got {2 ** 40}" in err and out == ""
    # a prime between 2^31 and the bound is still a capped cell, not a config error
    cfg.write_text(json.dumps({"mode": "theorem2", "p_list": [2147483659]}))
    code, out, err = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
    assert code == 0 and [r["error"] for r in json.loads(out)] == ["CapExceeded"]


def test_exit_two_on_composite_p(capsys):
    code, out, err = run(capsys, ["verify", "--p", "9"])
    assert code == 2 and "error:" in err


def test_exit_two_on_off_curve_point(capsys):
    code, out, err = run(
        capsys, ["verify", "--p", "5", "--a4", "1", "--a6", "1", "--px", "1", "--py", "1"])
    assert code == 2


def test_exit_two_on_non_unit_set(capsys):
    code, out, err = run(capsys, ["sumprod", *KNOWN, "--setA", "3"])
    assert code == 2


@pytest.mark.parametrize("command", ["sumprod", "charsum"])
@pytest.mark.parametrize("flag", ["--setA", "--setB"])
@pytest.mark.parametrize("source", ["empty_text", "blank_text", "empty_file", "blank_file"])
def test_exit_two_on_explicit_empty_set(tmp_path, capsys, command, flag, source):
    # only an absent flag means all units
    value = {"empty_text": "", "blank_text": " , ", "empty_file": "@" + str(tmp_path / "e.txt"),
             "blank_file": "@" + str(tmp_path / "b.txt")}
    (tmp_path / "e.txt").write_text("\n")
    (tmp_path / "b.txt").write_bytes(b" \t\r\n")
    code, out, err = run(capsys, [command, *KNOWN, flag, value[source]])
    assert code == 2 and out == "" and flag in err


@pytest.mark.parametrize("command", ["sumprod", "charsum"])
@pytest.mark.parametrize("flag", ["--setA", "--setB"])
@pytest.mark.parametrize("source", ["text", "file"])
def test_exit_two_on_non_integer_member(tmp_path, capsys, command, flag, source):
    # the message names the flag and the member, for inline and @file lists
    (tmp_path / "m.txt").write_text("1\n1.5\n")
    value = {"text": "1,1.5", "file": "@" + str(tmp_path / "m.txt")}[source]
    code, out, err = run(capsys, [command, *KNOWN, flag, value])
    assert code == 2 and out == ""
    assert err == f"error: {flag} member '1.5' is not an integer\n"


def test_exit_two_on_half_specified_instance(capsys):
    code, out, err = run(capsys, ["verify", "--p", "5", "--a4", "1"])
    assert code == 2 and "both --a4 and --a6" in err


def test_exit_two_on_memory_error(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(cli_module, "sum_product_report", exhausted)
    code, out, err = run(capsys, ["sumprod", *KNOWN, "--setA", "1,2", "--setB", "1,2"])
    assert code == 2 and out == "" and "error: MemoryError" in err


def test_missing_required_args():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["curve"])


@pytest.mark.parametrize("mode", ["theorem1", "theorem2", "theorem3", "identities"])
def test_every_mode_sweeps_the_same_csv_under_optimize(tmp_path, mode):
    # invariants raise package errors rather than assert: -O strips asserts,
    # so a check written as one would vanish there and could change a row
    sets_per_curve = 2 if mode == "theorem2" else 1
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "mode": mode, "p_list": [101, 211], "sets_per_curve": sets_per_curve, "master_seed": 5,
    }))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{len(flags)}.csv"
        subprocess.run(
            [sys.executable, *flags, "-m", "ecsumprod.cli", "sweep",
             "--config", str(cfg), "--out", str(out)],
            env=env, check=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 2 * sets_per_curve
