import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ztwo import classifier, cli, diophantine, qforms
from ztwo.classifier import RBound
from ztwo.errors import InvalidInput, PrecondViolated


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "209")
    assert code == 0
    assert out.strip() == "A2 p=11 q=19 (p/q)=+1"


def test_python_m_ztwo_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ztwo", "classify", "209"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "A2 p=11 q=19 (p/q)=+1\n"), proc.stderr


def test_classify_unclassified(capsys):
    code, out, _ = run(capsys, "classify", "21")
    assert code == 0
    assert out.startswith("UNCLASSIFIED")


def test_classify_invalid_exit_1(capsys):
    code, _, err = run(capsys, "classify", "45")
    assert code == 1
    assert "square" in err
    code, _, _ = run(capsys, "classify", "x")
    assert code == 1


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "209", "--json")
    rec = json.loads(out)
    assert rec["schema"] == "ztwo/1"
    assert rec["tag"] == "A2" and rec["primes"] == [11, 19]


def test_predict_json(capsys):
    code, out, _ = run(capsys, "predict", "55", "--n", "2", "--tower", "L", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["shape"] == [16]
    assert rec["r"] == 3 and rec["r_source"] == "oracle"


def test_predict_both_towers(capsys):
    code, out, _ = run(capsys, "predict", "89", "--n", "1", "--tower", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert "Z/2 x Z/4" in lines[0] and "tower=L" in lines[0]
    assert "Z/2 x Z/8" in lines[1] and "tower=K" in lines[1]


def test_predict_no_prediction_exit_2(capsys):
    code, _, err = run(capsys, "predict", "7", "--n", "1", "--tower", "L")
    assert code == 2
    assert "cyclic" in err  # C7 towers are cyclic, just of unknown order
    code, _, err = run(capsys, "predict", "7", "--n", "1", "--tower", "K")
    assert code == 2
    code, _, err = run(capsys, "predict", "21", "--n", "1", "--tower", "L")
    assert code == 2


@pytest.mark.parametrize("d, n", [
    ("1105", "0"),      # UNCLASSIFIED, 5 * 13 * 17
    ("1105", "10001"),
    ("23", "0"),        # C7
    ("23", "10001"),
    ("73", "0"),        # A1
])
def test_predict_refuses_a_bad_layer_before_the_family(capsys, d, n):
    # the layer is refused whatever family d has, as classifier.predict does
    code, out, err = run(capsys, "predict", d, "--n", n)
    assert (code, out) == (1, "")
    assert err.startswith("error: layer index must be ") and err.endswith(f", got {n}\n")


def test_scan_family_b(capsys):
    code, out, _ = run(capsys, "scan", "--min", "3", "--max", "100",
                       "--family", "B", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.SCAN_COLUMNS)
    ds = [int(line.split(",")[0]) for line in lines[1:]]
    assert ds == [15, 39, 55, 87, 95]
    row95 = dict(zip(cli.SCAN_COLUMNS, lines[-1].split(",")))
    assert row95["r_oracle"] == "4" and row95["shape_L_n1"] == "16"


def test_scan_single_row(capsys):
    code, out, _ = run(capsys, "scan", "--min", "3", "--max", "3")
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("3,UNCLASSIFIED")


def test_scan_includes_209(capsys):
    code, out, _ = run(capsys, "scan", "--min", "200", "--max", "250",
                       "--family", "A2", "--format", "json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert any(r["d"] == 209 for r in rows)
    row = next(r for r in rows if r["d"] == 209)
    assert row["shape_L_n1"] == "2x4" and row["r_oracle"] == 3


def test_scan_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "--min", "3", "--max", "120", "--format", "csv")
    _, out2, _ = run(capsys, "scan", "--min", "3", "--max", "120", "--format", "csv")
    assert out1 == out2


def test_classgroup(capsys):
    code, out, _ = run(capsys, "classgroup", "-55", "--json")
    rec = json.loads(out)
    assert rec["h"] == 4 and rec["divisors"] == [4]


def test_classgroup_non_integer_exit_1(capsys):
    code, out, err = run(capsys, "classgroup", "x")
    assert code == 1
    assert out == ""
    assert err.strip() == "error: 'x' is not an integer"


def test_symbol_commands(capsys):
    code, out, _ = run(capsys, "symbol", "--quartic", "11", "5")
    assert code == 0 and out.strip() == "(11/5)_4 = +1"
    code, out, _ = run(capsys, "symbol", "--jacobi", "13", "19")
    assert out.strip() == "(13/19) = -1"
    code, out, _ = run(capsys, "symbol", "--quartic2", "89", "--json")
    assert json.loads(out)["value"] == -1
    code, _, err = run(capsys, "symbol", "--jacobi", "6", "9")
    assert code == 1


def test_witness_commands(capsys):
    code, out, _ = run(capsys, "witness", "--pell", "89")
    rec = json.loads(out)
    assert (rec["u"], rec["v"]) == (17, 10)
    code, out, _ = run(capsys, "witness", "--kaplan", "11", "19")
    rec = json.loads(out)
    assert rec["k"] ** 2 * rec["X"] ** 2 + 2 * rec["l"] * rec["X"] * rec["Y"] \
        + 2 * rec["m"] * rec["Y"] ** 2 == 2 * 19
    code, out, _ = run(capsys, "witness", "--legendre", "5", "19")
    rec = json.loads(out)
    assert (rec["Xp"], rec["Yp"], rec["Z"]) == (1, 2, 9) and rec["criterion"] == 1


def test_witness_kaplan_is_the_descent_witness(capsys):
    # the witness from one descent: the least k of (332851, 3) is 1, with a
    # 68-digit Y
    code, out, _ = run(capsys, "witness", "--kaplan", "332851", "3")
    assert (code, out) == (0, '{"schema": "ztwo/1", "kind": "kaplan", "p": 332851, "q": 3, '
                              '"k": 195, "l": 749, "m": 3, "X": 0, "Y": 1}\n')


def test_witness_pell_zero_is_invalid_input(capsys):
    # 0 is falsy; it must still select --pell, not fall through to --legendre
    code, out, err = run(capsys, "witness", "--pell", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, err", [
    (("--pell", "13"), "error: need p = 1 (mod 8), got p = 13\n"),
])
def test_witness_pell_refusals(capsys, argv, err):
    # 13 is in the wrong class
    assert run(capsys, "witness", *argv) == (1, "", err)


def test_witness_legendre_past_the_old_z_cap():
    # the least Z of (1845373, 5419), d = 10,000,076,287, is 1,229,753,
    # past 10**6: the scan up to the descent solution's Z reaches it, run
    # end to end, and the enumeration below it finds nothing
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ztwo", "witness", "--legendre", "1845373", "5419"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"schema": "ztwo/1", "kind": "legendre", "p": 1845373, "q": 5419, '
           '"Xp": 899, "Yp": 1962, "Z": 1229753, "criterion": 1}\n', "")
    assert diophantine.enumerate_legendre_solutions(1845373, 5419, 1229752) == []


def test_witness_legendre_refuses_pq_from_2_40(capsys):
    # 5 * 219902325739 >= 2**40, the domain of d at every other entry
    # point: the pair meets the preconditions, and is refused before any scan
    code, out, err = run(capsys, "witness", "--legendre", "5", "219902325739")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "2**40" in err
    with pytest.raises(InvalidInput, match=r"2\*\*40"):
        diophantine.solve_legendre(5, 219902325739)


def test_witness_pell_17_refusal_names_the_symbol():
    # 17 has no u = 1 (mod 8) representation, as (2/17)_4 = -1 and
    # (2/p)_4 = (-2/u) for every u of p = u**2 - 2v**2; run end to end
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ztwo", "witness", "--pell", "17"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: no u = 1 (mod 8) representation of 17: (2/17)_4 = -1\n")


def test_witness_pell_has_no_v_cap(capsys):
    # the least v of this A1 prime near 2**40 is above 10**6; the gcd in
    # Z[sqrt 2] reads it with no search, as exponent_r_corollary does
    code, out, _ = run(capsys, "witness", "--pell", "1099511624441")
    assert (code, out) == (0, '{"schema": "ztwo/1", "kind": "pell", "p": 1099511624441, '
                              '"u": 2541953, "v": 1637378}\n')


@pytest.mark.parametrize("p", ["3", "11"])
def test_witness_kaplan_refuses_equal_primes(capsys, p):
    # by name, before the Jacobi symbol (p/p) = 0 is evaluated
    err = f"error: need distinct primes p, q, got p = q = {p}\n"
    assert run(capsys, "witness", "--kaplan", p, p) == (1, "", err)


def test_scan_bound_caps_no_a1_row(capsys):
    # scan takes no --bound, as no corollary route searches: every A1 row
    # of the window gets a corollary value, which the oracle satisfies
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--min", "1", "--max", "300", "--bound", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --bound 1" in capsys.readouterr().err
    rows = list(cli.scan_rows(998001, 10 ** 6, family="A1"))
    assert len(rows) == 9
    for row in rows:
        assert RBound.parse(row["r_corollary"]).satisfied_by(row["r_oracle"]), row["d"]


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max", "300", "--suite", "corollary")
    assert code == 0
    assert "0 violations" in out


def test_verify_williams_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "WILLIAMS_SUITE_Z_CAP", 3000)
    code, out, _ = run(capsys, "verify", "--max", "120", "--suite", "williams")
    assert code == 0


def test_verify_williams_suite_checks_the_descent_solution(capsys, monkeypatch):
    # the solution scan reads joins each pair's enumerated ones: one of the
    # other branch is a violation
    monkeypatch.setattr(cli, "WILLIAMS_SUITE_Z_CAP", 3000)
    argv = ("verify", "--max", "120", "--suite", "williams")
    witness = diophantine.williams_witness
    monkeypatch.setattr(diophantine, "williams_witness",
                        lambda p, q: witness(37, 11) if (p, q) == (5, 19) else witness(p, q))
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines()[0] == ("  VIOLATION d=95: criterion not solution-invariant over "
                                   "77 solutions and 1 descent solution")


def test_verify_corollary_output_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "corollary", "--max", "10000")
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "cdad751a90a99f8515580a9d399c567b358a935d"


def _three_views_agree(capsys, dmin, dmax):
    # the CSV cmd_scan writes, the scan_rows dicts and the JSON records
    # are one set of cells; returns the dicts
    rows = list(cli.scan_rows(dmin, dmax))
    code, out, _ = run(capsys, "scan", "--min", str(dmin), "--max", str(dmax))
    assert code == 0
    assert out.splitlines() == [",".join(cli.SCAN_COLUMNS)] + [
        ",".join(str(row[c]) for c in cli.SCAN_COLUMNS) for row in rows]
    code, out, _ = run(capsys, "scan", "--min", str(dmin), "--max", str(dmax), "--format", "json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"schema": cli.SCHEMA, **row} for row in rows]
    assert all(tuple(row) == cli.SCAN_COLUMNS for row in rows)
    return rows


def test_scan_csv_dict_view_and_json_agree_to_3000(capsys):
    rows = _three_views_agree(capsys, 3, 3000)
    assert {row["tag"] for row in rows} == set(classifier.FAMILIES)
    ints = {"d", "p", "q", "r_oracle", "lambda", "nu_L", "nu_K"}
    for row in rows:
        # ints where a cell holds a number, strings elsewhere ("" when blank)
        for c, v in row.items():
            assert type(v) is (int if c in ints and v != "" else str), (row, c)
        assert (row["q"] == "") == (row["tag"] in ("A1", "C7", "UNCLASSIFIED"))
        assert (row["nu_K"] == "") == (row["tag"] not in classifier.EXACT_FAMILIES)


def test_scan_rows_agree_with_cross_check():
    # both read classifier.confront: each exact-family row carries its
    # entry's r_oracle and r_corollary
    entries = {e.d: e for e in classifier.cross_check(3000).entries}
    rows = [row for row in cli.scan_rows(3, 3000) if row["tag"] in classifier.EXACT_FAMILIES]
    assert [row["d"] for row in rows] == list(entries) and len(rows) > 150
    for row in rows:
        e = entries[row["d"]]
        assert (row["tag"], e.status) == (e.tag, "ok"), row
        assert (row["r_oracle"], row["r_corollary"]) == (e.r_oracle, str(e.r_corollary)), row


def test_a_corollary_refusal_is_a_violation(capsys, monkeypatch):
    # no classified d reaches a corollary refusal, so a forged one for the
    # A1 prime 89 is a violation without an analysis, as an oracle
    # refusal is: scan writes the row with r_oracle skipped, and verify
    # exits 3
    pell = classifier.solve_pell_rep

    def refuse_89(p):
        if p == 89:
            raise PrecondViolated("no representation of 89")
        return pell(p)
    monkeypatch.setattr(classifier, "solve_pell_rep", refuse_89)
    report = classifier.cross_check(89)
    assert [(e.d, e.r_oracle, e.detail) for e in report.violations] == \
        [(89, -1, "no representation of 89")]
    code, out, _ = run(capsys, "verify", "--suite", "corollary", "--max", "89")
    assert code == 3
    assert "  VIOLATION d=89 [A1] no representation of 89\n" in out
    (row,) = _three_views_agree(capsys, 89, 89)
    assert ",".join(str(row[c]) for c in cli.SCAN_COLUMNS) == "89,A1,89,,skipped,,,,,,"


def test_json_serialization_roundtrips():
    import ztwo
    from ztwo import classifier

    pred = classifier.predict(209, 2, "K")
    rec = json.loads(json.dumps(cli.prediction_to_json(pred)))
    assert (rec["d"], rec["tower"], rec["n"], rec["r"]) == (209, "K", 2, 3)
    assert tuple(rec["shape"]) == pred.shape.divisors and rec["theorem"] == pred.theorem
    tag = classifier.classify(89)
    rec = json.loads(json.dumps(cli.tag_to_json(tag)))
    assert (rec["d"], rec["tag"], rec["primes"], rec["symbols"]) == (89, "A1", [89], [["(2/p)_4", 1]])
    s = ztwo.class_group(-712)
    rec = json.loads(json.dumps(cli.classgroup_to_json(s)))
    assert (rec["D"], rec["h"], tuple(rec["divisors"]), rec["h2"], rec["two_rank"]) == \
        (s.D.D, s.h, s.divisors, s.h2, s.two_rank)


def test_forged_two_sylow_basis_is_refused(capsys, monkeypatch):
    # Cl(-8*177) is Z/2 x Z/8; a certificate of Z/2 x Z/4, its largest
    # generator replaced by that generator's square, would give r = 3
    primes = (2, 3, 59)
    (g1, g2), exps = qforms.two_sylow(-1416, primes)
    assert exps == [1, 3]
    forged = [g1, qforms._compose(g2, g2)], [1, 2]
    build = qforms._halving_basis
    monkeypatch.setattr(qforms, "_halving_basis",
                        lambda D, ps: forged if D == -1416 else build(D, ps))
    code, out, err = run(capsys, "predict", "177", "--n", "1", "--tower", "K")
    assert (code, out) == (1, "")
    assert err.startswith("error: Cl(-1416) certificate: the product of generators")
    code, out, _ = run(capsys, "scan", "--min", "177", "--max", "177")
    assert (code, out.splitlines()[1]) == (0, "177,A2,3,59,skipped,,,,,,")
    _three_views_agree(capsys, 177, 177)
    monkeypatch.setattr(qforms, "_halving_basis", build)
    code, out, _ = run(capsys, "predict", "177", "--n", "1", "--tower", "K")
    assert code == 0 and "shape=Z/2 x Z/16 r=4 (oracle)" in out


def test_cache_forged_consistent_record_is_refused(tmp_path, capsys, monkeypatch):
    # Cl(-712) of order 2 is consistent with genus theory, but breaks r >= 3 for d = 89
    cache = tmp_path / "cg.jsonl"
    cache.write_text('{"schema":"ztwo/1","D":-712,"h":2,"divisors":[2]}\n')
    code, honest, _ = run(capsys, "predict", "89", "--tower", "L")
    assert code == 0 and honest
    # no file can carry the record in: --cache is unknown and ZTWO_CACHE unread
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cache", str(cache), "predict", "89", "--tower", "L"])
    assert exc.value.code == 1
    capsys.readouterr()
    monkeypatch.setenv("ZTWO_CACHE", str(cache))
    assert run(capsys, "predict", "89", "--tower", "L") == (0, honest, "")
    # the same record forged as a 2-Sylow basis fails its certificate
    build = qforms._halving_basis
    monkeypatch.setattr(qforms, "_halving_basis",
                        lambda D, ps: ([(2, 0, 89)], [1]) if D == -712 else build(D, ps))
    code, out, err = run(capsys, "predict", "89", "--tower", "L")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "skipping" not in err


def test_predict_layer_cap(capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli.classifier, "analyze", None)  # the cap is checked first
        code, out, err = run(capsys, "predict", "471", "--n", "100000")
    assert (code, out) == (1, "")
    assert err.strip() == "error: layer index must be <= 10000, got 100000"
    code, out, _ = run(capsys, "predict", "471", "--n", "10000", "--json")
    assert code == 0
    for rec in map(json.loads, out.splitlines()):
        assert rec["shape"] == [2 ** (10000 + rec["r"] - 1)]  # family B: Z/2^(n+r-1)


@pytest.mark.parametrize("argv", [
    ("--max", "-5", "--suite", "genus"),
    ("--max", "0"),
    ("--max", "0", "--suite", "corollary"),
])
def test_empty_verify_range_is_invalid_input(capsys, argv):
    # refused like scan's bad range, not reported as a pass over no d
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: need max >= 1, got {argv[1]}\n"


def test_scan_min_above_max_is_invalid_input(capsys):
    code, out, err = run(capsys, "scan", "--min", "10", "--max", "5")
    assert (code, out) == (1, "")
    assert err.strip() == "error: need min <= max <= 2**40 - 1"
    args = argparse.Namespace(min=10, max=5, family=None, format="csv")
    with pytest.raises(InvalidInput):
        cli.cmd_scan(args)


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("verify", "--max", "100"),
    ("verify", "--max", "100", "--suite", "corollary"),
    ("verify", "--max", "120", "--suite", "williams"),
    ("witness", "--kaplan", "11", "19"),
    ("witness", "--pell", "89"),
    ("witness", "--legendre", "5", "19"),
    ("verify", "--max", "10", "--suite", "corollary"),
    ("verify", "--max", "10", "--suite", "genus"),
    ("verify", "--max", "10", "--suite", "williams"),
    ("verify", "--max", "10", "--suite", "all"),
])
def test_non_positive_bound_is_invalid_input(capsys, argv, bound):
    # witness and verify take no --bound, as scan does not: no witness
    # route searches, and the williams suite's Z cap is fixed.  Any bound,
    # and a non-positive one too, is a usage error before anything runs
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--bound", bound])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert f"ztwo: error: unrecognized arguments: --bound {bound}\n" in err


@pytest.mark.parametrize("argv", [
    ("predict", "55", "--n", "abc"),
    ("scan", "--max"),
    ("scan", "--max", "10", "--family", "Z"),
    ("classify",),
    ("witness", "--pell", "abc"),
    ("verify", "--suite", "nope"),
])
def test_malformed_argv_is_invalid_input(capsys, argv):
    # exit 2 is kept for "no exact prediction"; argparse's own text stays
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "")
    assert f"ztwo {argv[0]}: error: " in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ztwo scan")


@pytest.mark.parametrize("dmin, dmax, fmt, sha1", [
    ("3", "3000", "csv", "6d4394b87916d77228a157db9368e0247c0db633"),
    ("3", "3000", "json", "e8fd9b6851c4ddc09c27ca73c84c82368899bf95"),
    # the top of the CLI range, where Kaplan witnesses with k > 1 are most
    # frequent: this pin covers the r_corollary column there
    ("998001", "1000000", "csv", "6e9ef191d6219f156c960460fa0a2deb3d4fe728"),
])
def test_scan_output_pinned(capsys, dmin, dmax, fmt, sha1):
    code, out, _ = run(capsys, "scan", "--min", dmin, "--max", dmax, "--format", fmt)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("dmin, rows, sha1", [
    (9999001, 813, "15422bf2560a5cae2326ed2c52f0cf5599e3976e"),
    (99999001, 809, "4ab581a8d52e7a80a3c43153e9c9af2e8f7f02ab"),
    (999999001, 805, "c86ab3cd06fa741e4069205107aa3c2654460caf"),
    (1099511620001, 807, "62f3b11e960002250115122f7f31c9b67eb3178f"),
])
def test_scan_rows_past_the_cli_cap_pinned(capsys, dmin, rows, sha1):
    # the CSV of the 2,000 d from dmin, past scan's former cap of 10**6;
    # the last window ends 5,775 below the cap 2**40 - 1
    code, out, _ = run(capsys, "scan", "--min", str(dmin), "--max", str(dmin + 1999))
    assert code == 0
    assert len(out.splitlines()) == rows + 1
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_scan_rows_below_2_40_skip_nothing():
    # the B rows read the descent solution, which needs no Z bound: the
    # 4,000 d from 1,099,511,000,001 have no skipped cell, and the oracle
    # satisfies every corollary value (a Z <= 10**6 scan skipped 15 B rows)
    rows = list(cli.scan_rows(1099511000001, 1099511004000))
    exact = [row for row in rows if row["r_oracle"] != ""]
    assert len(rows) == 1614 and len(exact) == 125
    assert sum(row["tag"] == "B" for row in exact) == 75
    assert not [row["d"] for row in rows if "skipped" in row.values()]
    for row in exact:
        assert RBound.parse(row["r_corollary"]).satisfied_by(row["r_oracle"]), row["d"]
