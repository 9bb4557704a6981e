import json

import pytest

from ztwo import cli, qforms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "209")
    assert code == 0
    assert out.strip() == "A2 p=11 q=19 (p/q)=+1"


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


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max", "300", "--suite", "corollary")
    assert code == 0
    assert "0 violations" in out


def test_verify_williams_suite(capsys):
    code, out, _ = run(capsys, "verify", "--max", "120", "--suite", "williams",
                       "--bound", "3000")
    assert code == 0


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cg.jsonl"
    qforms.CLASS_GROUP_MEMO.pop(-71, None)
    code, out1, _ = run(capsys, "--cache", str(cache), "classgroup", "-71")
    assert code == 0
    lines = cache.read_text().strip().splitlines()
    recs = {json.loads(line)["D"]: json.loads(line) for line in lines}
    assert -71 in recs and recs[-71]["h"] == 7
    # second run must hit the cache and produce identical output
    qforms.CLASS_GROUP_MEMO.pop(-71, None)
    size_before = len(lines)
    code, out2, _ = run(capsys, "--cache", str(cache), "classgroup", "-71")
    assert out1 == out2
    assert len(cache.read_text().strip().splitlines()) == size_before


def test_json_serialization_roundtrips():
    import ztwo
    from ztwo import classifier

    pred = classifier.predict(209, 2, "K")
    assert cli.prediction_from_json(json.loads(json.dumps(cli.prediction_to_json(pred)))) == pred
    tag = classifier.classify(89)
    assert cli.tag_from_json(json.loads(json.dumps(cli.tag_to_json(tag)))) == tag
    s = ztwo.class_group(-712)
    assert cli.classgroup_from_json(json.loads(json.dumps(cli.classgroup_to_json(s)))) == s


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    cache = tmp_path / "cg.jsonl"
    cache.write_text('not json at all\n{"schema":"ztwo/1","D":-23,"h":3,"divisors":[3],"computed_at":"x"}\n')
    qforms.CLASS_GROUP_MEMO.pop(-23, None)
    code, out, err = run(capsys, "--cache", str(cache), "classgroup", "-23")
    assert code == 0
    assert "skipping corrupt cache line 1" in err
    assert json.loads(cache.read_text().splitlines()[1])["h"] == 3
