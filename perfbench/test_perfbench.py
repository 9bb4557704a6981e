"""Tests of the benchmark's own checks, tracer and metric definitions.

    python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gaps  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ztwo.cli import SCAN_COLUMNS  # noqa: E402
from ztwo.qforms import class_group_sweep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

HEADER = ",".join(SCAN_COLUMNS)
ROWS = [
    "205,UNCLASSIFIED,,,,,,,,,",
    "209,A2,11,19,3,3,2x4,2x16,1,2,3",
    "247,B,13,19,4,>=4,8,8,1,3,3",
    "305,UNCLASSIFIED,,,,,,,,,",
    "407,A2,11,37,3,skipped,2x4,2x16,1,2,3",
]


def pin_scan(monkeypatch, rows):
    """Pin the synthetic scan so that only the check under test can fail."""
    lines = [HEADER] + rows
    fields = [line.split(",") for line in lines]
    i = checks.R_COROLLARY
    digest = checks.sha1_lines(",".join(f[:i] + f[i + 1:]) for f in fields)
    monkeypatch.setitem(checks.SCAN_PINS, "scan-low", digest)
    return "\n".join(lines) + "\n"


def test_scan_check_accepts_consistent_rows(monkeypatch):
    rows, info = checks.check_scan("scan-low", pin_scan(monkeypatch, ROWS))
    assert len(rows) == len(ROWS)
    assert info["sha1_without_r_corollary"] == checks.SCAN_PINS["scan-low"]


def test_tampered_r_corollary_fails(monkeypatch):
    tampered = ROWS[:1] + ["209,A2,11,19,3,4,2x4,2x16,1,2,3"] + ROWS[2:]
    text = pin_scan(monkeypatch, tampered)
    with pytest.raises(checks.CheckFailed, match="contradicts r_oracle"):
        checks.check_scan("scan-low", text)


def test_lower_bound_r_corollary_is_checked(monkeypatch):
    tampered = ROWS[:2] + ["247,B,13,19,4,>=5,8,8,1,3,3"] + ROWS[3:]
    with pytest.raises(checks.CheckFailed, match="contradicts r_oracle"):
        checks.check_scan("scan-low", pin_scan(monkeypatch, tampered))


def test_resolving_a_skip_keeps_the_pin(monkeypatch):
    pin_scan(monkeypatch, ROWS)
    resolved = ROWS[:4] + ["407,A2,11,37,3,3,2x4,2x16,1,2,3"]
    checks.check_scan("scan-low", "\n".join([HEADER] + resolved) + "\n")


def test_changed_shape_breaks_the_pin(monkeypatch):
    pin_scan(monkeypatch, ROWS)
    changed = ROWS[:1] + ["209,A2,11,19,3,3,2x4,2x8,1,2,3"] + ROWS[2:]
    with pytest.raises(checks.CheckFailed, match="pinned"):
        checks.check_scan("scan-low", "\n".join([HEADER] + changed) + "\n")


def test_failed_frac_counts_exact_rows_only():
    rows = [line.split(",") for line in ROWS + [
        "1001,A2,7,11,skipped,,,,,,",
        "1003,B,17,59,3,skipped,4,4,1,2,2",
    ]]
    # exact-family rows: 209, 247, 407, 1001, 1003; skipped: 407, 1001, 1003
    assert checks.exact_counts(rows) == (5, 3, 1)


def sweep_pinned(monkeypatch, limit=300):
    structures = list(class_group_sweep(limit))
    lines = [f"{s.D.D},{s.h},{'x'.join(map(str, s.divisors))}" for s in structures]
    monkeypatch.setattr(checks, "SWEEP_PIN", checks.sha1_lines(lines))
    return structures


def test_sweep_check_accepts_real_structures(monkeypatch):
    structures = sweep_pinned(monkeypatch)
    assert checks.check_sweep(structures)["sha1"] == checks.SWEEP_PIN


def test_tampered_chain_product_fails(monkeypatch):
    structures = sweep_pinned(monkeypatch)
    i = next(i for i, s in enumerate(structures) if s.divisors == (2, 2))
    s = structures[i]
    structures[i] = type(s)(D=s.D, h=s.h, divisors=(2, 4), h2=s.h2, two_rank=s.two_rank)
    with pytest.raises(checks.CheckFailed, match="product"):
        checks.check_sweep(structures)


def test_tampered_two_rank_fails(monkeypatch):
    structures = sweep_pinned(monkeypatch)
    i = next(i for i, s in enumerate(structures) if s.divisors == (4,))
    s = structures[i]
    structures[i] = type(s)(D=s.D, h=s.h, divisors=s.divisors, h2=s.h2, two_rank=2)
    with pytest.raises(checks.CheckFailed, match="genus"):
        checks.check_sweep(structures)


@pytest.mark.parametrize("n, pct", [(4055, 99.7), (809, 98.7), (9125, 99.8)])
def test_tail_percentile_leaves_ten_items(n, pct):
    got, idx = gaps.tail_rank(n)
    assert got == pct
    assert n - 1 - idx >= 10


def test_metric_names_and_counts():
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert all(name_re.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_reported_metrics_match_the_spec():
    passes = [{"items": 11, "wall_s": 1.0, "gaps": [0.001] * 11,
               "peak_rss_mb": 30.0, "exact_rows": 4, "skipped_rows": 1}]
    assert set(run.end_to_end(passes, [0.2])) == {m["name"] for m in SPEC["end_to_end"]}
    layers = tracing.layer_metrics([], items=11)
    layers["qforms.class_group_sweep.h_sum"] = 0
    traced = [dict(passes[0], layers=layers)]
    assert set(run.per_layer(passes, traced)) >= {m["name"] for m in SPEC["per_layer"]}


def test_each_item_counts_at_its_median_pass():
    slow_start = [0.3, 0.1, 0.1]
    slow_end = [0.1, 0.1, 0.5]
    even = [0.2, 0.2, 0.2]
    assert gaps.item_medians([slow_start, slow_end, even]) == [0.2, 0.1, 0.2]
    with pytest.raises(ValueError):
        gaps.item_medians([slow_start, slow_end[:2]])
    passes = [{"items": 11, "gaps": [0.002] * 10 + [0.05], "peak_rss_mb": 30.0,
               "exact_rows": 4, "skipped_rows": 0},
              {"items": 11, "gaps": [0.001] * 10 + [0.09], "peak_rss_mb": 30.0,
               "exact_rows": 4, "skipped_rows": 0}]
    values = run.end_to_end(passes, [0.2])
    assert values["item_ms_p50"] == pytest.approx(1.5)
    assert values["items_per_s"] == pytest.approx(11 / 0.085)


def test_gaps_scale_by_the_kernel_time_near_each_item():
    speed = probe.Probe()
    ref = probe.REFERENCE_S
    # the host runs at the reference speed for 1 s, then at half of it
    speed.samples = [(t / 100, ref) for t in range(100)]
    speed.samples += [(1 + t / 100, 2 * ref) for t in range(100)]
    scaled = speed.scaled_gaps(0.0, [0.2, 0.4, 1.6, 1.8, 5.0, 5.5])
    assert scaled[:2] == pytest.approx([0.2, 0.2])
    assert 0.6 < scaled[2] < 1.2  # the gap spans the change of speed
    assert scaled[3:5] == pytest.approx([0.1, 1.6])
    assert scaled[5] == pytest.approx(0.25)  # no run within the window: the nearest
    with pytest.raises(ValueError):
        probe.Probe().scaled_gaps(0.0, [1.0])


def test_probe_clock_leaves_out_the_kernel_runs():
    with probe.Probe() as speed:
        start = speed.clock()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        elapsed = speed.clock() - start
    assert len(speed.samples) >= 5
    assert elapsed == pytest.approx(0.2 - speed.spent, abs=0.01)


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("m.leaf", lambda: None)

    def body():
        leaf()
        leaf()
    outer = tracer.wrap("m.outer", body)
    outer()
    totals = tracing.layer_totals(tracer.spans)
    # outer spans ticks 0..5, each leaf call one tick
    assert totals["m.outer"] == dict(calls=1, s=5, self_s=3, failed=0, note=0, first_s=5)
    assert totals["m.leaf"]["calls"] == 2 and totals["m.leaf"]["self_s"] == 2


def test_generator_spans_cover_only_resumptions():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    gen = tracer.wrap_gen("m.gen", lambda: iter([1, 2]))
    assert list(gen()) == [1, 2]
    totals = tracing.layer_totals(tracer.spans)
    assert totals["m.gen"]["calls"] == 3  # two yields and the final StopIteration


def test_failed_calls_are_counted():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError
    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracing.layer_totals(tracer.spans)["m.boom"]["failed"] == 1


def test_install_replaces_from_imported_names():
    code = (
        "import tracing\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "from ztwo import classifier, cli, qforms\n"
        "assert classifier.solve_kaplan.__name__ == 'traced'\n"
        "assert qforms.factorize.__name__ == 'traced'\n"
        "assert cli.factor_squarefree.__name__ == 'traced'\n"
        "classifier.exponent_r_corollary(classifier.classify(209))\n"
        "names = {s[0]: s for s in t.spans}\n"
        "parent = t.spans[names['diophantine.solve_kaplan'][3]][0]\n"
        "assert parent == 'classifier.exponent_r_corollary', parent\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
