"""Tests of the benchmark's own logic: span arithmetic, reporting and the
output checks. Run with ``python3 -m pytest bench/tests``."""

import csv
import dataclasses
import json
import math
import shutil

import pytest

import checks
import tracing
from run import PROBLEM_KINDS, cross_check, median_with_count


def span(sid, parent, start, end, name="f", layer="cli", counts=None):
    return {"id": sid, "parent": parent, "name": name, "layer": layer, "op": "0",
            "start": start, "end": end, "counts": counts or {}}


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_children_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, 0.0, 4.0), span(1, 0, 3.0, 6.0), span(2, 0, 3.5, 5.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_add_up_to_the_root_spans():
    spans = [
        span(0, None, 0.0, 10.0, "cmd_compare", "cli"),
        span(1, 0, 1.0, 6.0, "solve_open_loop", "mpc", {"evaluations": 4}),
        span(2, 1, 2.0, 3.0, "simulate_macro", "macromodel", {"steps": 180}),
        span(3, 1, 3.0, 4.0, "simulate_macro", "macromodel", {"steps": 180}),
        span(4, 0, 6.0, 9.0, "Simulation.run_until", "microsim", {"veh_steps": 1000}),
    ]
    m = tracing.op_metrics([(spans, [{"injected": 10, "exited": 4}])])
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(m["trace.spanned_s"]) == pytest.approx(10.0)
    assert m["mpc.self_s"] == pytest.approx(3.0)
    assert m["macromodel.steps"] == 360 and m["macromodel.calls"] == 2
    assert m["macromodel.us_per_step"] == pytest.approx(2.0 / 360 * 1e6)
    assert m["mpc.cache_hit_frac"] == pytest.approx(0.5)
    assert m["microsim.us_per_veh_step"] == pytest.approx(3000.0)
    assert m["microsim.exited_frac"] == pytest.approx(0.4)


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(op="7", clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x * 2, "inner", "macromodel", post=lambda a, r, _: {"value": r})
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "outer", "mpc")
    assert outer(3) == 12
    root, a, b = tracer.spans
    assert root["parent"] is None and a["parent"] == b["parent"] == root["id"]
    assert a["counts"] == {"value": 6} and a["op"] == "7"
    assert tracing.self_times(tracer.spans)[root["id"]] == pytest.approx(3.0)


# -------------------------------------------------------------- reporting


def test_median_and_sample_count():
    assert median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_with_count(x for x in (4.0, 1.0)) == (2.5, 2)
    assert median_with_count([]) == (0.0, 0)


def fake_op(index, digests, counts, traced=False):
    return {"index": index, "traced": traced, "digests": digests, "counts": counts,
            "problems": {kind: [] for kind in PROBLEM_KINDS}}


def test_cross_check_flags_ops_that_disagree_or_leave_the_reference():
    ops = [fake_op(0, {"a.csv": "1"}, {"microsim.veh_steps": 5}),
           fake_op(1, {"a.csv": "2"}, {"microsim.veh_steps": 6})]
    cross_check(ops, None)
    assert ops[0]["problems"] == {kind: [] for kind in PROBLEM_KINDS}
    assert ops[1]["problems"]["digest_mismatch"] == ["vs op 0: a.csv: sha256 2 != 1"]
    assert ops[1]["problems"]["count_mismatch"] == ["vs op 0: microsim.veh_steps = 6, was 5"]

    ops = [fake_op(0, {"a.csv": "1"}, {"microsim.veh_steps": 5})]
    cross_check(ops, {"digests": {"a.csv": "1"}, "counts": {"microsim.veh_steps": 4}})
    assert ops[0]["problems"]["count_mismatch"] == ["vs reference: microsim.veh_steps = 5, stored 4"]
    assert ops[0]["problems"]["digest_mismatch"] == []


# ---------------------------------------------------------- output checks


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small real ``micro run`` output, written through the CLI."""
    from parkdyn import cli, network, scenarios

    tmp = tmp_path_factory.mktemp("micro")
    network.save_network(scenarios.desk_network(3, 3, total_spots=20, lot_capacity=5), tmp / "net.json")
    sc = dataclasses.replace(
        scenarios.validation_scenario(parker_count=30, passer_count=60, captive_spots=5), horizon=0.1
    )
    (tmp / "sc.json").write_text(json.dumps(sc.to_dict()))
    rc = cli.main(["micro", "run", "--net", str(tmp / "net.json"), "--config", str(tmp / "sc.json"),
                   "--seeds", "0", "--out", str(tmp / "out" / "runs")])
    assert rc == 0
    return tmp / "out"


def test_digest_check_flags_a_one_byte_change(run_dir, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(run_dir, copy)
    expected = checks.output_digests(run_dir)
    assert "runs/run_meta.json" not in expected
    assert checks.digest_problems(checks.output_digests(copy), expected) == []

    events = copy / "runs" / "seed_0" / "events.csv"
    data = bytearray(events.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    events.write_bytes(bytes(data))
    problems = checks.digest_problems(checks.output_digests(copy), expected)
    assert len(problems) == 1 and problems[0].startswith("runs/seed_0/events.csv: sha256")


def test_conservation_check_flags_a_corrupted_last_row(run_dir, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(run_dir, copy)
    assert checks.conservation_problems(copy / "runs") == []

    series = copy / "runs" / "seed_0" / "series.csv"
    with open(series, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("active")
    rows[-1][col] = str(int(float(rows[-1][col])) + 1)
    with open(series, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = checks.conservation_problems(copy / "runs")
    assert len(problems) == 1 and problems[0].startswith("seed_0: injected")


def test_veh_steps_from_series(run_dir):
    with open(run_dir / "runs" / "seed_0" / "series.csv", newline="") as fh:
        expected = sum(int(float(r["active"])) for r in csv.DictReader(fh))
    assert checks.veh_steps_from_outputs(run_dir) == expected > 0


def test_comparison_check_wants_four_finite_rows_per_seed(tmp_path):
    path = tmp_path / "comparison.csv"
    header = ["mode", "seed", "deadweight_veh_hr", "on_street_cruising_veh_hr",
              "ineffective_cruising_veh_hr", "total_travel_time_veh_hr"]
    rows = [[mode, 0, 0.5, 1.0, 1.5, 40.0] for mode in ("no-price", "mpc", "full-dynamic", "full-static")]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    assert checks.comparison_problems(path, [0]) == []
    assert len(checks.comparison_problems(path, [0, 1])) == 1

    rows[1][3] = math.nan
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows[:3])
    problems = checks.comparison_problems(path, [0])
    assert any("3 rows" in p for p in problems) and any("non-finite" in p for p in problems)
