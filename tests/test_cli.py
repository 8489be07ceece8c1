import dataclasses
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import parkdyn
from parkdyn import cli, macromodel, mpc, scenarios
from parkdyn.calibration import CalibrationReport
from parkdyn.cli import FMT, _run_one_seed, load_run_dir, main
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import NfdModel
from parkdyn.microsim import SERIES_COLUMNS, Event, ScenarioConfig, Simulation
from parkdyn.network import DurationDistribution, load_network, save_network


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "net", "build", "--rows", "4", "--cols", "4", "--total-spots", "80",
                "--lot-capacity", "15", "--out", str(root / "net.json"),
            ]
        )
        == 0
    )
    sc = ScenarioConfig(
        parker_count=150,
        passer_count=600,
        captive_spots=25,
        alpha_off=-1.0,
        beta=0.3,
        duration=DurationDistribution("uniform", 0.0, 0.5),
        horizon=0.5,
    )
    (root / "scenario.json").write_text(json.dumps(sc.to_dict()))
    rc = main(
        [
            "micro", "run", "--net", str(root / "net.json"), "--config",
            str(root / "scenario.json"), "--seeds", "0,1,2,3,4", "--out", str(root / "runs"),
        ]
    )
    assert rc == 0
    rc = main(
        ["calibrate", "--runs", str(root / "runs"), "--out", str(root / "calibration.json")]
    )
    assert rc == 0
    return root


def test_net_build_and_check(workdir):
    net = load_network(workdir / "net.json")
    assert net.total_parking_capacity == 80
    assert main(["net", "check", "--net", str(workdir / "net.json")]) == 0


def test_net_build_writes_the_desk_network(tmp_path):
    """The README's quick-start network is the one the tests and the benchmark build."""
    out = tmp_path / "net.json"
    assert main(["net", "build", "--total-spots", "300", "--lot-capacity", "50",
                 "--out", str(out)]) == 0
    save_network(scenarios.desk_network(), tmp_path / "desk.json")
    assert out.read_bytes() == (tmp_path / "desk.json").read_bytes()


# SHA-256 of the `net build` file for fixed flags. Do not regenerate them to
# make a refactor pass: a moved digest is a different network.
@pytest.mark.parametrize(
    "flags, digest",
    [
        pytest.param(
            "--rows 4 --cols 5 --spots-per-link 3 --spot-spacing 0.01 --lot-capacity 20 "
            "--lot-entry 5-6",
            "f741117678661cb3a564ec35c0d9599e3c8ef7c0261b17e92c0785daf79474a2",
            id="per-link-spots",
        ),
        pytest.param(
            "--total-spots 200 --upper-share 0.3 --supply-fraction 0.5 --lot-capacity 40",
            "948b73b595b8b52467cb7efdf7dc15ad8f670ce7259daf1d8feb61c12de83fde",
            id="skewed-supply",
        ),
        pytest.param(
            "--rows 3 --cols 7 --link-length 0.2 --vf 40 --kj 120 --total-spots 90 "
            "--lot-capacity 15 --lot-circuit 0.5 --lot-speed 10",
            "48860da1ae91fdbe33705666093b524e27cf744b44ea049fc95dbdaff742d203",
            id="grid-and-lot",
        ),
    ],
)
def test_net_build_file_digest(tmp_path, flags, digest):
    out = tmp_path / "net.json"
    assert main(["net", "build", *flags.split(), "--out", str(out)]) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--total-spots 100 --upper-share 1.5", "--upper-share: must lie in [0, 1], got 1.5"),
        ("--total-spots 100 --upper-share -0.1", "--upper-share: must lie in [0, 1], got -0.1"),
        ("--total-spots 100 --supply-fraction 0", "--supply-fraction: must lie in (0, 1], got 0"),
        ("--upper-share 0.3", "--upper-share: applies only with --total-spots"),
        ("--supply-fraction 0.5", "--supply-fraction: applies only with --total-spots"),
    ],
)
def test_net_build_share_flags_name_the_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "net.json"
    assert main(["net", "build", *flags.split(), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_net_check_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [], "links": [{"id": "x"}]}')
    assert main(["net", "check", "--net", str(bad)]) == 1


def test_micro_outputs_exist(workdir):
    for seed in range(5):
        d = workdir / "runs" / f"seed_{seed}"
        for name in ("events.csv", "nfd.csv", "metrics.json", "series.csv"):
            assert (d / name).exists()
    meta = json.loads((workdir / "runs" / "run_meta.json").read_text())
    assert "written_at" in meta


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_micro_rerun_byte_identical(workdir, tmp_path, jobs):
    rc = main(
        [
            "micro", "run", "--net", str(workdir / "net.json"), "--config",
            str(workdir / "scenario.json"), "--seeds", "1,2", "--jobs", jobs,
            "--out", str(tmp_path / "again"),
        ]
    )
    assert rc == 0
    for seed in ("seed_1", "seed_2"):
        for name in ("events.csv", "nfd.csv", "series.csv", "metrics.json"):
            a = (workdir / "runs" / seed / name).read_bytes()
            b = (tmp_path / "again" / seed / name).read_bytes()
            assert a == b, f"{seed}/{name}"


@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"parker_count": 10, "surge": 1}, "'surge'"),
        ({"guidance": {"local_guidance": True, "nudge": 1}}, "'guidance.nudge'"),
        ({"duration": {"kind": "uniform", "hi": 0.5, "mode": 0.2}}, "'duration.mode'"),
        ({"duration": 5}, "'duration'"),
        ({"guidance": [1]}, "'guidance'"),
        ({"dt_sim": 0.7, "horizon": 0.05}, "horizon 180 s is not a whole, positive multiple "
                                           "of the dt_sim 0.7 s"),
        ({"parker_count": 2.5}, "field 'parker_count' must be an integer"),
        ({"cruise_speed": "30"}, "field 'cruise_speed' must be a finite number"),
        ({"guidance": {"local_guidance": "no"}}, "field 'guidance.local_guidance' must be true"),
    ],
)
def test_scenario_loader_names_file_and_field(workdir, tmp_path, capsys, scenario, field):
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(scenario))
    rc = main(
        ["macro", "run", "--net", str(workdir / "net.json"), "--config", str(bad),
         "--calibration", str(workdir / "calibration.json"), "--out", str(tmp_path / "m.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(bad) in err[0] and field in err[0]


def _json_with(alter):
    """An alteration of a JSON file that edits its document in place."""

    def edit(text):
        doc = json.loads(text)
        alter(doc)
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "name, alter, field",
    [
        ("net.json", lambda d: d["nodes"][0].update(allows_u_turn="false"),
         "field 'nodes[0].allows_u_turn' must be true or false"),
        ("net.json", lambda d: d["links"][3].update(lanes=1.9),
         "field 'links[3].lanes' must be an integer"),
        ("net.json", lambda d: d["links"][0].update(lane=2), "unknown field 'links[0].lane'"),
        ("net.json", lambda d: d["links"][0].update(parking_capacity=10**400),
         "field 'links[0].parking_capacity' must be an integer within the float range"),
        ("calibration.json", lambda d: d.update(l_m_on="0.4"),
         "field 'l_m_on' must be a finite number"),
        ("calibration.json", lambda d: d["nfd"].update(k=1.0), "unknown field 'nfd.k'"),
    ],
)
def test_network_and_calibration_loaders_name_file_and_field(
    workdir, tmp_path, capsys, name, alter, field
):
    files = {n: workdir / n for n in ("net.json", "calibration.json")}
    bad = files[name] = tmp_path / name
    bad.write_text(_json_with(alter)((workdir / name).read_text()))
    rc = main(
        ["macro", "run", "--net", str(files["net.json"]), "--config",
         str(workdir / "scenario.json"), "--calibration", str(files["calibration.json"]),
         "--out", str(tmp_path / "m.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(bad) in err[0] and field in err[0]


def test_net_check_rejects_second_lot(workdir, tmp_path, capsys):
    def second_lot(doc):
        doc["lots"].insert(0, dict(doc["lots"][0], id="z", capacity=7))

    bad = tmp_path / "net.json"
    bad.write_text(_json_with(second_lot)((workdir / "net.json").read_text()))
    assert main(["net", "check", "--net", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"INVALID: {bad}: 2 lots given, a network has at most one"]


@pytest.mark.parametrize("command", ["net check", "micro run"])
def test_integer_beyond_float_range_names_field(workdir, tmp_path, capsys, no_simulation, command):
    bad = tmp_path / "net.json"
    bad.write_text(_json_with(lambda d: d["links"][0].update(parking_capacity=10**400))(
        (workdir / "net.json").read_text()))
    argv = command.split() + ["--net", str(bad)]
    if command == "micro run":
        argv += ["--config", str(workdir / "scenario.json"), "--seeds", "0",
                 "--out", str(tmp_path / "runs")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    prefix = "INVALID:" if command == "net check" else "error:"
    assert err.splitlines() == [
        f"{prefix} {bad}: field 'links[0].parking_capacity' must be an integer within the float range"
    ]


def test_calibration_loader_names_file_and_field(workdir, tmp_path, capsys):
    bad = tmp_path / "calibration.json"
    bad.write_text("{}")
    rc = main(
        ["macro", "run", "--net", str(workdir / "net.json"), "--config",
         str(workdir / "scenario.json"), "--calibration", str(bad),
         "--out", str(tmp_path / "m.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(bad) in err[0] and "'nfd'" in err[0]


def _truncate_series(text):
    lines = text.splitlines()
    return "\n".join(lines[:5] + [",".join(lines[5].split(",")[:2])])


def _text_network_length(text):
    metrics = json.loads(text)
    metrics["summary"]["network_length"] = "x"
    return json.dumps(metrics)


def _bad_vehicle_id(text):
    lines = text.splitlines()
    lines[1] = "x" + lines[1][lines[1].index(","):]
    return "\n".join(lines) + "\n"


def _zero_network_length(text):
    metrics = json.loads(text)
    metrics["summary"]["network_length"] = 0
    return json.dumps(metrics)


def _set_active(value):
    """An alteration that sets series.csv's 'active' field on line 3."""

    def alter(text):
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index("active")] = value
        lines[2] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return alter


def _huge_field(text):
    lines = text.splitlines()
    lines[1] += "," + "9" * 131073
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, alter, field",
    [
        ("metrics.json", lambda text: "{}", "'summary'"),
        ("metrics.json", _text_network_length, "'summary.network_length'"),
        ("series.csv", _truncate_series, "'active'"),
        ("events.csv", _bad_vehicle_id, "'vehicle_id'"),
        ("metrics.json", _zero_network_length, "'summary.network_length'"),
        ("metrics.json", _json_with(lambda d: d["summary"].pop("on_street_capacity")),
         "missing field 'summary.on_street_capacity'"),
        ("metrics.json", _json_with(lambda d: d["summary"].update(on_street_capacity="20")),
         "field 'summary.on_street_capacity' must be a number"),
        # written with surrogateescape, "\udcff" is the non-UTF-8 byte 0xff
        ("series.csv", _set_active("\udcff"), "line 3: field 'active': bad value"),
        ("series.csv", _set_active("nan"), "line 3: field 'active' must be finite"),
        # the csv module does not say which field overflowed, only where
        ("series.csv", _huge_field, "line 2: field larger than field limit"),
    ],
)
def test_run_dir_loader_names_file_and_field(workdir, tmp_path, capsys, name, alter, field):
    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs" / "seed_0", runs / "seed_0")
    bad = runs / "seed_0" / name
    bad.write_text(alter(bad.read_text()), errors="surrogateescape")
    rc = main(["calibrate", "--runs", str(runs), "--out", str(tmp_path / "calibration.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(bad) in err[0] and field in err[0]


def _series_line(line, fault):
    """An alteration that puts ``fault`` on line ``line`` of series.csv: a
    bad 'active' value, a row cut short after 't_s' and 'dist_km', or a
    field the csv module rejects."""

    def alter(text):
        lines = text.splitlines()
        cells = lines[line - 1].split(",")
        if fault == "bad value":
            cells[lines[0].split(",").index("active")] = "x"
        elif fault == "short row":
            cells = cells[:2]
        else:
            cells.append("9" * 131073)
        lines[line - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return alter


_FAULT_MESSAGE = {
    "bad value": "field 'active': bad value 'x'",
    "short row": "field 'active' missing",
    "csv error": "field larger than field limit (131072)",
}


@pytest.mark.parametrize("second", sorted(_FAULT_MESSAGE))
@pytest.mark.parametrize("first", sorted(_FAULT_MESSAGE))
def test_run_dir_loader_names_first_fault(workdir, tmp_path, capsys, first, second):
    """With faults on lines 3 and 5, the error names the one on line 3."""
    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs" / "seed_0", runs / "seed_0")
    bad = runs / "seed_0" / "series.csv"
    bad.write_text(_series_line(5, second)(_series_line(3, first)(bad.read_text())))
    rc = main(["calibrate", "--runs", str(runs), "--out", str(tmp_path / "calibration.json")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad} line 3: {_FAULT_MESSAGE[first]}"]


@pytest.fixture(scope="module")
def desk_seed_0(tmp_path_factory):
    """Desk seed 0 simulated in memory, and its run directory written by
    ``micro run``'s writer."""
    net, sc = scenarios.desk_network(), scenarios.validation_scenario()
    out = tmp_path_factory.mktemp("desk")
    _run_one_seed(net, sc, 0, out, 60.0)
    return Simulation(net, sc, 0).run(), out / "seed_0"


def _as_written(x):
    """``x`` as the CSV writer stores it and the loader reads it back."""
    return float(FMT.format(x)) if isinstance(x, float) else x


def test_run_dir_round_trip(desk_seed_0):
    """The loaded run is the simulated one, with every float rounded as the
    writer rounds it (10 significant digits) and bit-equal after that."""
    res, seed_dir = desk_seed_0
    loaded = load_run_dir(seed_dir)
    assert loaded.events == [Event(*map(_as_written, e)) for e in res.events]
    for col in SERIES_COLUMNS:
        written = [_as_written(float(x)) for x in res.series[col]]
        assert loaded.series[col].tobytes() == np.array(written).tobytes(), col
    assert loaded.dt_sim == res.dt_sim
    assert loaded.summary == json.loads(json.dumps(res.summary))


def test_run_dir_loader_shares_repeated_values(desk_seed_0):
    """Equal texts load as one object: a family name or a link id is held
    once, however many events repeat it."""
    events = load_run_dir(desk_seed_0[1]).events
    families = [e.from_family for e in events], [e.to_family for e in events]
    for column in families:
        assert len({id(f) for f in column}) == len(set(column)) <= 7
    both = families[0] + families[1]
    assert len({id(f) for f in both}) == len(set(both))
    links = [e.link_id for e in events]
    assert len({id(x) for x in links}) == len(set(links))


def test_run_dir_loader_memory_per_event(desk_seed_0):
    seed_dir = desk_seed_0[1]
    load_run_dir(seed_dir)  # imports and one-time caches are not the run's memory
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_run_dir(seed_dir)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 208 B per event when this bound was set; 434 B with a new object per CSV cell
    assert held / len(loaded.events) <= 260


def test_validate_reads_no_event_log(workdir, tmp_path):
    def validate(runs, out):
        argv = ["validate", "--net", str(workdir / "net.json"), "--config",
                str(workdir / "scenario.json"), "--calibration",
                str(workdir / "calibration.json"), "--runs", str(runs), "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs", runs)
    for log in runs.glob("seed_*/events.csv"):
        log.unlink()
    assert validate(runs, tmp_path / "without.json") == validate(
        workdir / "runs", tmp_path / "with.json")


class _Log(list):
    """An event log that can be weakly referenced."""


@pytest.mark.parametrize("command", ["calibrate", "validate", "estimators fit"])
def test_run_set_is_read_one_replication_at_a_time(workdir, tmp_path, monkeypatch, command):
    """Each replication is released before the next one is read."""
    loader = "load_events_csv" if command == "estimators fit" else "load_run_dir"
    load, refs, reads = getattr(cli, loader), [], []

    def tracked(*args, **kwargs):
        assert all(r() is None for r in refs), f"replication {len(reads) - 1} is still held"
        reads.append(args[0])
        item = load(*args, **kwargs)
        if loader == "load_events_csv":
            item = _Log(item)
            refs[:] = [weakref.ref(item)]
        else:
            item = dataclasses.replace(item, events=_Log(item.events))
            refs[:] = [weakref.ref(x) for x in (item, item.events, item.series["t_s"].base)]
        return item

    monkeypatch.setattr(cli, loader, tracked)
    argv = [*command.split(), "--runs", str(workdir / "runs"), "--out", str(tmp_path / "out.json")]
    if command == "validate":
        argv += ["--net", str(workdir / "net.json"), "--config", str(workdir / "scenario.json"),
                 "--calibration", str(workdir / "calibration.json")]
    assert main(argv) == 0
    assert len(reads) == 5


def test_validate_names_the_replication_with_another_micro_step(workdir, tmp_path, capsys):
    runs = tmp_path / "runs"
    for seed in (0, 1):
        shutil.copytree(workdir / "runs" / f"seed_{seed}", runs / f"seed_{seed}")
    slow = _scenario_with(workdir, tmp_path, dt_sim=2.0)
    assert main(["micro", "run", "--net", str(workdir / "net.json"), "--config", str(slow),
                 "--seeds", "2", "--out", str(runs)]) == 0
    capsys.readouterr()
    out = tmp_path / "validation.json"
    assert main(["validate", "--net", str(workdir / "net.json"), "--config",
                 str(workdir / "scenario.json"), "--calibration", str(workdir / "calibration.json"),
                 "--runs", str(runs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {runs / 'seed_2'}: micro step 2 s differs from the first replication's 1 s "
        f"({runs / 'seed_0'})"
    ]
    assert not out.exists()


def test_readme_scenario_block_loads(tmp_path):
    """The scenario file README shows loads through the strict reader."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A scenario file is", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scenario.json"
    path.write_text(block)
    sc = ScenarioConfig.load(path)
    assert sc.parker_count == 400 and sc.guidance.compliance == 1.0


def test_theory_sweep_outputs(workdir):
    out = workdir / "theory"
    rc = main(
        ["theory", "sweep", "--vc", "10,30", "--k-step", "1.0", "--brute-step", "0.05",
         "--out", str(out)]
    )
    assert rc == 0
    header = (out / "envelopes.csv").read_text().splitlines()[0]
    assert header == "v_c,K,Vmax_formula,Vmin_formula,Vmax_brute,Vmin_brute"
    report = json.loads((out / "brute_check.json").read_text())
    assert all(v["max_branch_discontinuity"] <= 1e-9 for v in report.values())


def test_calibration_file_contents(workdir):
    report = json.loads((workdir / "calibration.json").read_text())
    # the three estimands of the calibration pipeline
    assert set(report["nfd"]) == {"v0", "n0", "w"}
    assert report["l_m_on"] > 0 and report["l_m_off"] > 0 and report["l_m_pass"] > 0
    assert report["distance_model"]["kind"] == "exp-distance"


def test_estimators_fit_command(workdir):
    out = workdir / "dist_fit.json"
    rc = main(
        ["estimators", "fit", "--runs", str(workdir / "runs"), "--kind", "exp-distance",
         "--out", str(out)]
    )
    assert rc == 0
    fit = json.loads(out.read_text())
    assert fit["params"]["a"] > 0


def test_macro_run_columns(workdir):
    out = workdir / "macro_run.csv"
    rc = main(
        ["macro", "run", "--net", str(workdir / "net.json"), "--config",
         str(workdir / "scenario.json"), "--calibration", str(workdir / "calibration.json"),
         "--out", str(out)]
    )
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["t", "n_m_on", "n_m_off", "n_m_pass", "n_c", "n_on", "n_off",
                      "v", "O_on", "o_c", "q_off_on", "q_out_on", "q_out_off"]


def test_validate_command(workdir):
    out = workdir / "validation.json"
    rc = main(
        ["validate", "--net", str(workdir / "net.json"), "--config",
         str(workdir / "scenario.json"), "--calibration", str(workdir / "calibration.json"),
         "--runs", str(workdir / "runs"), "--out", str(out)]
    )
    assert rc == 0
    metrics = json.loads(out.read_text())
    assert set(metrics) == {"n_on", "n_off", "n_active", "v"}


# SHA-256 of the closed-loop outputs on the literal calibration below, with
# both facilities priced (with on-street prices alone the loop applies 0
# throughout on this input). The outputs come from the macro kernel and the
# pricing solver, so a change that moves one is a behaviour change; do not
# regenerate them to make a refactor pass.
LOOP_DIGESTS = {
    "mpc_log.csv": "250e944ea8b8d6b8a616babbb19e64e1bcfea1fe6dd7f8cef25e3ddeb48cbcc6",
    "prediction_vs_plant.csv": "d0e4f46e7f1706a977d9323974df077c87341ef24bb96eeacac8e927c278bcc3",
    "comparison.csv": "90b5bf16cacb3d14df8254dce7e6bd563891807b78966d06f797151e74e928aa",
}


def _literal_calibration(path):
    """A calibration file of literal values (those of the macro golden
    ``micro_pull``), so that the output digests below do not move with the
    scipy version that would fit the fixture's runs."""
    CalibrationReport(
        nfd=NfdModel(64.6, 72.4, 49.2),
        l_m_on=0.43,
        l_m_off=0.49,
        l_m_pass=0.47,
        distance_model=DistanceModel("exp-distance", {"a": 6.6e-4, "b": 7.2}),
    ).save(path)
    return str(path)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_mpc_run_command(workdir, tmp_path):
    out = tmp_path / "mpc"
    rc = main(
        ["mpc", "run", "--net", str(workdir / "net.json"), "--config",
         str(workdir / "scenario.json"), "--calibration",
         _literal_calibration(tmp_path / "calibration.json"),
         "--seeds", "0", "--starts", "2", "--budget", "20", "--controlled", "on,off",
         "--out", str(out)]
    )
    assert rc == 0
    for name in ("mpc_log.csv", "prediction_vs_plant.csv"):
        assert _sha256(out / name) == LOOP_DIGESTS[name]


def test_compare_requires_calibration(workdir, tmp_path):
    rc = main(
        ["compare", "--modes", "no-price", "--net", str(workdir / "net.json"),
         "--config", str(workdir / "scenario.json"), "--calibration",
         str(tmp_path / "missing.json"), "--seeds", "0", "--out", str(tmp_path / "cmp")]
    )
    assert rc == 1


def test_compare_emits_rows(workdir, tmp_path):
    out = tmp_path / "cmp"
    rc = main(
        ["compare", "--modes", "no-price,mpc,full-dynamic,full-static", "--net",
         str(workdir / "net.json"), "--config", str(workdir / "scenario.json"),
         "--calibration", _literal_calibration(tmp_path / "calibration.json"),
         "--seeds", "0,1", "--starts", "2", "--budget", "20", "--controlled", "on,off",
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert len(lines) == 1 + 8  # header + 4 modes x 2 seeds
    assert lines[0].startswith("mode,seed,deadweight_veh_hr")
    assert _sha256(out / "comparison.csv") == LOOP_DIGESTS["comparison.csv"]


def test_unknown_compare_mode_rejected(tmp_path, capsys):
    # --modes is checked before any input file is read
    missing = str(tmp_path / "missing.json")
    rc = main(
        ["compare", "--modes", "surge", "--net", missing, "--config", missing,
         "--calibration", missing, "--seeds", "0", "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --modes") and "'surge'" in err[0]


@pytest.mark.parametrize("seeds", ["", "a", "0,1.5"])
def test_bad_seeds_name_the_flag(workdir, tmp_path, capsys, seeds):
    rc = main(
        ["micro", "run", "--net", str(workdir / "net.json"), "--config",
         str(workdir / "scenario.json"), "--seeds", seeds, "--out", str(tmp_path / "runs")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --seeds")


@pytest.mark.parametrize("seed", range(8))
def test_dead_end_node_gives_one_error_line(tmp_path, capsys, seed):
    # links a 0->1 (1 spot), b 1->0 and c 1->2 (1 spot): node 2 has no out-link.
    # Seeds 4 and 6 reach it in the search; the others find no path or succeed.
    def link(lid, a, b, spots):
        return {"id": lid, "from_node": a, "to_node": b, "length": 0.1,
                "free_flow_speed": 50.0, "jam_density": 100.0, "parking_capacity": spots}

    net = {"nodes": [{"id": n, "x": 100.0 * n, "y": 0.0} for n in range(3)],
           "links": [link("a", 0, 1, 1), link("b", 1, 0, 0), link("c", 1, 2, 1)]}
    sc = {"parker_count": 1, "horizon": 0.25, "captive_spots": 1,
          "duration": {"kind": "uniform", "lo": 0.5, "hi": 1.0}}
    (tmp_path / "net.json").write_text(json.dumps(net))
    (tmp_path / "scenario.json").write_text(json.dumps(sc))
    rc = main(["micro", "run", "--net", str(tmp_path / "net.json"), "--config",
               str(tmp_path / "scenario.json"), "--seeds", str(seed), "--out",
               str(tmp_path / "runs")])
    err = capsys.readouterr().err.splitlines()
    assert (rc, err) == (0, []) or (rc == 1 and len(err) == 1 and err[0].startswith("error:"))


def test_one_boundary_node_passers_exit_on_entry(tmp_path):
    # nodes 0-2, strongly connected, and node 2 the only boundary node:
    # every trip starts and ends there, so a passer is at its destination
    def link(lid, a, b, spots=0):
        return {"id": lid, "from_node": a, "to_node": b, "length": 0.1,
                "free_flow_speed": 50.0, "jam_density": 100.0, "parking_capacity": spots}

    net = {"nodes": [{"id": n, "x": 100.0 * n, "y": 0.0} for n in range(3)],
           "links": [link("a", 0, 1, 2), link("b", 0, 2), link("c", 1, 0), link("d", 1, 2),
                     link("e", 2, 0)]}
    (tmp_path / "net.json").write_text(json.dumps(net))
    (tmp_path / "scenario.json").write_text(
        json.dumps({"parker_count": 2, "passer_count": 3, "horizon": 0.25}))
    assert main(["micro", "run", "--net", str(tmp_path / "net.json"), "--config",
                 str(tmp_path / "scenario.json"), "--seeds", "0", "--out",
                 str(tmp_path / "runs")]) == 0

    sim = Simulation(load_network(tmp_path / "net.json"),
                     ScenarioConfig.load(tmp_path / "scenario.json"), 0)
    assert list(sim.net.boundary_nodes()) == [2]
    while sim.step_i < sim.n_steps:
        sim.step()
        assert sim.check_conservation()
    passers = {v.vid: v.trip.entry_time for v in sim.vehicles if v.purpose == "pass"}
    assert len(passers) == 3
    for vid, entry in passers.items():
        trail = [(e.from_family, e.to_family, e.t_s) for e in sim.events if e.vehicle_id == vid]
        t = math.ceil(entry)  # injected at the first step at or after its entry time
        assert trail == [("new", "iii", t), ("iii", "exited", t)]


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if anything runs the micro or the macro model."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the input")

    monkeypatch.setattr(Simulation, "step", refuse)
    # mpc imported simulate_macro by name, so both attributes need the patch
    monkeypatch.setattr(macromodel, "simulate_macro", refuse)
    monkeypatch.setattr(mpc, "simulate_macro", refuse)


def _priced_argv(workdir, tmp_path, command):
    return command.split() + [
        "--net", str(workdir / "net.json"), "--config", str(workdir / "scenario.json"),
        "--calibration", str(workdir / "calibration.json"), "--seeds", "0",
        "--out", str(tmp_path / "out"),
    ]


# The test scenario runs 1800 s: 500 s steps are whole micro steps but do not tile it.
@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param("validate --dt-macro 0.4", "macro step 0.4 s is not a whole", id="validate"),
        pytest.param("mpc run --dt-macro 0.4", "macro step 0.4 s is not a whole", id="mpc run"),
        pytest.param("compare --modes no-price,mpc --dt-macro 0.4",
                     "macro step 0.4 s is not a whole", id="compare --modes no-price,mpc"),
        pytest.param("macro run --dt-macro 500", "scenario horizon 1800 s is not a whole",
                     id="macro run --dt-macro 500"),
        pytest.param("validate --dt-macro 500", "scenario horizon 1800 s is not a whole",
                     id="validate --dt-macro 500"),
    ],
)
def test_macro_step_must_be_whole_micro_steps(
    workdir, tmp_path, capsys, no_simulation, command, message
):
    argv = command.split() + [
        "--net", str(workdir / "net.json"), "--config", str(workdir / "scenario.json"),
        "--calibration", str(workdir / "calibration.json"),
    ]
    if command.startswith("validate"):
        argv += ["--runs", str(workdir / "runs"), "--out", str(tmp_path / "validation.json")]
    elif command.startswith("macro run"):
        argv += ["--out", str(tmp_path / "macro.csv")]
    else:
        argv += ["--seeds", "0", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


@pytest.mark.parametrize("command", ["micro run", "calibrate"])
def test_nfd_window_must_be_whole_micro_steps(workdir, tmp_path, capsys, no_simulation, command):
    if command == "micro run":
        argv = ["micro", "run", "--net", str(workdir / "net.json"), "--config",
                str(workdir / "scenario.json"), "--seeds", "0", "--out", str(tmp_path / "runs")]
    else:
        argv = ["calibrate", "--runs", str(workdir / "runs"), "--out", str(tmp_path / "cal.json")]
    assert main(argv + ["--nfd-window", "1.5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "NFD window 1.5 s is not a whole" in err[0]


# The test scenario runs 0.5 hr: 0.3 and 0.2 hr intervals do not divide it
# (0.5 / 0.2 rounds to 2), 0 hr holds no macro step and 0 intervals predict nothing.
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--control-interval", "0.3"], "horizon 0.5 hr is not a whole"),
        (["--control-interval", "0.2"], "horizon 0.5 hr is not a whole"),
        (["--control-interval", "0"], "control interval 0 s is not a whole"),
        (["--intervals", "0"], "prediction intervals must be >= 1"),
    ],
)
@pytest.mark.parametrize("command", ["mpc run", "compare --modes no-price,mpc"])
def test_mpc_grid_rejected_before_simulating(
    workdir, tmp_path, capsys, no_simulation, command, flags, message
):
    assert main(_priced_argv(workdir, tmp_path, command) + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]


def test_compare_solves_each_full_horizon_mode_once(workdir, tmp_path, monkeypatch):
    calls = []
    solve = mpc.solve_full_horizon

    def counted(*args, **kwargs):
        calls.append(kwargs["mode"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(mpc, "solve_full_horizon", counted)
    argv = _priced_argv(workdir, tmp_path, "compare --modes full-dynamic,full-static")
    argv[argv.index("--seeds") + 1] = "0,1"
    assert main(argv + ["--starts", "2", "--budget", "20"]) == 0
    assert calls == ["dynamic", "static"]
    lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_cli_import_does_not_load_scipy():
    # scipy is imported inside the fits, so `compare` and `micro run` never load it
    path = [str(Path(parkdyn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, parkdyn.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _scenario_with(workdir, tmp_path, **fields):
    sc = json.loads((workdir / "scenario.json").read_text())
    sc.update(fields)
    path = tmp_path / "priced.json"
    path.write_text(json.dumps(sc))
    return path


@pytest.mark.parametrize("command", ["mpc run", "compare --modes mpc"])
def test_uncontrolled_price_outside_box_rejected_up_front(
    workdir, tmp_path, capsys, no_simulation, command
):
    # the solver keeps an uncontrolled facility at its scenario price
    argv = _priced_argv(workdir, tmp_path, command)
    argv[argv.index("--config") + 1] = str(_scenario_with(workdir, tmp_path, tau_off=20.0))
    assert main(argv + ["--controlled", "on"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "'tau_off' 20 is outside" in err[0]
    assert not (tmp_path / "out").exists()


def test_unpriced_compare_ignores_the_price_box(workdir, tmp_path):
    argv = _priced_argv(workdir, tmp_path, "compare --modes no-price")
    argv[argv.index("--config") + 1] = str(_scenario_with(workdir, tmp_path, tau_off=20.0))
    assert main(argv + ["--controlled", "on"]) == 0
    assert len((tmp_path / "out" / "comparison.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--k-step", "0"), ("--k-step", "-1"), ("--k-step", "nan"), ("--vc", "10,abc"),
     ("--brute-step", "0"), ("--vc", "0"), ("--vc", "60"), ("--vf", "nan"), ("--kj", "0")],
)
def test_bad_theory_sweep_flags_name_the_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "theory"
    assert main(["theory", "sweep", f"{flag}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {flag}:")
    assert not out.exists()


def test_validate_names_the_replication_with_another_horizon(workdir, tmp_path, capsys):
    runs = tmp_path / "runs"
    for seed in (0, 1):
        shutil.copytree(workdir / "runs" / f"seed_{seed}", runs / f"seed_{seed}")
    short = _scenario_with(workdir, tmp_path, horizon=0.25)
    assert main(["micro", "run", "--net", str(workdir / "net.json"), "--config", str(short),
                 "--seeds", "2", "--out", str(runs)]) == 0
    capsys.readouterr()
    out = tmp_path / "validation.json"
    assert main(["validate", "--net", str(workdir / "net.json"), "--config",
                 str(workdir / "scenario.json"), "--calibration", str(workdir / "calibration.json"),
                 "--runs", str(runs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {runs / 'seed_2'}: macro-grid length 90 steps differs from the first "
        f"replication's 180 steps ({runs / 'seed_0'})"
    ]
    assert not out.exists()


# The test network has 80 on-street spots.
@pytest.mark.parametrize(
    "command", ["micro run", "macro run", "validate", "compare --modes full-dynamic",
                "compare --modes full-static"],
)
def test_captive_spots_beyond_capacity_rejected_before_running(
    workdir, tmp_path, capsys, no_simulation, command
):
    crowded = _scenario_with(workdir, tmp_path, captive_spots=70, preoccupied_spots=11)
    argv = command.split() + ["--net", str(workdir / "net.json"), "--config", str(crowded),
                              "--out", str(tmp_path / "out")]
    if command != "micro run":
        argv += ["--calibration", str(workdir / "calibration.json")]
    if command == "validate":
        argv += ["--runs", str(workdir / "runs")]
    elif command != "macro run":
        argv += ["--seeds", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: captive + preoccupied spots exceed on-street capacity (81 > 80)"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model",
    [{"kind": "exp-time", "params": {"a": 1.0, "b": 2.0}},
     {"kind": "hyperbolic-time", "params": {"c": 1.5}}],
    ids=["exp-time", "hyperbolic-time"],
)
def test_time_to_park_calibration_rejected(workdir, tmp_path, capsys, no_simulation, model):
    bad = tmp_path / "calibration.json"
    bad.write_text(_json_with(lambda d: d.update(distance_model=model))(
        (workdir / "calibration.json").read_text()))
    assert main(["macro", "run", "--net", str(workdir / "net.json"), "--config",
                 str(workdir / "scenario.json"), "--calibration", str(bad),
                 "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: calibration file {bad}: field 'distance_model.kind' ")
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--tau-gap", "nan"), ("--tau-max", "inf"), ("--tau-max", "nan"), ("--tau-min", "-inf")],
)
@pytest.mark.parametrize("command", ["mpc run", "compare --modes no-price,mpc"])
def test_non_finite_price_box_rejected_before_simulating(
    workdir, tmp_path, capsys, no_simulation, command, flag, value
):
    assert main(_priced_argv(workdir, tmp_path, command) + [f"{flag}={value}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {flag}: must be finite, got {value}"]
    assert not (tmp_path / "out").exists()
