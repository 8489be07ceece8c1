"""SHA-256 digests of the CSV files that no other test pins: the run
directory's ``nfd.csv``, ``theory sweep``'s ``envelopes.csv`` and the
``macro run`` CSV. (``tests/test_golden.py`` pins ``events.csv``,
``series.csv`` and ``metrics.json``, ``tests/test_cli.py`` the closed-loop
CSVs and ``tests/test_scripts.py`` the scripts' CSVs.)

The digests pin the writer's bytes as well as the numbers. A change that
moves one is a behaviour change and must say so; do not regenerate them to
make a refactor pass.
"""

import dataclasses
import hashlib
import json

import pytest

from parkdyn.calibration import CalibrationReport
from parkdyn.cli import _run_one_seed, main
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import NfdModel
from parkdyn.network import save_network
from parkdyn.scenarios import desk_network, validation_scenario

NFD_DIGESTS = {
    "desk": "703d39445de44fd4060d19ecff23fd688fd55a8814512010f56678513479f36f",
    # three times the desk demand rate for half an hour: links jam
    "dense": "93717b88bffd56f522479c137daccc543f374cb1b57d88aef94f4b4cb94f9702",
}
ENVELOPES_DIGEST = "b0402e569f49fab2ff4ba85aacd8cd5583b5ecfb23089b702e40ce207d64f1d4"
MACRO_RUN_DIGEST = "c4f48f59899620c94e2fe8c721d5987f4a00f0d4effbd51ae3781457fa16e96c"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _scenario(name):
    if name == "desk":
        return validation_scenario()
    sc = validation_scenario(parker_count=600, passer_count=4200)
    return dataclasses.replace(sc, horizon=0.5)


@pytest.mark.parametrize("name", sorted(NFD_DIGESTS))
def test_run_dir_nfd_csv_digest(tmp_path, name):
    _run_one_seed(desk_network(), _scenario(name), 0, tmp_path, 60.0)
    assert _sha256(tmp_path / "seed_0" / "nfd.csv") == NFD_DIGESTS[name]


def test_theory_sweep_envelopes_digest(tmp_path):
    assert main(["theory", "sweep", "--vc", "10,30", "--k-step", "1.0", "--brute-step", "0.05",
                 "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "envelopes.csv") == ENVELOPES_DIGEST


def test_macro_run_csv_digest(tmp_path):
    save_network(desk_network(), tmp_path / "net.json")
    (tmp_path / "scenario.json").write_text(json.dumps(validation_scenario().to_dict()))
    # literal values, so that the digest does not move with a fit
    CalibrationReport(
        nfd=NfdModel(64.6, 72.4, 49.2),
        l_m_on=0.43,
        l_m_off=0.49,
        l_m_pass=0.47,
        distance_model=DistanceModel("exp-distance", {"a": 6.6e-4, "b": 7.2}),
    ).save(tmp_path / "calibration.json")
    out = tmp_path / "macro.csv"
    assert main(["macro", "run", "--net", str(tmp_path / "net.json"), "--config",
                 str(tmp_path / "scenario.json"), "--calibration",
                 str(tmp_path / "calibration.json"), "--out", str(out)]) == 0
    assert _sha256(out) == MACRO_RUN_DIGEST
