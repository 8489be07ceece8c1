"""SHA-256 digests of the CSV files that no other test pins:
``theory sweep``'s ``envelopes.csv`` and the ``macro run`` CSV.
(``tests/test_golden.py`` pins a run directory's ``events.csv``,
``series.csv``, ``metrics.json`` and ``nfd.csv``, ``tests/test_cli.py`` the
closed-loop CSVs and ``tests/test_scripts.py`` the scripts' CSVs.)

The digests pin the writer's bytes as well as the numbers. A change that
moves one is a behaviour change and must say so; do not regenerate them to
make a refactor pass.
"""

import hashlib
import json

from parkdyn.calibration import CalibrationReport
from parkdyn.cli import main
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import NfdModel
from parkdyn.network import save_network
from parkdyn.scenarios import desk_network, validation_scenario

ENVELOPES_DIGEST = "b0402e569f49fab2ff4ba85aacd8cd5583b5ecfb23089b702e40ce207d64f1d4"
MACRO_RUN_DIGEST = "c4f48f59899620c94e2fe8c721d5987f4a00f0d4effbd51ae3781457fa16e96c"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
