"""Smoke test of the experiment scripts: one seed and one grid cell each."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# SHA-256 of each CSV the runs below write. A change that moves one is a
# behaviour change; do not regenerate them to make a refactor pass.
DIGESTS = {
    "nfd_grid.csv": "bf2ed532380fadf59b7972b4772a7981e8d97ed48e6a2d7d945da4b033715892",
    "metrics_grid.csv": "63cba9ae0b2351bff912c7dccc89794a2dc656f23d36a86a7af9c9cbbcb4c08c",
    "guidance_metrics.csv": "54a9c4ac9cfc8b180a581a7369296b73d4a4e4eda739e9cd4bfc91b6d6a49fe4",
}


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, headers",
    [
        (
            "demand_speed_grid",
            ["--seeds", "1", "--demands", "1400", "--cruise-speeds", "30"],
            {
                "nfd_grid.csv": "passers,v_c,seed,t_s,K,Q,V",
                "metrics_grid.csv": "passers,v_c,mean_speed,avg_delay_s,avg_distance_km,"
                "mean_distance_to_park,completion_rate",
            },
        ),
        (
            "guidance_study",
            ["--seeds", "1", "--compliances", "0.5"],
            {"guidance_metrics.csv": "mode,compliance,mean_distance_to_park,completion_rate,mean_speed"},
        ),
    ],
)
def test_script_writes_csv_headers(tmp_path, name, argv, headers):
    assert _script(name).main(argv + ["--out", str(tmp_path)]) == 0
    for csv_name, header in headers.items():
        lines = (tmp_path / csv_name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
        digest = hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest()
        assert digest == DIGESTS[csv_name], csv_name
    assert (tmp_path / "config.json").exists()
