"""Golden SHA-256 digests of the micro plant's ``events.csv`` and
``series.csv`` for fixed networks, scenarios and seeds.

The digests pin the plant's behaviour byte for byte. A change that moves
them is a behaviour change and must say so; do not regenerate them to make
a refactor pass.
"""

import hashlib

import pytest

from parkdyn.cli import write_events_csv, write_series_csv
from parkdyn.microsim import GuidanceConfig, Simulation
from parkdyn.scenarios import desk_network, validation_scenario

GOLDEN = {
    # desk_network() + validation_scenario(); seeds 0 and 1 overflow the lot
    ("desk", 0): (
        "a61e1045c0c188dee09f22036aa3c744faddaa338b331174f625b988512dfe9d",
        "7f3680e9eaa196172a804dfc4ac9da72f78bdb25181dedde663896f61329bb74",
    ),
    ("desk", 1): (
        "597ae1627973a2ebe557b814fd670e1f7d04ff165c0fb59fcf1cac8d294fd470",
        "495387aea05e256dbbcc8b74c481924f2616c383539b9bc6ba5e402b0755656c",
    ),
    ("desk", 2): (
        "fa1f3b87ae49a318feecadf3acde4d5bb52c7c19ac16c202089f3798220cd214",
        "ec3b72eac81757e94e30c2147b2958442c836489b09ab3f092ba1f83bd9f4bb3",
    ),
    # the A9 guidance network, joint guidance at 25% compliance
    ("a9", 0): (
        "31724496d74d3d951dd10c4c74f644d8f1f4792b43dfd128d0ec6f959822d86b",
        "ac7e7ffce9872e86f5acd9be43d69d48667cf9cd17017164b9a2a7e2b3efcc98",
    ),
}


def _case(name):
    if name == "desk":
        return desk_network(), validation_scenario()
    net = desk_network(
        rows=8, cols=8, total_spots=300, lot_capacity=30, upper_share=0.3, supply_fraction=0.3
    )
    sc = validation_scenario(
        parker_count=430,
        passer_count=2000,
        captive_spots=110,
        guidance=GuidanceConfig(local_guidance=True, regional_guidance=True, compliance=0.25),
    )
    return net, sc


def digests(name, seed, out_dir):
    """(events.csv, series.csv) SHA-256 hex digests of one run."""
    net, sc = _case(name)
    res = Simulation(net, sc, seed).run()
    events, series = out_dir / "events.csv", out_dir / "series.csv"
    write_events_csv(events, res.events)
    write_series_csv(series, res)
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (events, series))


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, seed, tmp_path):
    assert digests(name, seed, tmp_path) == GOLDEN[(name, seed)]
