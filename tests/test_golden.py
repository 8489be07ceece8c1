"""Golden SHA-256 digests of the micro plant's ``events.csv``,
``series.csv``, ``metrics.json`` and ``nfd.csv`` for fixed networks,
scenarios and seeds, each run once.

The digests pin the plant's behaviour byte for byte. A change that moves
them is a behaviour change and must say so; do not regenerate them to make
a refactor pass.
"""

import dataclasses
import hashlib

import pytest

from parkdyn.cli import _run_one_seed
from parkdyn.microsim import GuidanceConfig
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
    # the desk grid at three times the desk demand rate for half an hour: it
    # jams links beyond jam density, caps single-lane links at a cruiser's
    # speed and overflows the lot
    ("dense", 0): (
        "c17ffd09321aa6855b6b96a9533f88f8148f8abf57b06f213fa78d30e078dc88",
        "cabd4163047d27336dfea987ea7ba67317fc856210fc8d5a86c4a9f9eb3d390d",
    ),
}

# metrics.json, which holds the per-vehicle distance and time aggregates
GOLDEN_METRICS = {
    ("desk", 0): "67d9fd989fa8624b4e70860ce09c19466f1db0c1bad3a5896b48d87fe15fc0b1",
    ("desk", 1): "8f64440424d5aa26fcbe6380bd6f3c9a009fc990ccf4fede6f7b289d70b3cb5b",
    ("desk", 2): "93ab1f9a7ee84205a6f069386bb5123841c92307674a003034ddccc77f6d76aa",
    ("a9", 0): "07f25f3910e3bbd0375ad19931212d91727e426560ef1c7d5c73d70ee91b366f",
    ("dense", 0): "8a928fe41f6a347720900e9e45a402ed88607a54ca49381b3a7c130dd79b8d95",
}

# nfd.csv, the run's windowed network fundamental diagram
GOLDEN_NFD = {
    ("desk", 0): "703d39445de44fd4060d19ecff23fd688fd55a8814512010f56678513479f36f",
    ("desk", 1): "714cc59e2e8777b34ac231b8ad0613e390f4cab8ae207e8a135338fca28caa8c",
    ("desk", 2): "fecdeb623c55388c819b5b027689a6729ad9c43e422cc1f381a6d0ad304c9890",
    ("a9", 0): "0a119f8e674075d822a08b27dc897c0dd2005a5926a6989ba681067081199fc2",
    ("dense", 0): "93717b88bffd56f522479c137daccc543f374cb1b57d88aef94f4b4cb94f9702",
}


def _case(name):
    if name == "desk":
        return desk_network(), validation_scenario()
    if name == "dense":
        sc = validation_scenario(parker_count=600, passer_count=4200)
        return desk_network(), dataclasses.replace(sc, horizon=0.5)
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
    """(events.csv, series.csv, metrics.json, nfd.csv) SHA-256 hex digests of
    one run, written as ``parkdyn micro run`` writes them."""
    net, sc = _case(name)
    _run_one_seed(net, sc, seed, out_dir, 60.0)
    seed_dir = out_dir / f"seed_{seed}"
    return tuple(
        hashlib.sha256((seed_dir / f).read_bytes()).hexdigest()
        for f in ("events.csv", "series.csv", "metrics.json", "nfd.csv")
    )


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, seed, tmp_path):
    key = (name, seed)
    assert digests(name, seed, tmp_path) == (*GOLDEN[key], GOLDEN_METRICS[key], GOLDEN_NFD[key])
