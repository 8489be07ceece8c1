import math
import re
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, strategies as st

from parkdyn import bintheory, calibration, estimators, macromodel, microsim, mpc, network
from parkdyn.bintheory import BinParams
from parkdyn.estimators import DistanceModel
from parkdyn.macromodel import MacroParams, NfdModel
from parkdyn.microsim import GuidanceConfig, RunSummary, ScenarioConfig
from parkdyn.mpc import MpcConfig
from parkdyn.network import (
    DurationDistribution,
    Link,
    Network,
    Node,
    OffStreetLot,
    greenshields_speed,
    load_network,
    save_network,
)
from parkdyn.scenarios import GRID_DOMAINS, desk_network


def test_grid_2x2_counts():
    net = desk_network(2, 2)
    assert len(net.nodes) == 4
    assert len(net.links) == 8
    assert math.isclose(net.total_length, 0.8)


def test_grid_4x4_counts():
    # 2 * (2 * rows * (cols-1)) directed links for a square grid
    net = desk_network(4, 4)
    assert len(net.nodes) == 16
    assert len(net.links) == 48


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (0, 5)])
def test_grid_rejects_degenerate_dimensions(rows, cols):
    with pytest.raises(ValueError):
        desk_network(rows, cols)


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (6, 6)])
def test_grid_strongly_connected(rows, cols):
    assert desk_network(rows, cols).is_strongly_connected()


def test_grid_interior_degree_four():
    net = desk_network(4, 4)
    interior = 1 * 4 + 1  # node (1,1) has id 5
    assert len(net.out_links[5]) == 4


def test_path_links_shortest_and_found_once():
    net = desk_network(3, 3)
    path = net.path_links(0, 8)
    assert isinstance(path, tuple) and len(path) == 4  # corner to corner
    assert net.links[path[0]].from_node == 0 and net.links[path[-1]].to_node == 8
    assert all(net.links[a].to_node == net.links[b].from_node for a, b in zip(path, path[1:]))
    assert net.path_links(0, 8) is path
    assert net.path_links(4, 4) == ()


def test_path_links_without_a_path_raises_every_time():
    net = Network([Node(0), Node(1)], [Link("0-1", 0, 1, 0.1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="no path from 1 to 0"):
            net.path_links(1, 0)


def test_region_split_into_two_halves():
    net = desk_network(6, 6)
    assert net.regions() == (0, 1)
    assert net.region_capacity(0) + net.region_capacity(1) == net.total_parking_capacity


def test_roundtrip_identity(tmp_path):
    net = desk_network(2, 2)
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_roundtrip_covers_all_fields(tmp_path):
    from parkdyn.network import Network

    base = desk_network(4, 4, 0.12, 48.0, 110.0, total_spots=3 * 48, lot_capacity=0)
    nodes = [
        Node(n.id, allows_u_turn=(n.id % 3 == 0)) for n in base.nodes.values()
    ]
    links = [
        replace_link(ln, lanes=2 if i % 5 == 0 else 1)
        for i, ln in enumerate(sorted(base.links.values(), key=lambda ln: ln.id))
    ]
    lot = OffStreetLot("garage", entry_link=links[0].id, capacity=42, circuit_length=0.45,
                       internal_cruise_speed=12.0)
    net = Network(nodes, links, lot=lot, region_assignment=base.region_assignment)
    path = tmp_path / "full.json"
    save_network(net, path)
    again = load_network(path)
    assert again == net
    assert again.nodes[0].allows_u_turn
    assert again.lot.id == "garage" and again.lot.circuit_length == 0.45


def replace_link(ln, **kw):
    from dataclasses import replace

    return replace(ln, **kw)


def test_load_rejects_dangling_node(tmp_path):
    net = desk_network(2, 2)
    d = net.to_dict()
    d["links"][0]["from_node"] = 99
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(d))
    with pytest.raises(ValueError, match=re.escape(f"{path}: link 0-1: endpoint not in network")):
        load_network(path)


def test_load_rejects_zero_length(tmp_path):
    net = desk_network(2, 2)
    d = net.to_dict()
    d["links"][0]["length"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(d))
    message = f"{path}: field 'links[0].length' must be > 0 and finite, got 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_network(path)


def test_network_from_generators():
    links = (Link(f"{a}-{b}", a, b, 0.1) for a, b in ((0, 1), (1, 0)))
    net = Network((Node(i) for i in range(2)), links)
    assert sorted(net.nodes) == [0, 1] and sorted(net.links) == ["0-1", "1-0"]


# a valid instance of every dataclass that declares a field domain
_VALID = (
    Link("a", 0, 1, 0.1),
    OffStreetLot("lot", "a", 10),
    DurationDistribution(),
    GuidanceConfig(),
    ScenarioConfig(),
    RunSummary(0, 0, 0, 0, 0, False, 0, 0, 1.0, 0.3, 15.0),
    NfdModel(50.0, 100.0, 20.0),
    MacroParams(NfdModel(50.0, 100.0, 20.0), DistanceModel("geometric", {"d_p": 0.1}),
                DurationDistribution(), 10, 5, 0.5, 0.5, 0.5, 0.3, 30.0, 15.0, 0.01),
    MpcConfig(0.25, 2, 3, 10, ("on",), 0.0, 10.0, 3.0),
    BinParams(50.0, 30.0, 100.0),
)


def _declaring_classes():
    modules = (bintheory, calibration, estimators, macromodel, microsim, mpc, network)
    return {c for m in modules for c in vars(m).values()
            if is_dataclass(c) and isinstance(c, type) and any(
                "domain" in f.metadata for f in fields(c))}


def test_every_declaring_class_has_a_valid_instance():
    assert _declaring_classes() == {type(v) for v in _VALID}


def _outside(domain):
    """nan, inf and, where there is one, another value outside ``domain``."""
    if domain.rule.startswith("must be >= "):
        return [math.nan, math.inf, int(domain.rule.removeprefix("must be >= ")) - 1]
    other = {"must be finite": [-math.inf], "must be > 0 and finite": [0.0],
             "must lie in [0, 1]": [1.5], "must lie in (0, 1]": [0.0],
             "must be finite or -inf": []}
    return [math.nan, math.inf, *other[domain.rule]]


# (what builds an object from one changed value, field name, value) of
# every declared field, found through its metadata, and of every declared
# desk_network parameter
_DECLARED = [
    pytest.param(lambda name, v, base=base: replace(base, **{name: v}), name, value,
                 id=f"{type(base).__name__}.{name}={value}")
    for base in _VALID
    for name, domain in ((f.name, f.metadata["domain"]) for f in fields(base)
                         if "domain" in f.metadata)
    for value in _outside(domain)
] + [
    pytest.param(lambda name, v: desk_network(**{name: v}), name, value,
                 id=f"desk_network.{name}={value}")
    for name, domain in GRID_DOMAINS.items()
    for value in _outside(domain)
]


@pytest.mark.parametrize("build, name, value", _DECLARED)
def test_declared_field_rejects_values_outside_its_domain(build, name, value):
    with pytest.raises(ValueError, match=rf"^field '{name}' must "):
        build(name, value)


def test_load_rejects_regions_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [], "links": [], "regions": []}')
    message = f"{path}: field 'regions' must be a JSON object"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_network(path)


def test_greenshields_examples():
    assert greenshields_speed(0, 50, 100) == 50
    assert greenshields_speed(100, 50, 100) == 0
    assert greenshields_speed(40, 50, 100) == 30.0
    assert greenshields_speed(150, 50, 100) == 0  # clamped beyond jam


@given(
    k=st.floats(0, 300),
    v_f=st.floats(1, 130),
    k_j=st.floats(1, 300),
)
def test_greenshields_bounded_and_monotone(k, v_f, k_j):
    v = greenshields_speed(k, v_f, k_j)
    assert 0 <= v <= v_f
    assert greenshields_speed(k + 1.0, v_f, k_j) <= v + 1e-12


def test_redistribute_exact_total_and_shares():
    net = desk_network(6, 6, total_spots=301, upper_share=0.3)
    assert net.total_parking_capacity == 301
    upper = net.region_capacity(1)
    assert abs(upper - 0.3 * 301) <= 1


def test_redistribute_sparse_supply():
    net = desk_network(6, 6, total_spots=300, supply_fraction=0.25)
    supplied = sum(1 for ln in net.links.values() if ln.parking_capacity > 0)
    assert supplied == round(0.25 * len(net.links))
    assert net.total_parking_capacity == 300


def test_lot_validation():
    with pytest.raises(ValueError):
        OffStreetLot("lot", entry_link="x", capacity=-1)
    lot = OffStreetLot("lot", entry_link="x", capacity=10, circuit_length=0.3, internal_cruise_speed=15)
    assert math.isclose(lot.circuit_time, 0.02)


class TestDurationDistribution:
    def test_uniform_cdf(self):
        d = DurationDistribution("uniform", 0.0, 1.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(0.25) == 0.25
        assert d.cdf(2.0) == 1.0

    def test_table_cdf_interpolates(self):
        d = DurationDistribution("table", xs=(0.0, 0.5, 1.0), cdf_values=(0.0, 0.8, 1.0))
        assert math.isclose(d.cdf(0.25), 0.4)
        assert d.cdf(1.5) == 1.0

    def test_table_from_lists_hashes_like_tuples(self):
        lists = DurationDistribution("table", xs=[0.0, 0.5, 1.0], cdf_values=[0.0, 0.8, 1.0])
        tuples = DurationDistribution("table", xs=(0.0, 0.5, 1.0), cdf_values=(0.0, 0.8, 1.0))
        assert lists == tuples
        assert hash(lists) == hash(tuples)

    def test_table_must_be_monotone(self):
        with pytest.raises(ValueError):
            DurationDistribution("table", xs=(0.0, 1.0), cdf_values=(0.5, 0.2))

    @given(st.floats(0.1, 5.0), st.integers(1, 50))
    def test_step_weights_sum_to_one_over_support(self, hi, n):
        d = DurationDistribution("uniform", 0.0, hi)
        dt = hi / n
        w = d.step_weights(dt, n)
        assert math.isclose(sum(w), 1.0, abs_tol=1e-9)
        assert all(x >= -1e-12 for x in w)

    def test_sampling_deterministic(self):
        import random

        d = DurationDistribution("uniform", 0.2, 0.8)
        r1, r2 = random.Random(5), random.Random(5)
        xs1 = [d.sample(r1) for _ in range(100)]
        xs2 = [d.sample(r2) for _ in range(100)]
        assert xs1 == xs2
        assert all(0.2 <= x <= 0.8 for x in xs1)
