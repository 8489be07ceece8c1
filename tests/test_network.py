import math
import re

import pytest
from hypothesis import given, strategies as st

from parkdyn.network import (
    DurationDistribution,
    Link,
    Network,
    Node,
    OffStreetLot,
    add_lot,
    build_grid,
    greenshields_speed,
    load_network,
    redistribute_parking,
    save_network,
)


def test_grid_2x2_counts():
    net = build_grid(2, 2, 0.1, 50, 100, 10)
    assert len(net.nodes) == 4
    assert len(net.links) == 8
    assert math.isclose(net.total_length, 0.8)


def test_grid_4x4_counts():
    # 2 * (2 * rows * (cols-1)) directed links for a square grid
    net = build_grid(4, 4, 0.1, 50, 100, 2)
    assert len(net.nodes) == 16
    assert len(net.links) == 48


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (0, 5)])
def test_grid_rejects_degenerate_dimensions(rows, cols):
    with pytest.raises(ValueError):
        build_grid(rows, cols, 0.1, 50, 100, 2)


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (6, 6)])
def test_grid_strongly_connected(rows, cols):
    assert build_grid(rows, cols, 0.1, 50, 100, 1).is_strongly_connected()


def test_grid_interior_degree_four():
    net = build_grid(4, 4, 0.1, 50, 100, 0)
    interior = 1 * 4 + 1  # node (1,1) has id 5
    assert len(net.out_links[5]) == 4


def test_path_links_shortest_and_found_once():
    net = build_grid(3, 3, 0.1, 50, 100, 0)
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
    net = build_grid(6, 6, 0.1, 50, 100, 1)
    assert net.regions() == (0, 1)
    assert net.region_capacity(0) + net.region_capacity(1) == net.total_parking_capacity


def test_roundtrip_identity(tmp_path):
    net = build_grid(2, 2, 0.1, 50, 100, 10)
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_roundtrip_covers_all_fields(tmp_path):
    from parkdyn.network import Network

    base = build_grid(4, 4, 0.12, 48.0, 110.0, 3)
    nodes = [
        Node(n.id, allows_u_turn=(n.id % 3 == 0)) for n in base.nodes.values()
    ]
    links = [
        replace_link(ln, lanes=2 if i % 5 == 0 else 1)
        for i, ln in enumerate(sorted(base.links.values(), key=lambda ln: ln.id))
    ]
    net = Network(nodes, links, region_assignment=base.region_assignment)
    net = add_lot(net, OffStreetLot("garage", entry_link=links[0].id, capacity=42,
                                    circuit_length=0.45, internal_cruise_speed=12.0))
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
    net = build_grid(2, 2, 0.1, 50, 100, 1)
    d = net.to_dict()
    d["links"][0]["from_node"] = 99
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(d))
    with pytest.raises(ValueError, match=re.escape(f"{path}: link 0-1: endpoint not in network")):
        load_network(path)


def test_load_rejects_zero_length(tmp_path):
    net = build_grid(2, 2, 0.1, 50, 100, 1)
    d = net.to_dict()
    d["links"][0]["length"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(d))
    with pytest.raises(ValueError, match=re.escape(f"{path}: link 0-1: length must be > 0")):
        load_network(path)


def test_load_rejects_regions_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [], "links": [], "regions": []}')
    message = f"{path}: field 'regions' must be a JSON object"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_network(path)


def test_add_lot_keeps_one_lot():
    net = add_lot(build_grid(2, 2, 0.1, 50, 100, 1), OffStreetLot("first", "0-1", 5))
    with pytest.raises(ValueError, match="lot second: the network already has lot first"):
        add_lot(net, OffStreetLot("second", "1-0", 7))
    assert net.lot.id == "first"


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
    net = build_grid(6, 6, 0.1, 50, 100, 0)
    net = redistribute_parking(net, 301, {0: 0.7, 1: 0.3})
    assert net.total_parking_capacity == 301
    upper = net.region_capacity(1)
    assert abs(upper - 0.3 * 301) <= 1


def test_redistribute_sparse_supply():
    net = build_grid(6, 6, 0.1, 50, 100, 0)
    net = redistribute_parking(net, 300, None, supply_fraction=0.25)
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
