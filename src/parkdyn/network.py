"""Road network, parking supply, and parking-duration data model, the
Greenshields link speed law that the micro model and the two-bin theory
share, and the one JSON reader of every input file.

Networks are directed: a two-way street is two links. All quantities carry
the units used throughout the package: km, km/hr, veh/km/lane.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np


def _check_id(what: str, id_: str) -> None:
    """Ids are written unquoted to CSV files (a link id or the lot id to
    events.csv), so they may not hold what a CSV field holds only quoted."""
    if any(c in id_ for c in ',"\r\n'):
        raise ValueError(f"{what} {id_!r}: field 'id' may not hold a comma, double quote, CR or LF")


@dataclass(frozen=True)
class Node:
    id: int
    allows_u_turn: bool = False


@dataclass(frozen=True)
class Link:
    """Directed street segment with an optional on-street parking lane."""

    id: str
    from_node: int
    to_node: int
    length: float  # km
    free_flow_speed: float = 50.0  # km/hr
    jam_density: float = 100.0  # veh/km/lane
    lanes: int = 1
    parking_capacity: int = 0

    def __post_init__(self):
        _check_id("link", self.id)
        if self.length <= 0:
            raise ValueError(f"link {self.id}: length must be > 0")
        if self.free_flow_speed <= 0 or self.jam_density <= 0:
            raise ValueError(f"link {self.id}: speeds and densities must be > 0")
        if self.lanes < 1:
            raise ValueError(f"link {self.id}: lanes must be >= 1")
        if self.parking_capacity < 0:
            raise ValueError(f"link {self.id}: parking fields must be non-negative")

    @property
    def free_flow_time(self) -> float:
        """hr to traverse at free-flow speed."""
        return self.length / self.free_flow_speed


@dataclass(frozen=True)
class OffStreetLot:
    """Off-street parking container reached from the end of its entry link.

    A vehicle arriving at a full lot drives one circuit of ``circuit_length``
    at ``internal_cruise_speed`` before reappearing on the entry link.
    """

    id: str
    entry_link: str
    capacity: int
    circuit_length: float = 0.3  # km
    internal_cruise_speed: float = 15.0  # km/hr

    def __post_init__(self):
        _check_id("lot", self.id)
        if self.capacity < 0:
            raise ValueError(f"lot {self.id}: capacity must be >= 0")
        if self.circuit_length <= 0 or self.internal_cruise_speed <= 0:
            raise ValueError(f"lot {self.id}: circuit fields must be > 0")

    @property
    def circuit_time(self) -> float:
        """hr spent cruising out of a full lot."""
        return self.circuit_length / self.internal_cruise_speed


class Network:
    """Immutable directed road graph with on-street parking supplies.

    ``lot`` is the network's one off-street lot, or None: both models have at
    most one. ``region_assignment`` maps every link id to an integer region,
    used by the bi-partitioned regional guidance.
    """

    def __init__(self, nodes, links, lot=None, region_assignment=None):
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        if len(self.nodes) != len(list(nodes)):
            raise ValueError("duplicate node ids")
        self.links: dict[str, Link] = {}
        for ln in links:
            if ln.id in self.links:
                raise ValueError(f"duplicate link id {ln.id}")
            if ln.from_node not in self.nodes or ln.to_node not in self.nodes:
                raise ValueError(f"link {ln.id}: endpoint not in network")
            self.links[ln.id] = ln
        if lot is not None and lot.entry_link not in self.links:
            raise ValueError(f"lot {lot.id}: entry link {lot.entry_link} not in network")
        self.lot: OffStreetLot | None = lot
        self.region_assignment: dict[str, int] = dict(region_assignment or {})
        for lid in self.region_assignment:
            if lid not in self.links:
                raise ValueError(f"region assignment references unknown link {lid}")
        for lid in self.links:
            self.region_assignment.setdefault(lid, 0)
        self.out_links: dict[int, tuple[str, ...]] = {nid: () for nid in self.nodes}
        grouped: dict[int, list[str]] = {nid: [] for nid in self.nodes}
        for ln in self.links.values():
            grouped[ln.from_node].append(ln.id)
        for nid, lids in grouped.items():
            self.out_links[nid] = tuple(sorted(lids))
        self.total_length = sum(ln.length for ln in self.links.values())
        if self.links and self.total_length <= 0:
            raise ValueError("total network length must be > 0")
        self._reverse: dict[str, str | None] = {}
        by_pair = {(ln.from_node, ln.to_node): ln.id for ln in self.links.values()}
        for ln in self.links.values():
            self._reverse[ln.id] = by_pair.get((ln.to_node, ln.from_node))
        self._next_hop: dict[int, dict[int, str]] | None = None
        self._paths: dict[tuple[int, int], tuple[str, ...]] = {}

    @property
    def total_parking_capacity(self) -> int:
        return sum(ln.parking_capacity for ln in self.links.values())

    def regions(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.region_assignment.values())))

    def region_capacity(self, region: int) -> int:
        return sum(
            ln.parking_capacity
            for ln in self.links.values()
            if self.region_assignment[ln.id] == region
        )

    def reverse_link(self, link_id: str) -> str | None:
        """The opposite-direction link of a two-way street, if present."""
        return self._reverse[link_id]

    def boundary_nodes(self) -> tuple[int, ...]:
        """Perimeter heuristic: nodes with fewer out-links than the maximum."""
        if not self.nodes:
            return ()
        deg = {nid: len(self.out_links[nid]) for nid in self.nodes}
        top = max(deg.values())
        picked = tuple(sorted(n for n, d in deg.items() if d < top))
        return picked if picked else tuple(sorted(self.nodes))

    def next_hop(self) -> dict[int, dict[int, str]]:
        """next_hop[dest][node] -> out-link on the free-flow shortest path."""
        if self._next_hop is None:
            table: dict[int, dict[int, str]] = {}
            # (free-flow time, from node, id) of each link, by its to node
            in_links: dict[int, list[tuple[float, int, str]]] = {nid: [] for nid in self.nodes}
            for ln in self.links.values():
                in_links[ln.to_node].append((ln.free_flow_time, ln.from_node, ln.id))
            for dest in self.nodes:
                # Dijkstra on the reversed graph from dest
                dist = {dest: 0.0}
                hop: dict[int, str] = {}
                pq = [(0.0, dest)]
                while pq:
                    d, u = heapq.heappop(pq)
                    if d > dist.get(u, math.inf):
                        continue
                    for t, v, lid in in_links[u]:
                        nd = d + t
                        if nd < dist.get(v, math.inf) - 1e-15:
                            dist[v] = nd
                            hop[v] = lid
                            heapq.heappush(pq, (nd, v))
                table[dest] = hop
            self._next_hop = table
        return self._next_hop

    def path_links(self, origin: int, dest: int) -> tuple[str, ...]:
        """Free-flow shortest path as a link sequence (empty if origin==dest),
        found once per (origin, dest)."""
        path = self._paths.get((origin, dest))
        if path is None:
            hop = self.next_hop()[dest]
            steps, node = [], origin
            while node != dest:
                if node not in hop:
                    raise ValueError(f"no path from {origin} to {dest}")
                lid = hop[node]
                steps.append(lid)
                node = self.links[lid].to_node
            path = self._paths[origin, dest] = tuple(steps)
        return path

    def is_strongly_connected(self) -> bool:
        if not self.nodes:
            return True
        start = next(iter(self.nodes))
        for forward in (True, False):
            seen = {start}
            stack = [start]
            edges: dict[int, list[int]] = {nid: [] for nid in self.nodes}
            for ln in self.links.values():
                if forward:
                    edges[ln.from_node].append(ln.to_node)
                else:
                    edges[ln.to_node].append(ln.from_node)
            while stack:
                u = stack.pop()
                for v in edges[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != len(self.nodes):
                return False
        return True

    def to_dict(self) -> dict:
        nodes = tuple(self.nodes[nid] for nid in sorted(self.nodes))
        links = tuple(self.links[lid] for lid in sorted(self.links))
        regions = dict(sorted(self.region_assignment.items()))
        return asdict(_NetworkFile(nodes, links, self.lot, regions))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class DurationDistribution:
    """Parking-duration distribution with a queryable CDF (hours).

    ``kind`` is "uniform" (lo, hi) or "table" with an explicit piecewise-linear
    CDF over``xs``/``cdf_values`` (must start at F(0)=0 and end at 1).
    """

    kind: str = "uniform"
    lo: float = 0.0
    hi: float = 1.0
    xs: tuple[float, ...] = ()
    cdf_values: tuple[float, ...] = ()

    def __post_init__(self):
        # tuples, so that the distribution hashes (the macro weight cache keys on it)
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "cdf_values", tuple(self.cdf_values))
        if self.kind == "uniform":
            if not (0 <= self.lo < self.hi):
                raise ValueError("uniform duration needs 0 <= lo < hi")
        elif self.kind == "table":
            xs, fs = self.xs, self.cdf_values
            if len(xs) != len(fs) or len(xs) < 2:
                raise ValueError("table duration needs matching xs/cdf_values")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("table xs must be strictly increasing")
            if any(b < a for a, b in zip(fs, fs[1:])):
                raise ValueError("table cdf must be non-decreasing")
            if xs[0] != 0.0 or abs(fs[0]) > 1e-12 or abs(fs[-1] - 1.0) > 1e-12:
                raise ValueError("table cdf must run from F(0)=0 to F(x_max)=1")
        else:
            raise ValueError(f"unknown duration kind {self.kind!r}")

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if self.kind == "uniform":
            if x <= self.lo:
                return 0.0
            if x >= self.hi:
                return 1.0
            return (x - self.lo) / (self.hi - self.lo)
        xs, fs = self.xs, self.cdf_values
        if x >= xs[-1]:
            return 1.0
        for (x0, f0), (x1, f1) in zip(zip(xs, fs), zip(xs[1:], fs[1:])):
            if x <= x1:
                return f0 + (f1 - f0) * (x - x0) / (x1 - x0)
        return 1.0

    def sample(self, rng) -> float:
        u = rng.random()
        if self.kind == "uniform":
            return self.lo + u * (self.hi - self.lo)
        xs, fs = self.xs, self.cdf_values
        for (x0, f0), (x1, f1) in zip(zip(xs, fs), zip(xs[1:], fs[1:])):
            if u <= f1:
                if f1 == f0:
                    return x1
                return x0 + (x1 - x0) * (u - f0) / (f1 - f0)
        return xs[-1]

    def step_weights(self, dt: float, n_steps: int):
        """P(duration falls in step j), j = 0..n_steps-1, for re-departure sums."""
        return [self.cdf((j + 1) * dt) - self.cdf(j * dt) for j in range(n_steps)]


def greenshields_speed(k, v_f, k_j):
    """Linear speed-density relation, clamped at zero beyond jam density;
    elementwise over numpy arrays."""
    return np.maximum(v_f * (1.0 - k / k_j), 0.0)


def build_grid(
    rows: int,
    cols: int,
    link_length: float,
    v_f: float,
    k_j: float,
    parking_capacity_per_link: int,
) -> Network:
    """Bidirectional square-grid network; rows split into two guidance regions.

    Region 1 covers links whose midpoint lies in the upper half of the rows.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs rows >= 2 and cols >= 2")
    if link_length <= 0 or v_f <= 0 or k_j <= 0:
        raise ValueError("grid parameters must be positive")
    if parking_capacity_per_link < 0:
        raise ValueError("parking parameters must be non-negative")

    def nid(r, c):
        return r * cols + c

    nodes = [Node(nid(r, c)) for r in range(rows) for c in range(cols)]
    links = []
    regions = {}

    def add(u, v, row_mid):
        lid = f"{u}-{v}"
        links.append(
            Link(
                id=lid,
                from_node=u,
                to_node=v,
                length=link_length,
                free_flow_speed=v_f,
                jam_density=k_j,
                parking_capacity=parking_capacity_per_link,
            )
        )
        regions[lid] = 1 if row_mid >= rows / 2.0 else 0

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add(nid(r, c), nid(r, c + 1), r)
                add(nid(r, c + 1), nid(r, c), r)
            if r + 1 < rows:
                add(nid(r, c), nid(r + 1, c), r + 0.5)
                add(nid(r + 1, c), nid(r, c), r + 0.5)
    return Network(nodes, links, region_assignment=regions)


def redistribute_parking(
    network: Network,
    total_spots: int,
    region_shares: dict[int, float] | None = None,
    supply_fraction: float = 1.0,
) -> Network:
    """Spread an exact total of on-street spots evenly over the links.

    With ``region_shares`` (region id -> fraction of the total, summing to 1)
    each region receives its share spread evenly over its own links, which
    gives the upper/lower supply imbalance the regional-guidance experiments
    rely on. ``supply_fraction`` < 1 concentrates each region's spots on an
    evenly spaced subset of its links. Remainders go to the first links in
    sorted-id order.
    """
    if total_spots < 0:
        raise ValueError("total_spots must be >= 0")
    if not (0 < supply_fraction <= 1):
        raise ValueError("supply_fraction must lie in (0, 1]")
    lids = sorted(network.links)
    caps = {lid: 0 for lid in lids}
    if region_shares is None:
        groups = [(lids, total_spots)]
    else:
        if abs(sum(region_shares.values()) - 1.0) > 1e-9:
            raise ValueError("region shares must sum to 1")
        groups = []
        assigned = 0
        items = sorted(region_shares.items())
        for i, (region, share) in enumerate(items):
            in_region = [lid for lid in lids if network.region_assignment[lid] == region]
            if not in_region:
                raise ValueError(f"no links in region {region}")
            spots = total_spots - assigned if i == len(items) - 1 else int(round(total_spots * share))
            assigned += spots
            groups.append((in_region, spots))
    for group, spots in groups:
        if supply_fraction < 1.0:
            keep = max(1, int(round(len(group) * supply_fraction)))
            stride = len(group) / keep
            group = [group[int(i * stride)] for i in range(keep)]
        base, extra = divmod(spots, len(group))
        for i, lid in enumerate(group):
            caps[lid] = base + (1 if i < extra else 0)
    new_links = [replace(network.links[lid], parking_capacity=caps[lid]) for lid in lids]
    return Network(
        list(network.nodes.values()),
        new_links,
        lot=network.lot,
        region_assignment=network.region_assignment,
    )


def add_lot(network: Network, lot: OffStreetLot) -> Network:
    """``network`` with ``lot``; a network has at most one lot."""
    if network.lot is not None:
        raise ValueError(f"lot {lot.id}: the network already has lot {network.lot.id}")
    return Network(
        list(network.nodes.values()),
        list(network.links.values()),
        lot=lot,
        region_assignment=network.region_assignment,
    )


def save_network(network: Network, path) -> None:
    Path(path).write_text(json.dumps(network.to_dict(), indent=1, sort_keys=True))


@dataclass(frozen=True)
class _NetworkFile:
    """The JSON layout of a network file."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    lot: OffStreetLot | None = None
    regions: dict[str, int] = field(default_factory=dict)
    units: dict = field(
        default_factory=lambda: {"length": "km", "speed": "km/hr", "density": "veh/km/lane"}
    )


def load_network(path) -> Network:
    f = read_json(_NetworkFile, path, "")
    try:
        return Network(f.nodes, f.links, lot=f.lot, region_assignment=f.regions)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def read_json(cls, path, what: str):
    """``from_json(cls, ·)`` of the JSON file at ``path``. Undecodable bytes,
    malformed or over-deep JSON and a bad field each raise one ValueError
    that starts with ``what`` (if any) and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(cls, json.load(fh))
    except (ValueError, RecursionError) as e:
        where = f"{what} {path}" if what else path
        raise ValueError(f"{where}: {e}") from None


def from_json(cls, obj):
    """The dataclass ``cls`` read from the JSON document ``obj``.

    Every key must be a field of ``cls``, and every field without a default
    must be present. Each value must match its field's annotation: ``bool``
    and ``str`` exactly, ``int`` an integer (not a boolean) within the float
    range, ``float`` a finite number (stored as float), ``X | None`` null or
    an X, ``tuple[X, ...]`` an array of X, ``dict[str, X]`` an object of X, a
    bare ``dict`` any object, and a dataclass an object read by these rules. A
    ValueError names the field by its dotted path, as in
    ``unknown field 'links[3].lane'``.
    """
    return _reader(cls)(obj, "", None)


# A reader is called as read(value, parent, key): the value is at ``key``
# (a field name, an array index, or None for the whole document) of the
# value at dotted path ``parent``. The path is joined only where needed.


def _path(parent: str, key) -> str:
    if key is None:
        return parent
    if isinstance(key, int):
        return f"{parent}[{key}]"
    return f"{parent}.{key}" if parent else key


def _mismatch(parent: str, key, what: str) -> ValueError:
    path = _path(parent, key)
    where = f"field {path!r}" if path else "the file"
    return ValueError(f"{where} must be {what}")


_EXACT = {bool: "true or false", str: "a string", dict: "a JSON object", list: "a JSON array"}


def _exact(kind):
    def read(value, parent, key):
        if type(value) is not kind:
            raise _mismatch(parent, key, _EXACT[kind])
        return value

    return read


_MAX_FLOAT = sys.float_info.max


def _read_float(value, parent, key):
    # the comparison is exact for integers of any size, and false for nan
    if type(value) not in (int, float) or not -_MAX_FLOAT <= value <= _MAX_FLOAT:
        raise _mismatch(parent, key, "a finite number")
    return float(value)


def _read_int(value, parent, key):
    if type(value) is not int:
        raise _mismatch(parent, key, "an integer")
    # a larger integer raises OverflowError wherever it meets a float
    if not -_MAX_FLOAT <= value <= _MAX_FLOAT:
        raise _mismatch(parent, key, "an integer within the float range")
    return value


@functools.cache
def _reader(tp):
    """The reader for annotation ``tp``. It is built once per annotation, so
    a dataclass's fields and type hints are resolved once, not per record."""
    if tp is float:
        return _read_float
    if tp is int:
        return _read_int
    if tp in _EXACT:
        return _exact(tp)
    is_object = _exact(dict)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType and args[1:] == (type(None),):
        item = _reader(args[0])

        def read_optional(value, parent, key):
            return None if value is None else item(value, parent, key)

        return read_optional
    if origin is tuple and args[1:] == (Ellipsis,):
        item, is_array = _reader(args[0]), _exact(list)

        def read_tuple(value, parent, key):
            path = _path(parent, key)
            return tuple(item(x, path, i) for i, x in enumerate(is_array(value, parent, key)))

        return read_tuple
    if origin is dict and args[0] is str:
        item = _reader(args[1])

        def read_dict(value, parent, key):
            path = _path(parent, key)
            return {k: item(x, path, k) for k, x in is_object(value, parent, key).items()}

        return read_dict
    if not is_dataclass(tp):
        raise TypeError(f"no JSON reader for {tp!r}")
    hints = typing.get_type_hints(tp)
    readers = {f.name: _reader(hints[f.name]) for f in fields(tp)}
    required = [
        f.name for f in fields(tp) if f.default is MISSING and f.default_factory is MISSING
    ]

    def read_dataclass(obj, parent, key):
        path = _path(parent, key)
        kwargs = {}
        for name, value in is_object(obj, parent, key).items():
            read = readers.get(name)
            if read is None:
                raise ValueError(f"unknown field {_path(path, name)!r}")
            kwargs[name] = read(value, path, name)
        for name in required:
            if name not in kwargs:
                raise ValueError(f"missing field {_path(path, name)!r}")
        return tp(**kwargs)

    return read_dataclass
