"""Fuzz the file loaders: any JSON document, any bytes, a document nested
too deep to parse, and any run directory, either loads or raises ValueError
naming the file (which the CLI prints as one ``error:`` line), never another
exception type. What loads holds values of the annotated types only."""

import json
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parkdyn.calibration import CalibrationReport
from parkdyn.cli import load_run_dir
from parkdyn.estimators import KINDS, DistanceModel
from parkdyn.macromodel import NfdModel
from parkdyn.microsim import SERIES_COLUMNS, Event, GuidanceConfig, RunSummary, ScenarioConfig
from parkdyn.network import DurationDistribution, Link, Node, OffStreetLot, load_network

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _some_of(names, values=_json):
    """Dicts over a subset of ``names`` (plus the odd unknown key)."""
    return st.fixed_dictionaries({}, optional={n: values for n in names}) | st.dictionaries(
        st.sampled_from(list(names)) | st.text(max_size=4), values, max_size=4
    )


def _fields(cls):
    return [f.name for f in fields(cls)]


_duration = _some_of(_fields(DurationDistribution), _json | st.sampled_from(["uniform", "table"]))
_scenario = _some_of(_fields(ScenarioConfig), _json | _duration | _some_of(_fields(GuidanceConfig)))
_calibration = _some_of(
    _fields(CalibrationReport),
    _json
    | _some_of(_fields(NfdModel))
    | _some_of(_fields(DistanceModel), _json | st.sampled_from(KINDS) | _some_of(["a", "b", "c"])),
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _check_type(value, tp):
    """``value`` is of annotation ``tp``, all the way down."""
    if is_dataclass(tp):
        assert type(value) is tp
        hints = get_type_hints(tp)
        for f in fields(tp):
            _check_type(getattr(value, f.name), hints[f.name])
    elif get_origin(tp) is tuple:
        assert type(value) is tuple
        for item in value:
            _check_type(item, get_args(tp)[0])
    elif get_origin(tp) is dict:
        assert type(value) is dict
        for key, item in value.items():
            assert type(key) is str
            _check_type(item, get_args(tp)[1])
    else:
        assert type(value) is tp, (value, tp)


# a document nested deeper than the JSON parser recurses
_DEEP = b"[" * 100_000 + b"]" * 100_000


def _loads_or_value_error(load, path, doc):
    """The loaded object, or None after a ValueError naming the file. A
    ``bytes`` document is written as it is, any other as JSON."""
    path.write_bytes(doc if type(doc) is bytes else json.dumps(doc).encode())
    try:
        return load(path)
    except ValueError as e:
        assert str(path) in str(e)


@settings(max_examples=300, deadline=None)
@given(_json | _scenario | st.binary(max_size=24))
@example(_DEEP)
def test_scenario_loader(path, doc):
    sc = _loads_or_value_error(ScenarioConfig.load, path, doc)
    if sc is not None:
        _check_type(sc, ScenarioConfig)


@settings(max_examples=300, deadline=None)
@given(_json | _calibration | st.binary(max_size=24))
@example(_DEEP)
def test_calibration_loader(path, doc):
    report = _loads_or_value_error(CalibrationReport.load, path, doc)
    if report is not None:
        _check_type(report, CalibrationReport)


_ids = st.integers(0, 3) | st.sampled_from(["a", "b"]) | st.floats(0.01, 1.0)
_lot = _some_of(_fields(OffStreetLot), _json | _ids)
_network = _some_of(
    ["nodes", "links", "lot", "regions"],
    _json
    | _lot
    | st.lists(
        _some_of(_fields(Node), _json | _ids)
        | _some_of(_fields(Link), _json | _ids)
        | _lot,
        max_size=3,
    )
    | st.dictionaries(st.sampled_from(["a", "b"]) | st.text(max_size=2), _json | _ids, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(_json | _network | st.binary(max_size=24))
@example(_DEEP)
def test_network_loader(path, doc):
    net = _loads_or_value_error(load_network, path, doc)
    if net is not None:
        for node in net.nodes.values():
            _check_type(node, Node)
        for link in net.links.values():
            _check_type(link, Link)
        if net.lot is not None:
            _check_type(net.lot, OffStreetLot)
        _check_type(net.region_assignment, dict[str, int])


_num = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers(-2, 2).map(str)
_finite = st.floats(-1e3, 1e3).map(repr) | st.integers(-2, 2).map(str)


def _csv(columns, ints=()):
    """CSV bytes: the right header or a jumble of names, rows of numbers of
    the right kind, perhaps an odd row, or no CSV at all; or a well-formed
    file, finite numbers in rows that increase in their first column."""
    header = st.just(list(columns)) | st.lists(
        st.sampled_from(columns) | st.text(max_size=3), max_size=len(columns) + 1
    )
    typed = st.tuples(*(st.integers(-2, 2).map(str) if c in ints else _num for c in columns))
    odd = st.lists(_num | st.text(max_size=3), max_size=len(columns) + 1)
    text = st.tuples(header, st.lists(typed, max_size=3), st.lists(odd, max_size=1)).map(
        lambda p: [p[0], *p[1], *p[2]]
    )
    finite = st.tuples(*(st.integers(-2, 2).map(str) if c in ints else _finite for c in columns))
    well_formed = st.lists(finite, max_size=3, unique_by=lambda row: float(row[0])).map(
        lambda rows: [columns, *sorted(rows, key=lambda row: float(row[0]))]
    )
    return (text | well_formed).map(
        lambda lines: "\r\n".join(",".join(cells) for cells in lines).encode()
    ) | st.binary(max_size=24)


_SUMMARY = {
    "seed": 0, "injected": 9, "exited": 5, "parked_on_total": 3, "parked_off_total": 1,
    "gridlock": False, "on_street_capacity": 4, "lot_capacity": 2, "network_length": 1.0,
    "l_off": 0.3, "v_off_f": 15.0,
}
_number = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2, 5)
# a value of each field's own type, mostly in its valid range (a count >= 0, a
# quantity finite and > 0), so that a whole summary often loads
_of_type = {bool: st.booleans(), int: st.integers(-1, 5), float: st.floats(0.01, 1e3) | _number}
_summary = st.fixed_dictionaries({k: _of_type[type(v)] for k, v in _SUMMARY.items()})


def _json_bytes(doc):
    return json.dumps(doc).encode()


_RUN_FILES = {
    "events.csv": (",".join(Event._fields).encode(), _csv(Event._fields, ints=("vehicle_id",))),
    "series.csv": (
        "\r\n".join(",".join(map(str, r)) for r in
                     [SERIES_COLUMNS, [0] * len(SERIES_COLUMNS), [1] * len(SERIES_COLUMNS)]).encode(),
        _csv(SERIES_COLUMNS),
    ),
    "metrics.json": (
        _json_bytes({"summary": _SUMMARY}),
        st.fixed_dictionaries({"summary": _summary}).map(_json_bytes)
        | (_json | st.fixed_dictionaries({"summary": _some_of(_SUMMARY)})).map(_json_bytes)
        | st.binary(max_size=24),
    ),
}


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "seed_0"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_RUN_FILES)).flatmap(lambda n: st.tuples(st.just(n), _RUN_FILES[n][1])))
@example(("metrics.json", _DEEP))
def test_run_dir_loader(seed_dir, fuzzed):
    """One file of the run directory fuzzed, the other two well formed."""
    seed_dir.mkdir(exist_ok=True)
    name, data = fuzzed
    for other, (valid, _) in _RUN_FILES.items():
        (seed_dir / other).write_bytes(data if other == name else valid)
    try:
        res = load_run_dir(seed_dir)
    except ValueError as e:
        assert str(seed_dir / name) in str(e)
    else:
        _check_type(res.summary, RunSummary)
        assert res.summary.network_length > 0 and res.summary.v_off_f > 0
        assert res.dt_sim > 0 and res.summary.on_street_capacity >= 0
        assert all(np.isfinite(col).all() for col in res.series.values())
        assert np.isfinite([x for ev in res.events for x in ev if type(x) is float]).all()
