"""Fuzz the JSON loaders: any JSON document either loads or raises
ValueError (which the CLI prints as one ``error:`` line), never another
exception type."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkdyn.calibration import CalibrationReport
from parkdyn.estimators import KINDS, DistanceModel
from parkdyn.macromodel import NfdModel
from parkdyn.microsim import GuidanceConfig, ScenarioConfig
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


def _loads_or_value_error(load, path, doc):
    """The loaded object, or None after a ValueError naming the file."""
    path.write_text(json.dumps(doc))
    try:
        return load(path)
    except ValueError as e:
        assert str(path) in str(e)


@settings(max_examples=300, deadline=None)
@given(_json | _scenario)
def test_scenario_loader(path, doc):
    sc = _loads_or_value_error(ScenarioConfig.load, path, doc)
    if sc is not None:
        assert isinstance(sc.duration, DurationDistribution)
        assert isinstance(sc.guidance, GuidanceConfig)


@settings(max_examples=300, deadline=None)
@given(_json | _calibration)
def test_calibration_loader(path, doc):
    _loads_or_value_error(CalibrationReport.load, path, doc)


_ids = st.integers(0, 3) | st.sampled_from(["a", "b"]) | st.floats(0.01, 1.0)
_network = _some_of(
    ["nodes", "links", "lots", "regions"],
    _json
    | st.lists(
        _some_of(_fields(Node), _json | _ids)
        | _some_of(_fields(Link), _json | _ids)
        | _some_of(_fields(OffStreetLot), _json | _ids),
        max_size=3,
    )
    | st.dictionaries(st.sampled_from(["a", "b"]) | st.text(max_size=2), _json | _ids, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(_json | _network)
def test_network_loader(path, doc):
    _loads_or_value_error(load_network, path, doc)
