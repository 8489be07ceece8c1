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
from parkdyn.network import DurationDistribution

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
    path.write_text(json.dumps(doc))
    try:
        load(path)
    except ValueError as e:
        assert str(path) in str(e)


@settings(max_examples=300, deadline=None)
@given(_json | _scenario)
def test_scenario_loader(path, doc):
    _loads_or_value_error(ScenarioConfig.load, path, doc)


@settings(max_examples=300, deadline=None)
@given(_json | _calibration)
def test_calibration_loader(path, doc):
    _loads_or_value_error(CalibrationReport.load, path, doc)
