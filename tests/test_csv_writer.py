"""The row-template CSV writer against the rule it replaced.

``cli.write_csv`` formats each row with one ``%`` over the row template of
a declared ``microsim.Table``. Before the templates, every cell went through
``_fmt`` below (floats by ``"{:.10g}"``, anything else by ``str``) and then
``csv.writer``. For random rows of every declared table's kinds, both
writers must give the same bytes.
"""

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkdyn import cli, microsim
from parkdyn.cli import write_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GRID, _GUIDANCE = _script("demand_speed_grid"), _script("guidance_study")
TABLES = {
    "events.csv": microsim.EVENTS_CSV,
    "series.csv": microsim.SERIES_CSV,
    "nfd.csv": microsim.NFD_CSV,
    "envelopes.csv": cli.ENVELOPES_CSV,
    "macro run": cli.MACRO_RUN_CSV,
    "mpc_log.csv": cli.MPC_LOG_CSV,
    "prediction_vs_plant.csv": cli.PREDICTION_CSV,
    "comparison.csv": cli.COMPARISON_CSV,
    "nfd_grid.csv": _GRID.NFD_GRID_CSV,
    "metrics_grid.csv": _GRID.METRICS_GRID_CSV,
    "guidance_metrics.csv": _GUIDANCE.GUIDANCE_METRICS_CSV,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return "{:.10g}".format(x)
    return str(x)


def _reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


_floats = st.one_of(
    st.floats(),  # nan, infinities, subnormals and -0.0 included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e16, 3.5e17, 1e300]),
    st.floats(min_value=1e16, max_value=1e300),
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64))),
)
_ints = st.one_of(
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.integers(min_value=10**10, max_value=10**20),
)
# id-safe: no comma, double quote, CR or LF (network ids are checked at load)
_strings = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'))
KINDS = {
    "float": st.one_of(_floats, _floats.map(np.float64)),
    "int": st.one_of(_ints, st.integers(-2**63, 2**63 - 1).map(np.int64)),
    "str": st.one_of(st.just(""), _strings),
}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_csv_matches_csv_writer(out, name, data):
    table = TABLES[name]
    assert len(table.kinds) == len(table.columns)
    rows = data.draw(st.lists(st.tuples(*(KINDS[k] for k in table.kinds)), max_size=5))
    write_csv(out / "template.csv", table, rows)
    _reference(out / "reference.csv", table.columns, rows)
    assert (out / "template.csv").read_bytes() == (out / "reference.csv").read_bytes()
