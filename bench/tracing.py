"""Spans around the public calls of each parkdyn layer, and the per-layer
metrics computed from them.

The op process installs a :class:`Tracer` before calling ``cli.main``. It
patches the module attributes that callers look up at call time, records
one span per call (name, layer, start, end, parent, op id, counts) in
memory, and hands the spans back when the process ends. Spans are kept at
coarse boundaries: no span per ``Simulation.step``.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import weakref
from pathlib import Path

# ------------------------------------------------------------------ spans

READS = {"load_run_dir", "load_network", "ScenarioConfig.load", "CalibrationReport.load"}
WRITES = {"write_csv", "write_json", "CalibrationReport.save"}
# Macro-model calls are attributed to the nearest of these ancestors.
MACRO_PARENTS = {"mpc_loop": "mpc_loop", "solve_full_horizon": "full_horizon"}


def _size(path) -> int:
    return os.path.getsize(path)


def _bytes_at(index):
    return lambda args, result, before: {"bytes": _size(args[index])}


def _run_dir_bytes(args, result, before):
    d = Path(args[0])
    return {"bytes": sum(_size(d / f) for f in ("events.csv", "series.csv", "metrics.json"))}


class Tracer:
    """Records spans for one op process."""

    def __init__(self, op: str = "", clock=time.perf_counter):
        self.op = op
        self.clock = clock
        self.spans: list[dict] = []
        self.sims: list[dict] = []
        self._stack: list[dict] = []
        self._sim_stats = weakref.WeakKeyDictionary()

    def wrap(self, fn, name, layer, post=None, pre=None):
        """``fn`` recording a span; ``pre(args)`` runs before the call and
        ``post(args, result, pre_value)`` after it, returning the span's
        counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name,
                "layer": layer,
                "op": self.op,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            before = pre(args) if pre else None
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if post:
                span["counts"] = post(args, result, before)
            return result

        return traced

    def patch(self, owner, attr, layer, post=None, pre=None):
        static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
        name = f"{owner.__name__}.{attr}" if inspect.isclass(owner) else attr
        traced = self.wrap(getattr(owner, attr), name, layer, post, pre)
        setattr(owner, attr, staticmethod(traced) if static else traced)

    # -- microsim counts: vehicle-steps from the series the step loop fills

    def _sim_pre(self, args):
        return args[0].step_i

    def _sim_post(self, args, result, first_step):
        sim = args[0]
        stats = self._sim_stats.get(sim)
        if stats is None:
            stats = self._sim_stats[sim] = {}
            self.sims.append(stats)
        stats.update(injected=sim.injected, exited=sim.exited)
        return {"veh_steps": int(sim._series["active"][first_step : sim.step_i].sum())}

    def install(self):
        """Patch every traced boundary of the parkdyn package."""
        from parkdyn import calibration, cli, macromodel, microsim, mpc, network

        for attr in dir(cli):
            if attr.startswith("cmd_"):
                self.patch(cli, attr, "cli")
        self.patch(cli, "write_csv", "cli", post=_bytes_at(0))
        self.patch(cli, "write_json", "cli", post=_bytes_at(0))
        self.patch(calibration.CalibrationReport, "save", "cli", post=_bytes_at(1))
        self.patch(cli, "load_run_dir", "cli", post=_run_dir_bytes)
        self.patch(network, "load_network", "cli", post=_bytes_at(0))
        self.patch(microsim.ScenarioConfig, "load", "cli", post=_bytes_at(0))
        self.patch(calibration.CalibrationReport, "load", "cli", post=_bytes_at(0))

        for attr in ("run", "run_until"):
            self.patch(microsim.Simulation, attr, "microsim", pre=self._sim_pre, post=self._sim_post)

        for attr in ("read_state", "advance"):
            self.patch(mpc.MicroPlant, attr, "mpc")
        self.patch(mpc, "mpc_loop", "mpc")
        self.patch(mpc, "solve_full_horizon", "mpc")
        self.patch(mpc, "solve_open_loop", "mpc", post=lambda a, r, _: {"evaluations": r.evaluations})
        # mpc imported the function by name, so both attributes need the wrapper
        simulate = self.wrap(
            macromodel.simulate_macro, "simulate_macro", "macromodel",
            post=lambda a, r, _: {"steps": r.n_steps},
        )
        macromodel.simulate_macro = mpc.simulate_macro = simulate

        for attr in ("calibrate", "fit_nfd", "fit_estimator", "micro_series_on_macro_grid", "validate"):
            self.patch(calibration, attr, "calibration")


# ------------------------------------------------------------- analysis


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ancestors(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        yield span


def _outermost(spans, by_id, keep):
    """Spans passing ``keep`` with no ancestor that passes it too, so nested
    calls of one kind are not counted twice."""
    return [s for s in spans if keep(s) and not any(keep(a) for a in _ancestors(s, by_id))]


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


LAYERS = ("cli", "microsim", "macromodel", "mpc", "calibration")


def process_metrics(spans: list[dict], sims: list[dict]) -> dict[str, float]:
    """Raw per-layer sums for the spans of one process."""
    by_id = {s["id"]: s for s in spans}
    self_t = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{s['layer']}.self_s"] += self_t[s["id"]]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def layer_busy(layer):
        return _dur(_outermost(spans, by_id, lambda s: s["layer"] == layer))

    m["microsim.busy_s"] = layer_busy("microsim")
    m["microsim.veh_steps"] = sum(s["counts"].get("veh_steps", 0) for s in spans if s["layer"] == "microsim")
    m["microsim.runs"] = len(sims)
    m["microsim.injected"] = sum(s["injected"] for s in sims)
    m["microsim.exited"] = sum(s["exited"] for s in sims)

    reads = _outermost(spans, by_id, lambda s: s["name"] in READS)
    writes = _outermost(spans, by_id, lambda s: s["name"] in WRITES)
    m["cli.read_s"] = _dur(reads)
    m["cli.write_s"] = _dur(writes)
    m["cli.read_calls"] = len(named(*READS))
    m["cli.bytes_read"] = sum(s["counts"].get("bytes", 0) for s in reads)
    m["cli.bytes_written"] = sum(s["counts"].get("bytes", 0) for s in writes)

    m["calibration.busy_s"] = layer_busy("calibration")
    m["calibration.fit_nfd_s"] = _dur(named("fit_nfd"))
    m["calibration.validate_s"] = _dur(named("validate"))

    macro = named("simulate_macro")
    m["macromodel.calls"] = len(macro)
    m["macromodel.steps"] = sum(s["counts"]["steps"] for s in macro)
    m["macromodel.busy_s"] = _dur(macro)
    for part in ("mpc_loop", "full_horizon", "other"):
        m[f"macromodel.busy_s.{part}"] = 0.0
        m[f"macromodel.steps.{part}"] = 0
    for s in macro:
        part = next(
            (MACRO_PARENTS[a["name"]] for a in _ancestors(s, by_id) if a["name"] in MACRO_PARENTS),
            "other",
        )
        m[f"macromodel.busy_s.{part}"] += s["end"] - s["start"]
        m[f"macromodel.steps.{part}"] += s["counts"]["steps"]

    solves = named("solve_open_loop")
    solve_ids = {s["id"] for s in solves}
    m["mpc.solves"] = len(solves)
    m["mpc.evaluations"] = sum(s["counts"]["evaluations"] for s in solves)
    m["mpc.solver_macro_calls"] = sum(1 for s in macro if s["parent"] in solve_ids)
    m["mpc.solve_s"] = _dur(solves)
    m["mpc.read_state_s"] = _dur(named("MicroPlant.read_state"))
    m["mpc.plant_s"] = _dur(named("MicroPlant.advance"))

    m["trace.spanned_s"] = _dur([s for s in spans if s["parent"] is None])
    return m


EXACT_COUNTS = ("microsim.veh_steps", "macromodel.steps", "mpc.evaluations", "cli.read_calls")
# Sums that op_metrics turns into ratios and does not report itself.
_RATIO_INPUTS = ("microsim.injected", "microsim.exited", "mpc.solve_s", "mpc.solver_macro_calls")


def op_metrics(processes: list[tuple[list[dict], list[dict]]]) -> dict[str, float]:
    """Per-layer metrics of one op from the (spans, sims) of its processes."""
    total: dict[str, float] = {}
    for spans, sims in processes:
        for k, v in process_metrics(spans, sims).items():
            total[k] = total.get(k, 0) + v
    m = {k: v for k, v in total.items() if k not in _RATIO_INPUTS}
    m["microsim.us_per_veh_step"] = _ratio(total["microsim.busy_s"], total["microsim.veh_steps"], 1e6)
    m["microsim.exited_frac"] = _ratio(total["microsim.exited"], total["microsim.injected"])
    m["macromodel.us_per_step"] = _ratio(total["macromodel.busy_s"], total["macromodel.steps"], 1e6)
    m["mpc.cache_hit_frac"] = (
        1.0 - _ratio(total["mpc.solver_macro_calls"], total["mpc.evaluations"])
        if total["mpc.evaluations"] else 0.0
    )
    m["mpc.evals_per_s"] = _ratio(total["mpc.evaluations"], total["mpc.solve_s"])
    return m
