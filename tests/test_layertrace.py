"""The benchmark's layer tracer must see every suite, Dunkl, symbol, transport
and Lax step function that its per-function metrics name.

The tracer wraps functions by patching module attributes, so a call that
bypasses the module-level name (a dispatch table built at import time, say)
would leave a metric silently at zero.  The tracer is read from
``perfbench/layertrace.py`` without importing it as a file, so no bytecode
is written next to it."""

import json
import pathlib
import types

import calogero.cli
from calogero.suites import SUITE_NAMES

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace() -> types.ModuleType:
    module = types.ModuleType("layertrace")
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"),
         module.__dict__)
    return module


def test_count_tracer_sees_every_suite_and_dunkl_metric(capsys):
    layertrace = _layertrace()
    tracer = layertrace.CountTracer()
    tracer.install()
    try:
        codes = [calogero.cli.main(["verify", "--n=2", "--deg=1", f"--suite={suite}",
                                    "--workers=1"])
                 for suite in SUITE_NAMES]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(SUITE_NAMES)
    calls = dict(zip(tracer.names, tracer.calls))
    watched = {name for name, _ in layertrace._FUNCTION_METRICS.values()
               if name.split(".", 1)[0] in ("suites", "dunkl")}
    assert len(watched) == 9
    assert [name for name in sorted(watched) if calls.get(name, 0) == 0] == []
    assert tracer.counters["suites.cases"] > 0


def test_count_tracer_sees_every_symbolcalc_metric(capsys):
    layertrace = _layertrace()
    tracer = layertrace.CountTracer()
    tracer.install()
    try:
        code = calogero.cli.main(["symbols", "--n=2", "--deg=2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = dict(zip(tracer.names, tracer.calls))
    watched = {name for name, _ in layertrace._FUNCTION_METRICS.values()
               if name.startswith("symbolcalc.")}
    assert watched == {"symbolcalc.permutation_series", "symbolcalc.quantize_apply",
                       "symbolcalc.apply_shift_word"}
    assert [name for name in sorted(watched) if calls.get(name, 0) == 0] == []


def test_count_tracer_sees_every_lax_step(capsys):
    # laxdyn.steps counts calls of the one RK4 step function
    layertrace = _layertrace()
    tracer = layertrace.CountTracer()
    tracer.install()
    try:
        code = calogero.cli.main(["simulate", "--x=0,1,3", "--p=1,0,-1", "--t=0.01",
                                  "--dt=1e-3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = dict(zip(tracer.names, tracer.calls))
    assert layertrace._FUNCTION_METRICS["laxdyn.steps"] == ("laxdyn._rk4_step", "calls")
    assert calls["laxdyn._rk4_step"] == 10
    assert calls["laxdyn.integrate"] == 1
    # laxdyn.PhasePoint.calls counts the constructor, the one place a state
    # is validated
    assert calls["laxdyn.PhasePoint.__init__"] == 1


def test_count_tracer_sees_transport(capsys, tmp_path):
    # transport.ode_steps comes from a result hook on transport_ode, so it
    # must equal the step count the report states
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"N": 3, "margin": 0.1,
                                "waypoints": [[0.0, 1.0, 2.0], [0.3, 1.2, 2.5],
                                              [-0.2, 0.9, 2.1], [0.0, 1.0, 2.0]]}))
    layertrace = _layertrace()
    tracer = layertrace.CountTracer()
    tracer.install()
    try:
        code = calogero.cli.main(["transport", f"--path={loop}", "--p=1/2,-1/3,1/4",
                                  "--compare-dyson", "2", "20"])
    finally:
        tracer.uninstall()
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    calls = dict(zip(tracer.names, tracer.calls))
    for name in ("transport.transport_ode", "transport.transport_dyson",
                 "transport.build_local_system"):
        assert calls[name] == 1, name
    assert report["stepStats"]["steps"] > 0
    assert tracer.counters["transport.ode_steps"] == report["stepStats"]["steps"]
