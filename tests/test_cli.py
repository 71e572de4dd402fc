import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from calogero import cli, laxdyn, suites
from calogero.cli import main
from calogero.exactalg import EXPONENT_LIMIT, Permutation

LOOP3 = {"N": 3, "margin": 0.1,
         "waypoints": [[0.0, 1.0, 2.0], [0.3, 1.2, 2.5],
                       [-0.2, 0.9, 2.1], [0.0, 1.0, 2.0]]}
LOOP4 = {"N": 4, "margin": 0.1,
         "waypoints": [[0.0, 1.0, 2.0, 3.0], [0.2, 1.1, 2.3, 3.1],
                       [-0.1, 0.9, 2.1, 3.2], [0.0, 1.0, 2.0, 3.0]]}
LOOP5 = {"N": 5, "margin": 0.1,
         "waypoints": [[0.0, 1.0, 2.0, 3.0, 4.0], [0.05, 1.02, 2.03, 3.0, 4.01],
                       [0.0, 1.0, 2.0, 3.0, 4.0]]}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_zero_curvature_case_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--deg", "2",
                               "--suite", "zerocurv")
        report = json.loads(out)
        assert code == 0
        assert report["failureCount"] == 0
        assert report["suites"][0]["caseCount"] == 6

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--deg", "3")
        report = json.loads(out)
        assert code == 0
        assert {s["identity"] for s in report["suites"]} == {
            "zero-curvature", "intertwining", "sum-of-squares",
            "permutation-relations", "restriction-coefficients"}

    def test_n_below_two_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "1")
        assert code == 2

    def test_deterministic_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "verify", "--n", "2", "--deg", "2", "--out", str(a))
        run_cli(capsys, "verify", "--n", "2", "--deg", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suite", [
        "zerocurv", "intertwine", "sumsq", "permrel", "restriction"])
    def test_worker_pool_gives_same_report(self, capsys, suite):
        # deg 3 at N=3 reaches the Vandermonde, so restriction also runs
        # antisymmetric cases
        _, solo, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "3",
                             "--suite", suite)
        code, pooled, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "3",
                                  "--suite", suite, "--workers", "2")
        assert code == 0
        assert json.loads(pooled)["config"]["workers"] == 2
        assert json.loads(solo)["suites"] == json.loads(pooled)["suites"]

    def test_one_pool_serves_every_suite(self, capsys, monkeypatch):
        built = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        # worker_pool imports the pool class from concurrent.futures when it builds one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
        _, solo, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "3")
        code, pooled, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "3",
                                  "--workers", "2")
        assert code == 0
        assert built == [{"max_workers": 2}]
        report = json.loads(pooled)
        assert report["config"]["workers"] == 2
        report["config"]["workers"] = 1
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == solo

    def test_serial_runs_build_no_pool(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a serial run built a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        assert suites.restriction_suite(3, 3)["failures"] == []
        for name in suites.SUITE_NAMES:
            assert suites.run_suite(name, 2, 2)["failures"] == []
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--deg", "2",
                               "--suite", "all", "--workers", "1")
        assert code == 0
        assert json.loads(out)["failureCount"] == 0

    @pytest.mark.parametrize("suite", ["intertwine", "permrel"])
    def test_warm_suites_build_no_transposition(self, capsys, monkeypatch, suite):
        # every swap comes from the one cached table, not a constructor call per case
        argv = ("verify", "--n", "3", "--deg", "2", "--suite", suite)
        assert run_cli(capsys, *argv)[0] == 0
        built = []
        make = Permutation.transposition
        monkeypatch.setattr(Permutation, "transposition",
                            classmethod(lambda cls, *args: built.append(args) or make(*args)))
        assert run_cli(capsys, *argv)[0] == 0
        assert built == []

    @pytest.mark.parametrize("args", [
        ["--workers", "0"], ["--workers=-3"], ["--workers", "two"], ["--workers", "1.5"],
    ])
    def test_bad_worker_count_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--deg", "1", *args)
        assert code == 2
        assert out == "" and "Traceback" not in err


    @pytest.mark.parametrize("cpus, refused, accepted", [(2, "3", "2"), (None, "2", "1")])
    def test_workers_above_the_cpu_count_are_refused(self, capsys, monkeypatch,
                                                     cpus, refused, accepted):
        # every worker is forked at once, so a count past the CPUs is refused
        # at parse time; no process is started here
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--deg", "1",
                                 "--workers", refused)
        assert code == 2
        assert out == "" and f"must be at most {cpus or 1}" in err
        args = cli.build_parser().parse_args(["verify", "--n", "2", "--deg", "1",
                                              "--workers", accepted])
        assert args.workers == int(accepted)

    def test_n_past_the_cap_is_refused_before_any_suite(self, capsys, monkeypatch):
        calls = []
        run_suite = cli.run_suite
        monkeypatch.setattr(cli, "run_suite", lambda *args: calls.append(args) or run_suite(*args))
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--deg", "1", "--suite", "permrel")
        assert code == 0 and json.loads(out)["failureCount"] == 0
        assert len(calls) == 1
        code, out, err = run_cli(capsys, "verify", "--n", "6", "--deg", "1")
        assert code == 2
        assert out == "" and "must be at most 5" in err
        assert len(calls) == 1


class TestTransportCommand:
    def test_closed_loop_holonomy(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, _ = run_cli(capsys, "transport", "--path", str(path),
                               "--p", "1/2,-1/3,1/4", "--c", "1")
        report = json.loads(out)
        assert code == 0
        assert report["holonomyDeviation"] <= 1e-8
        assert report["N"] == 3 and report["c"] == "1"
        assert len(report["matrix"]) == 6 and len(report["matrix"][0][0]) == 2

    def test_dyson_comparison_field(self, capsys, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text(json.dumps({"N": 3, "margin": 0.1,
                                    "waypoints": [[0.0, 1.0, 2.0], [0.3, 1.2, 2.5]]}))
        code, out, _ = run_cli(capsys, "transport", "--path", str(path),
                               "--p", "1/2,-1/3,1/4", "--compare-dyson", "8", "400")
        report = json.loads(out)
        assert code == 0
        assert report["dysonComparison"]["deviation"] <= 1e-6
        assert report["holonomyDeviation"] is None

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2")
        assert code == 2
        assert "malformed" in err

    def test_margin_violation_exits_three(self, capsys, tmp_path):
        path = tmp_path / "tight.json"
        path.write_text(json.dumps({"N": 2, "margin": 0.5, "waypoints": [[0.0, 0.1]]}))
        code, _, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2")
        assert code == 3
        assert "margin" in err

    def test_n_above_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"N": 6, "margin": 0.1,
                                    "waypoints": [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]}))
        code, out, err = run_cli(capsys, "transport", "--path", str(path),
                                 "--p", "1,2,3,4,5,6")
        assert code == 2
        assert out == "" and "cap" in err and "Traceback" not in err

    def test_one_coordinate_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"N": 1, "margin": 0.1, "waypoints": [[0.0], [1.0]]}))
        code, out, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1")
        assert code == 2
        assert out == "" and "two coordinates" in err and "Traceback" not in err

    @pytest.mark.parametrize("data", [
        {"N": 2, "waypoints": []},
        {"N": 2, "margin": 0, "waypoints": [[0.0, 1.0]]},
        {"N": 2.7, "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": "2", "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": 2, "margin": "0.1", "waypoints": [[0.0, 1.0]]},
        {"N": 2, "margin": 0.1, "waypoints": [[0.0, 1.0], [0.0, 1.0, 2.0]]},
    ])
    def test_malformed_path_is_usage_error(self, capsys, tmp_path, data):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2")
        assert code == 2
        assert out == "" and "Traceback" not in err

    def test_margin_too_large_for_a_float_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "margin.json"
        path.write_text('{"N": 2, "margin": 1%s, "waypoints": [[0.0, 1.0]]}' % ("0" * 400))
        code, out, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2")
        assert code == 2
        assert out == "" and "too large" in err and "Traceback" not in err

    def test_momentum_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text(json.dumps({"N": 2, "margin": 0.1,
                                    "waypoints": [[0.0, 1.0]]}))
        code, _, _ = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"N": 2, "margin": NaN, "waypoints": [[0.0, 1.0]]}',
        '{"N": 2, "margin": 0.1, "waypoints": [[0.0, Infinity]]}',
        '{"N": 2, "margin": 0.1, "waypoints": [[-Infinity, 1.0]]}',
    ])
    def test_non_finite_json_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "transport", "--path", str(path), "--p", "1,2")
        assert code == 2
        assert "non-finite" in err

    def test_values_may_start_with_minus(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, _ = run_cli(capsys, "transport", "--path", str(path),
                               "--p", "-1/2,1/3,1/4", "--c", "-1/2")
        report = json.loads(out)
        assert code == 0
        assert report["p"] == ["-1/2", "1/3", "1/4"] and report["c"] == "-1/2"

    @pytest.mark.parametrize("args", [
        ["--tol", "nan"], ["--tol", "0"], ["--tol", "inf"], ["--tol", "-1e-10"],
        ["--compare-dyson", "abc", "400"], ["--compare-dyson", "0", "400"],
        ["--compare-dyson", "8", "-5"], ["--compare-dyson", "8", "1.5"],
    ])
    def test_bad_tolerance_or_series_size_is_usage_error(self, capsys, tmp_path, args):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, err = run_cli(capsys, "transport", "--path", str(path),
                                 "--p", "1/2,-1/3,1/4", *args)
        assert code == 2
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("steps", ["1000000000", "9" * 400])
    def test_dyson_grid_above_memory_bound_is_usage_error(self, capsys, tmp_path, steps):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, err = run_cli(capsys, "transport", "--path", str(path),
                                 "--p", "1/2,-1/3,1/4", "--compare-dyson", "8", steps)
        assert code == 2
        assert out == "" and "MiB bound" in err

    @pytest.mark.parametrize("args", [
        ["--p=1,0,-1", "--c=1e400"], ["--p=1,0,-1e400"],
    ])
    def test_value_whose_float_overflows_is_usage_error(self, capsys, tmp_path, args):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, err = run_cli(capsys, "transport", "--path", str(path), *args)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "too large" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("c", ["1e6", "1e10", "1e300"])
    def test_coupling_that_overflows_the_frame_is_usage_error(self, capsys, tmp_path, c,
                                                              recwarn):
        # the path is fine: the transported frame overflows, and numpy's
        # overflow warnings stay silent
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, err = run_cli(capsys, "transport", "--path", str(path),
                                 "--p=1,0,-1", f"--c={c}")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "too large" in err
        assert "RuntimeWarning" not in err and "chamber" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "transport",
                             "--path", str(tmp_path / "none.json"), "--p", "1,2")
        assert code == 2

    def test_prefactor_option_is_gone(self, capsys, tmp_path):
        # the connection depends on c only through this coefficient, so the
        # coupling has one option
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(LOOP3))
        code, out, _ = run_cli(capsys, "transport", "--path", str(path),
                               "--p", "1/2,-1/3,1/4", "--prefactor", "2")
        assert code == 2 and out == ""


class TestSimulateCommand:
    def test_benchmark_run(self, capsys, tmp_path):
        csv_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(capsys, "simulate", "--x", "0,1,3", "--p", "1,0,-1",
                               "--t", "0.5", "--dt", "1e-3", "--csv", str(csv_file))
        report = json.loads(out)
        assert code == 0
        assert report["withinTolerance"] is True
        assert report["maxDrift"]["I3"] <= 1e-8
        assert csv_file.exists()

    @pytest.mark.parametrize("g2", ["0.5", "2", "4"])
    def test_trace_invariants_conserved_at_any_coupling(self, capsys, g2):
        # the Lax matrix carries g = sqrt(g2); with i/(x_j - x_k) off its
        # diagonal the I_j drift by 1.14-3.59 at g2 = 4
        code, out, _ = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                               "--t", "1", "--dt", "1e-3", "--g2", g2)
        report = json.loads(out)
        assert code == 0
        assert report["traceInvariantsChecked"] is True
        assert max(report["maxDrift"].values()) <= 1e-8

    def test_free_flight(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--x", "0,1", "--p", "0.5,1",
                               "--g2", "0", "--t", "1", "--dt", "1e-3")
        report = json.loads(out)
        assert code == 0
        # with no force the momenta never change, so every trace is exact
        assert report["traceInvariantsChecked"] is True
        assert report["maxDrift"] == {"H": 0.0, "I1": 0.0, "I2": 0.0, "I3": 0.0, "I4": 0.0}

    def test_positions_and_momenta_may_start_with_minus(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--x", "-1,0,1", "--p", "-0.5,0,0.5",
                               "--t", "0.1", "--dt", "1e-3")
        report = json.loads(out)
        assert code == 0
        assert report["config"]["x"] == [-1.0, 0.0, 1.0]
        assert report["config"]["p"] == [-0.5, 0.0, 0.5]

    def test_unordered_initial_positions(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--x", "1,0", "--p", "0,0")
        assert code == 2
        assert "increasing" in err

    def test_collision_exits_four(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--x=-1,1", "--p", "2,-2",
                               "--g2", "0", "--t", "2", "--dt", "1e-3")
        assert code == 4
        assert "collision" in err

    def test_overflow_to_non_finite_state_exits_four(self, capsys):
        # the first force overflows to inf, so the step leaves inf/NaN positions
        code, out, err = run_cli(capsys, "simulate", "--x=0,1e-200,1", "--p=0,0,0",
                                 "--t=0.01", "--dt=1e-3")
        assert code == 4
        assert out == "" and "collision" in err

    @pytest.mark.parametrize("args", [
        ["--g2=nan"], ["--g2=inf"], ["--omega=nan", "--g2=0"], ["--omega=inf"],
        ["--x=nan,1,3"], ["--x=0,1,inf"], ["--p=1,-inf,-1"],
    ])
    def test_non_finite_state_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t=0.01", "--dt=1e-3", *args)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("args", [
        ["--dt", "0"], ["--dt", "nan"], ["--dt=-1e-3"], ["--t", "inf"], ["--t", "0"],
        ["--jmax", "0"], ["--sample-stride", "0"], ["--sample-stride=-5"],
        ["--drift-tol", "nan"], ["--drift-tol=-1e-8"], ["--energy-tol=-1"],
        ["--energy-tol", "inf"],
    ])
    def test_bad_duration_step_or_counts_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t=0.01", "--dt=1e-3", *args)
        assert code == 2
        assert out == "" and "Traceback" not in err

    def test_omega_with_infinite_square_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t=0.01", "--dt=1e-3", "--omega=1e200")
        assert code == 2
        assert out == "" and "omega" in err and "Traceback" not in err

    def test_step_count_beyond_a_float_is_usage_error(self, capsys):
        # duration / dt overflows to inf although both values are finite
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t", "1e300", "--dt", "1e-10")
        assert code == 2
        assert out == "" and "step count" in err

    def test_step_count_above_cap_is_usage_error(self, capsys, monkeypatch):
        # finite, but 10^303 steps: refused before the first step
        def refuse_to_step(*args):
            raise AssertionError("simulate started stepping")

        monkeypatch.setattr(laxdyn, "_step_blocks", refuse_to_step)
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t", "1e300", "--dt", "1e-3")
        assert code == 2
        assert out == "" and "MAX_STEPS" in err and "Traceback" not in err

    def test_duration_of_zero_steps_is_usage_error(self, capsys):
        # t / dt = 1e-5 rounds to no step at all
        code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                                 "--t", "1e-9", "--dt", "1e-4")
        assert code == 2
        assert out == "" and "zero steps" in err and "Traceback" not in err

    def test_zero_tolerances_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1",
                               "--t=0.01", "--dt=1e-3", "--drift-tol=0", "--energy-tol=0")
        report = json.loads(out)
        assert code in (0, 1)
        assert report["config"]["driftTol"] == 0.0 and report["config"]["energyTol"] == 0.0


class TestReportBytes:
    """Each report is the canonical ``json.dumps(indent=2, sort_keys=True)``
    encoding and the same bytes on every run, so a faster encoder can be
    checked against it."""

    @pytest.mark.parametrize("argv", [
        ["transport", "--path", "{loop3}", "--p", "1/2,-1/3,1/4", "--c", "1"],
        ["transport", "--path", "{loop4}", "--p", "1/2,-1/3,1/4,1", "--c", "1",
         "--compare-dyson", "2", "20"],
        ["transport", "--path", "{loop5}", "--p", "1/2,-1/3,1/4,1,-1", "--c", "1"],
        ["simulate", "--x", "0,1,3", "--p", "1,0,-1", "--t", "0.05", "--dt", "1e-3"],
        ["symbols", "--n", "2", "--deg", "3"],
    ], ids=["transport", "transport-n4-dyson", "transport-n5", "simulate", "symbols"])
    def test_deterministic_canonical_bytes(self, capsys, tmp_path, argv):
        loops = {}
        for name, data in (("loop3", LOOP3), ("loop4", LOOP4), ("loop5", LOOP5)):
            loops[name] = tmp_path / f"{name}.json"
            loops[name].write_text(json.dumps(data))
        argv = [arg.format(**loops) for arg in argv]
        runs = []
        for name in ("a.json", "b.json"):
            code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
            assert code == 0
            runs.append((tmp_path / name).read_bytes())
        assert runs[0] == runs[1]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == runs[0]
        text = runs[0].decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


FINITE_SPECIALS = [-0.0, 5e-324, 1e-7, 1e16, 1e22, 1 / 3]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _matrix_with(d: int, values: list) -> np.ndarray:
    """A random complex d x d matrix whose first float parts, real and
    imaginary in row order, are ``values``."""
    rng = np.random.default_rng(d)
    parts = rng.standard_normal(2 * d * d)
    parts[:len(values)] = values
    m = np.empty((d, d), dtype=complex)
    m.real = parts[0::2].reshape(d, d)
    m.imag = parts[1::2].reshape(d, d)
    return m


class TestMatrixWriter:
    """The transport matrix is written without ``json``; its bytes must be
    those ``json.dumps(indent=2, sort_keys=True)`` gives the nested
    ``[re, im]`` lists, non-finite values and the splice included."""

    @pytest.mark.parametrize("d", [2, 24, 120])
    @pytest.mark.parametrize("values", [
        FINITE_SPECIALS, NON_FINITE + FINITE_SPECIALS[:5],
    ], ids=["finite", "non-finite"])
    @pytest.mark.parametrize("path", ["loop.json", 'x\n  "matrix": null\n  "y'])
    def test_bytes_equal_json_dumps(self, d, values, path):
        m = _matrix_with(d, values)
        parts = np.stack([m.real, m.imag], axis=-1).ravel()
        np.testing.assert_array_equal(parts[:len(values)], values)
        report = {
            "schemaVersion": 1, "command": "transport",
            "config": {"path": path, "tol": 1e-10}, "method": "dp45", "N": 3,
            "p": ["1/2"], "c": "1", "holonomyDeviation": None,
            "stepStats": {"accepted": 3}, "dysonComparison": {"order": 2},
        }
        nested = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        expected = json.dumps({**report, "matrix": nested}, indent=2, sort_keys=True) + "\n"
        assert cli._report_text({**report, "matrix": m}) == expected


class TestSymbolsCommand:
    def test_report_and_terms(self, capsys):
        code, out, _ = run_cli(capsys, "symbols", "--n", "2", "--deg", "4",
                               "--order", "1")
        report = json.loads(out)
        assert code == 0
        matches = {name: entry["matchesSwap"]
                   for name, entry in report["realizations"]["realizations"].items()}
        assert all(matches.values())
        assert {"flip-left", "flip-right", "flip-left-reversed",
                "normal-ordered-series", "quantized-symbol"} <= set(matches)
        assert {"xExponents", "pExponents", "coefficient"} == set(report["symbolTerms"][0])

    def test_bad_indices(self, capsys):
        code, _, _ = run_cli(capsys, "symbols", "--n", "2", "--j", "0", "--k", "0")
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--deg", "-1"], ["--order", "-1"], ["--deg=-3"],
    ])
    def test_negative_degree_or_order_is_usage_error(self, capsys, args):
        code, out, err = run_cli(capsys, "symbols", "--n", "2", *args)
        assert code == 2
        assert out == "" and "Traceback" not in err

    def test_order_at_the_exponent_limit_is_usage_error(self, capsys):
        # the symbol's x exponents reach the order, and a packed key holds
        # exponents below EXPONENT_LIMIT only
        code, out, err = run_cli(capsys, "symbols", "--n", "2", "--deg", "1",
                                 "--order", str(EXPONENT_LIMIT))
        assert code == 2
        assert out == "" and "limit" in err and "Traceback" not in err

    def test_zero_degree_and_order_are_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "symbols", "--n", "2", "--deg", "0", "--order", "0")
        report = json.loads(out)
        assert code == 0
        assert report["realizations"]["caseCount"] == 1
        assert len(report["symbolTerms"]) == 1

    @pytest.mark.parametrize("argv, digest", [
        (["--n=3", "--deg=4", "--order=2"],
         "9f3f6223b8bdb409af727485967692d46cba49502af9ac896e0cb2876b6558c8"),
        (["--n=4", "--deg=3", "--j=1", "--k=3", "--order=6"],
         "49ea139d1e9c2f76f8c5b6ffca9455da82ec59c16f318c57e983b8218f63410f"),
        (["--n=2", "--deg=0", "--order=5"],
         "8ed3a24bb318c6ab8ac8c951b1d9c59b7a8fdeeaeda80ab898ee24a60150ea45"),
    ])
    def test_order_apart_from_degree_keeps_its_bytes(self, capsys, argv, digest):
        # the benchmark pins cover only --order equal to --deg
        code, out, _ = run_cli(capsys, "symbols", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _refuse_to_run(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran before its output file was refused")

    for name in ("run_suite", "transport_ode", "integrate", "realization_report"):
        monkeypatch.setattr(cli, name, ran)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--deg", "1", "--suite", "zerocurv", "--out"],
    ["transport", "--path", "LOOP3", "--p", "1/2,-1/3,1/4", "--out"],
    ["simulate", "--x=0,1,3", "--p=1,0,-1", "--t=0.01", "--dt=1e-3", "--out"],
    ["simulate", "--x=0,1,3", "--p=1,0,-1", "--t=0.01", "--dt=1e-3", "--csv"],
    ["symbols", "--n", "2", "--deg", "1", "--out"],
])
def test_output_in_missing_directory_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(LOOP3))
    argv = [str(loop) if a == "LOOP3" else a for a in argv]
    _refuse_to_run(monkeypatch)
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "none" / "report"))
    assert code == 2
    assert out == "" and "Traceback" not in err and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["transport", "--path", "LOOP3", "--p", "1/2,-1/3,1/4", "--out"],
    ["simulate", "--x=0,1,3", "--p=1,0,-1", "--t=0.01", "--dt=1e-3", "--csv"],
])
def test_output_that_is_a_directory_is_refused_before_the_run(capsys, tmp_path, monkeypatch,
                                                              argv):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(LOOP3))
    argv = [str(loop) if a == "LOOP3" else a for a in argv]
    _refuse_to_run(monkeypatch)
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == "" and "Traceback" not in err and err.startswith("error: ")


def test_refused_report_leaves_no_csv(capsys, tmp_path):
    csv_file = tmp_path / "t.csv"
    code, out, err = run_cli(capsys, "simulate", "--x=0,1,3", "--p=1,0,-1", "--t=0.01",
                             "--dt=1e-3", "--csv", str(csv_file),
                             "--out", str(tmp_path / "nodir" / "r.json"))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert not csv_file.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


COMMANDS = ("verify", "transport", "simulate", "symbols")


def _parse_with(parser, capsys, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, which
    exits on help and usage errors."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestOneCommandParser:
    """``main`` builds only the options of the command it runs; everything it
    prints must read as the fully built parser's output."""

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert all(name in out for name in COMMANDS)
        assert (code, out) == _parse_with(cli.build_parser(), capsys, ["--help"])[:2]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out == _parse_with(cli.build_parser(), capsys, [command, "--help"])[1]

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "2"], ["transport", "--path", "p.json", "--p", "0,0"],
        ["simulate", "--x", "0,1", "--p", "0,0"], ["symbols"],
    ])
    def test_usage_error_reads_as_the_full_parsers(self, capsys, argv):
        # an unknown option is reported with the top-level usage line
        argv = argv + ["--no-such-option"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "{verify,transport,simulate,symbols}" in err
        assert (code, out, err) == _parse_with(cli.build_parser(), capsys, argv)

    def test_one_command_parser_holds_only_its_options(self):
        parser = cli.build_parser("symbols")
        args = parser.parse_args(["symbols", "--j", "1", "--k", "0"])
        assert args.func is cli.cmd_symbols
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--n", "2"])

    def test_unknown_command_is_invalid_choice(self, capsys):
        code, out, err = run_cli(capsys, "bogus")
        assert code == 2 and out == ""
        assert "invalid choice: 'bogus'" in err

    def test_empty_argv_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 2 and out == ""
        assert "required" in err

    def test_command_function_is_read_when_the_parser_is_built(self, capsys, monkeypatch):
        # a replaced module global is the one that runs, as for a wrapper
        calls = []
        monkeypatch.setattr(cli, "cmd_symbols", lambda args: calls.append(args.n) or 0)
        assert main(["symbols", "--n", "3"]) == 0
        assert calls == [3]
