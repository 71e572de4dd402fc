"""Cheap exact reports must keep the bytes pinned in ``perfbench/pins.json``.

The pins are read, never written; each job runs through ``cli.main`` with
the argv the benchmark's workloads use, and its report's sha256 and case
counts are compared with the pin."""

import hashlib
import json
import pathlib

import pytest

from calogero.cli import main
from calogero.suites import SUITE_NAMES

PINS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

# key -> argv, as the benchmark builds them
JOBS = {
    "symbols/2/6/0/1": ["symbols", "--n=2", "--deg=6", "--j=0", "--k=1"],
    "symbols/3/6/0/2": ["symbols", "--n=3", "--deg=6", "--j=0", "--k=2"],
    "symbols/4/5/0/3": ["symbols", "--n=4", "--deg=5", "--j=0", "--k=3"],
    **{f"verify/{n}/3/{suite}": ["verify", f"--n={n}", "--deg=3", f"--suite={suite}",
                                 "--workers=1"]
       for n in (2, 3) for suite in SUITE_NAMES},
}

# sha256 of the stdout of ``calogero verify --n 4 --deg 2`` (all suites), the
# one pinned report at N=4
VERIFY_N4_DEG2 = "172d8399b719c16e9315c5d0e4dde683ded09dad8ab9219938dc16074e71b69d"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(JOBS))
def test_report_matches_pin(capsys, pins, key):
    code = main(JOBS[key])
    text = capsys.readouterr().out
    report = json.loads(text)
    assert code == 0
    if key.startswith("verify/"):
        counts = [suite["caseCount"] for suite in report["suites"]]
    else:
        counts = report["realizations"]["caseCount"]
    assert counts == pins[key]["caseCount"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pins[key]["sha256"]


def test_verify_n4_report_matches_digest(capsys):
    code = main(["verify", "--n", "4", "--deg", "2"])
    text = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == VERIFY_N4_DEG2
