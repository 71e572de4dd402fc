"""Import contract: ``import calogero.cli`` loads every layer module but
neither numpy nor ``concurrent.futures`` (the process pool), and none of
``dataclasses``, ``inspect`` and ``csv``; the exact commands load neither
numpy nor the pool, and the numerical ones bind each module's ``np`` to
numpy itself on first use.

Each check runs in a fresh interpreter, since the test process has long
imported numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import calogero

LAYERS = ("cli", "suites", "dunkl", "exactalg", "symbolcalc", "transport", "laxdyn")
LOOP3 = {"N": 3, "margin": 0.1,
         "waypoints": [[0.0, 1.0, 2.0], [0.3, 1.2, 2.5],
                       [-0.2, 0.9, 2.1], [0.0, 1.0, 2.0]]}


def run_fresh(source: str, *argv: str):
    """Run ``source`` in a new interpreter that imports this checkout's
    package, and return the JSON it prints last."""
    src = str(Path(calogero.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_every_layer_but_not_numpy_or_the_pool():
    loaded = run_fresh(
        "import json, sys\n"
        "import calogero.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "numpy" not in loaded
    assert "concurrent.futures" not in loaded
    # records are NamedTuples or small classes; only ``simulate --csv``
    # imports csv
    assert [name for name in ("dataclasses", "inspect", "csv") if name in loaded] == []
    # the benchmark's layer tracer reads these right after the import
    assert all(f"calogero.{name}" in loaded for name in LAYERS)


def test_exact_commands_leave_numpy_unloaded():
    seen = run_fresh(
        "import contextlib, io, json, sys\n"
        "from calogero.cli import main\n"
        "seen = {}\n"
        "for argv in (['verify', '--n', '3', '--deg', '2', '--suite', 'all'],\n"
        "             ['symbols', '--n', '2', '--deg', '3', '--order', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen[argv[0]] = [code, 'numpy' in sys.modules,\n"
        "                     'concurrent.futures' in sys.modules]\n"
        "print(json.dumps(seen))\n")
    assert seen == {"verify": [0, False, False], "symbols": [0, False, False]}


def test_numerical_commands_bind_numpy_itself(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP3))
    bound = run_fresh(
        "import contextlib, io, json, sys\n"
        "from calogero import cli, laxdyn, transport\n"
        "codes = []\n"
        "for argv in (['simulate', '--x=0,1,3', '--p=1,0,-1', '--t=0.01', '--dt=1e-3'],\n"
        "             ['transport', '--path', sys.argv[1], '--p', '1/2,-1/3,1/4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "import numpy\n"
        "print(json.dumps([codes] + [m.np is numpy for m in (laxdyn, transport, cli)]))\n",
        str(path))
    assert bound == [[0, 0], True, True, True]
