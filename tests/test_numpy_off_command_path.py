"""numpy stays off the command path: the commands compute on plain floats,
and only the photon-mode oracle, the Monte Carlo sampler and
:mod:`qrepeater.exact` load numpy.  Nor does any command, or importing the
package and building the CLI parser, load ``dataclasses`` or ``inspect``:
the records are named tuples.  No command loads ``numbers`` either: the
seed and trial checks use ``operator.index``.  Each case runs in a fresh
interpreter, because once a module is imported it stays in
``sys.modules``."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrepeater import cli
from qrepeater.cli import main
from qrepeater.config import RunConfig
from qrepeater.protocol import monte_carlo_time

ROOT = Path(__file__).resolve().parents[1]

#: Runs ``cli.main`` on its arguments with output captured, then prints the
#: exit code and whether numpy, dataclasses, inspect and numbers were ever
#: imported.
RUN_MAIN = """
import contextlib, io, sys
from qrepeater import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *(name in sys.modules for name in ("numpy", "dataclasses", "inspect", "numbers")))
"""


def fresh_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.cache
def run_main(*argv):
    """RUN_MAIN's printed words for ``argv``, one fresh interpreter per argv."""
    return tuple(fresh_python(RUN_MAIN, *argv).split())


#: (argv, exit code) of commands that must run without numpy.
COMMANDS = [
    (["headline"], 0),
    (["simulate"], 0),
    (["fixed-point"], 0),
    (["fixed-point", "--axis", "m=1,2"], 0),
    (["sweep", "--axis", "f0=0.98,1.0"], 0),
    (["sweep", "--axis", "l0_km=20,5000"], 0),
    (["link"], 0),
    (["simulate", "--print-config"], 0),
    (["--help"], 0),
    (["headline", "--distance-km", "-1"], 2),
]


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_never_imports_numpy(argv, code):
    assert run_main(*argv)[:2] == (str(code), "False")


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_never_imports_dataclasses_or_inspect(argv, code):
    assert run_main(*argv)[2:4] == ("False", "False")


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_never_imports_numbers(argv, code):
    assert run_main(*argv)[4:] == ("False",)


def test_cases_run_every_command():
    assert {argv[0] for argv, _ in COMMANDS} >= set(cli.COMMANDS)


def test_import_and_parser_never_import_dataclasses_or_inspect():
    # The benchmark's set-up window: import the package, build the parser.
    child = fresh_python(
        "import sys\n"
        "import qrepeater\n"
        "from qrepeater.cli import build_parser\n"
        "build_parser()\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    assert child.split() == ["False", "False"]


def test_link_oracle_is_a_first_numpy_user(capsys):
    argv = ["link", "--oracle", "--trials", "2000", "--seed", "3"]
    child = fresh_python(
        "import sys\nfrom qrepeater import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert 'numpy' in sys.modules\n"
        "sys.exit(code)\n",
        *argv,
    )
    assert main(argv) == 0
    assert child == capsys.readouterr().out


def test_monte_carlo_time_is_a_first_numpy_user():
    child = fresh_python(
        "import sys\n"
        "from qrepeater.config import RunConfig\n"
        "from qrepeater.protocol import monte_carlo_time\n"
        "assert 'numpy' not in sys.modules\n"
        "dist = monte_carlo_time(RunConfig(target_span=7).protocol_config(), 5, 300)\n"
        "print(repr(dist.mean), repr(dist.std), repr(dist.quantiles))\n"
    )
    dist = monte_carlo_time(RunConfig(target_span=7).protocol_config(), 5, 300)
    assert child == f"{dist.mean!r} {dist.std!r} {dist.quantiles!r}\n"
