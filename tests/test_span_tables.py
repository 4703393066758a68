"""Every command's table: ``link`` and ``headline`` read one row, and
``simulate`` and ``fixed-point`` one row per span, from the same column
table as ``sweep`` and ``fixed-point --axis``.

``SPAN_TABLE_BYTES`` holds the exit code, the SHA-256 digest of stdout
(None for none) and stderr of each command, recorded from separate
``qrepeater`` processes: the ``simulate`` and ``fixed-point`` entries at
commit 11d0378, where each command still walked its spans on its own, and
the ``headline`` and ``link`` entries at 74f73b1, where both still computed
their numbers in the CLI; a first failing span must keep its message.
"""

import csv
import hashlib
import io

import pytest

from qrepeater import cli
from qrepeater.analysis import table
from qrepeater.cli import main

UNPURIFIABLE = "--f0 0.0 --p 1 --eta 1 --attenuation-db-per-km 0 --p-em 0.1"
P_ZERO = "error: elementary link never succeeds (P = 0)\n"
BELOW_RESOLUTION = (
    "error: elementary link success probability P = 5.551e-17 is below float"
    " resolution (1 - P rounds to 1)\n"
)
UNPURIFIABLE_LEVEL_0 = (
    "error: unpurifiable pump step 3 at level 0: acceptance probability 0.000e+00\n"
)

SPAN_TABLE_BYTES = {
    "simulate --l0-km 5000": (2, None, P_ZERO),
    "fixed-point --l0-km 5000": (2, None, P_ZERO),
    "simulate --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "fixed-point --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "simulate --t0-s 1e200": (
        2, None, "error: expected time overflows a float at the elementary link\n"
    ),
    # Fixed points read states only, so a time that overflows is never read.
    "fixed-point --t0-s 1e200": (
        0, "0a35209a00251e099ae47b6b6157b3d387fdbcd9958489f3d1e8694d2922f361", ""
    ),
    f"simulate {UNPURIFIABLE}": (2, None, UNPURIFIABLE_LEVEL_0),
    f"fixed-point {UNPURIFIABLE}": (2, None, UNPURIFIABLE_LEVEL_0),
    # Span 1 pumps nothing; only the asymptote reaches the failing level.
    f"simulate {UNPURIFIABLE} --target-span 1": (
        0, "87bd909a57c39c34328c75e822df6a989bbe2c888c944dbc427515982b827e6c", ""
    ),
    f"fixed-point {UNPURIFIABLE} --target-span 1": (2, None, UNPURIFIABLE_LEVEL_0),
    "headline --l0-km 5000": (2, None, P_ZERO),
    "link --l0-km 5000": (2, None, P_ZERO),
    # The link's closed forms have no resolution check; only a time reads it.
    "headline --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "link --l0-km 1440": (
        0, "e7886f1a6ace56ed7233216efd62867358528c53587bcc6a8e87aed483f1f08e", ""
    ),
    "headline --t0-s 1e200": (
        2, None, "error: expected time overflows a float at the elementary link\n"
    ),
    "link --t0-s 1e200": (
        0, "f3520f6d8b6191c30e07b3fb0fe8c96d6cb36880882b5b972c936db0e722fe0b", ""
    ),
    # headline pumps once (m = 1), so step 3 is never reached; link builds no level.
    f"headline {UNPURIFIABLE}": (
        0, "11eaa3c642b4d16f8a543c016dfcec78405bb31a8112bd5632ca449a738cc11e", ""
    ),
    f"link {UNPURIFIABLE}": (
        0, "0cd8919162ebdedcae42d578d72523d9336475a89505f341a2fd53976bd839e1", ""
    ),
    # A pinned f0 leaves initial_fidelity at the link's closed form.
    "headline --f0 0.99": (
        0, "06f18e655fbe5b3a03b1b65c3fbfde59c97f006e220cb58ddc12280acaf76a02", ""
    ),
    "link --f0 0.99": (
        0, "7a49173a534814198c97363a2072b123e300a7ec8dfa2f0742bd8af845033ca7", ""
    ),
}


def run(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", sorted(SPAN_TABLE_BYTES))
def test_span_table_bytes_match_the_record(command, capsys):
    code, digest, err = SPAN_TABLE_BYTES[command]
    got_code, out, got_err = run(command, capsys)
    assert (got_code, got_err) == (code, err)
    if digest is None:
        assert out == ""
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def data_rows(text):
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def test_fixed_point_grid_reads_no_time(capsys):
    # A fixed-point grid prints no time, so a link whose time overflows
    # still gets its fixed point and asymptote: each row is the target
    # span's row of the same command without the grid.
    command = "fixed-point --axis m=1,2 --t0-s 1e200 --target-span 15"
    code, out, err = run(command, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5594577adecf507047def794212ec48c605fcc303b080f2753491a3230596688"
    )
    header, *rows = data_rows(out)
    assert header == ["m", "f_fp", "f_inf", "error"]
    for m, row in zip(("1", "2"), rows):
        code, single, _ = run(f"fixed-point --m {m} --t0-s 1e200", capsys)
        assert code == 0
        span_header, *span_rows = data_rows(single)
        assert span_header[2:] == ["f_fp", "f_inf"] and span_rows[-1][0] == "15"
        assert row == [m, *span_rows[-1][2:], ""]


@pytest.mark.parametrize("command", ["link", "simulate", "fixed-point", "headline"])
def test_p_zero_has_one_message(command, capsys):
    assert run(f"{command} --l0-km 5000", capsys) == (2, "", P_ZERO)


def test_sweep_row_reports_the_time_error_first(capsys):
    # A row reads its time first, so where both the time and the asymptote
    # fail the row reports the time's error, as before the columns were
    # read one by one.
    code, out, err = run(f"sweep --axis target_span=1,3 --t0-s 1e200 {UNPURIFIABLE}", capsys)
    assert (code, err) == (0, "")
    header, *rows = data_rows(out)
    assert [row[header.index("error")] for row in rows] == [
        "expected time overflows a float at the elementary link"
    ] * 2


#: One command of each kind, each of which prints one table.
TABLE_COMMANDS = [
    "link",
    "simulate",
    "fixed-point",
    "fixed-point --axis m=1,2",
    "sweep --axis m=1,2",
    "headline",
]


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_every_command_reads_one_table(command, monkeypatch, capsys):
    calls = []

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(cli, "table", spy)
    assert run(command, capsys)[0] == 0
    assert len(calls) == 1


def test_cli_computes_no_physics():
    for name in (
        "run_protocol", "fidelity", "channel_efficiency", "entangle_success_prob",
        "expected_link_time", "initial_fidelity",
    ):
        assert not hasattr(cli, name), name


def dict_rows(text):
    header, *rows = data_rows(text)
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize(
    "distance, flags",
    [("", ""), ("--distance-km 20000", "--p 0.995 --eta 0.995 --m 3"), ("--distance-km 20", "")],
)
def test_headline_is_the_last_row_of_simulate_and_the_link_row(distance, flags, capsys):
    code, out, _ = run(f"headline {distance} {flags}", capsys)
    assert code == 0
    [row] = dict_rows(out)
    # simulate and link take the headline's command defaults as flags, then
    # the same flags, at the span headline rounded to.
    defaults = " ".join(f"--{k.replace('_', '-')} {v}" for k, v in cli.HEADLINE_DEFAULTS.items())
    same = f"{defaults} {flags} --target-span {row['span_segments']}"
    code, out, _ = run(f"simulate {same}", capsys)
    assert code == 0
    last = dict_rows(out)[-1]
    assert last["span_segments"] == row["span_segments"]
    assert (last["fidelity"], last["expected_time_s"]) == (row["fidelity"], row["expected_time_s"])
    code, out, _ = run(f"link {same}", capsys)
    assert code == 0
    [link] = dict_rows(out)
    assert (link["efficiency"], link["initial_fidelity"]) == (
        row["efficiency"], row["initial_fidelity"]
    )
