"""Every command's table: ``link`` and ``headline`` read one row, and
``simulate`` and ``fixed-point`` one row per span, from the same column
table as ``sweep`` and ``fixed-point --axis``.  The bytes each single
command prints are rows of ``test_golden_csv.COMMAND_BYTES``; these tests
check how the tables of several commands relate.
"""

import csv
import io

import pytest

from qrepeater import cli
from qrepeater.analysis import table
from qrepeater.cli import main
from test_golden_csv import UNPURIFIABLE


def run(command, capsys):
    code = main(command.split())
    out, err = capsys.readouterr()
    return code, out, err


def data_rows(text):
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def test_fixed_point_grid_reads_no_time(capsys):
    # A fixed-point grid prints no time, so a link whose time overflows
    # still gets its fixed point and asymptote: each row is the target
    # span's row of the same command without the grid.
    command = "fixed-point --axis m=1,2 --t0-s 1e200 --target-span 15"
    code, out, err = run(command, capsys)
    assert (code, err) == (0, "")
    header, *rows = data_rows(out)
    assert header == ["m", "f_fp", "f_inf", "error"]
    for m, row in zip(("1", "2"), rows):
        code, single, _ = run(f"fixed-point --m {m} --t0-s 1e200", capsys)
        assert code == 0
        span_header, *span_rows = data_rows(single)
        assert span_header[2:] == ["f_fp", "f_inf"] and span_rows[-1][0] == "15"
        assert row == [m, *span_rows[-1][2:], ""]


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
