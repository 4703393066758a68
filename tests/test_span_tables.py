"""The per-span tables of ``simulate`` and ``fixed-point``, which read their
rows from the same column table as ``sweep`` and ``fixed-point --axis``.

``SPAN_TABLE_BYTES`` holds the exit code, the SHA-256 digest of stdout
(None for none) and stderr of each command, recorded from separate
``qrepeater`` processes at commit 11d0378, where each command still
walked its spans on its own; a first failing span must keep its message.
"""

import csv
import hashlib
import io

import pytest

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
