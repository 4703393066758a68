"""The README commands' CSV output and the ``--help`` texts, pinned byte
for byte.

The SHA-256 digests were recorded from separate ``qrepeater`` processes
at commit 93441ad (``GOLDEN_SHA256``), 8825bd1 (``MORE_SHA256`` and
``HELP_SHA256``, the help with ``COLUMNS=80``) and dd58d26 (the ``link``
entries of ``MORE_SHA256``); any change to a number, its formatting, the
header comments or a flag shows up here.
"""

import hashlib
import sys

import pytest

from qrepeater.cli import main

GOLDEN_SHA256 = {
    "simulate --target-span 127 --f0 0.98":
        "1718896c11171a1e31e4f064b037faf08bc1a8a8ee48826c5a9b79a18d602b4e",
    "simulate --target-span 1023":
        "ae506f32a1c81e5c1eaeeb3a0f6b6880eef00a6dd26a0c4ee18933805026bfa3",
    "fixed-point --axis upsilon=0,0.1,0.2,0.3":
        "10106c26697d1aeb88f4974322175221a8aaa6ab855908b792b53f391da62d49",
    "fixed-point --target-span 7 --f0 0.98":
        "5f558e42fb4e0e4e3b5c4a54b8523002030c371bcefed8cca50bfb0c1d750231",
    "headline":
        "661c08445c942745292bf003a1ba793db13095c27b3f69d9c324456748be4f46",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_readme_command_csv_matches_recorded_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[command]


MORE_SHA256 = {
    # The README figure sweep.
    "sweep --axis f0=0.96,0.97,0.98,0.99,1.0 --axis target_span=3,7,15,31,63,127 --tc-s 70e-6":
        "9f84de07a85b80a60696f76163edd1ab70f099e1213036793ce5b9897b40ad41",
    "headline --distance-km 20000 --p 0.995 --eta 0.995 --m 3":
        "df201303c40683543eb32fe9f7c40e2a715028410f9a4178915dc43416011085",
    # The link report, closed forms alone and with the photon-mode sampler.
    "link":
        "ee78d34bb8c8b790ad41fc375cfc2bdaf448882ecfc1bb06ab258d2135a49472",
    "link --oracle --trials 2000":
        "7086af32241c863275e974e041518acfd73442c75e8466b748667a3959f701d0",
}

HELP_SHA256 = {
    "": "d70dd8029fe7e2fb09996ef83780c0e0fff91cd98f8f18ad2d948f3d0156a7bf",
    "link": "c2c75110dcf659b587e3c159d7c35ef71c4bb7b86002ede0b80514c6438154e3",
    "simulate": "72f754a0634edab49f272fe58aec5b4563ef867d7da5cf17cc9d449a425314d0",
    "fixed-point": "5a5adb43afe83d46628c05d277ee3202487d3ea644925821dd16ca66502de34e",
    "sweep": "a432abea0c7b50d3bf9b3f34174e40dbe1c10bf83682d075615b4f62127fb5da",
    "headline": "41adfb597874fc2645c4e74d29f37bfe08109a52c7918cf7a19bcf96f3de8e20",
}


@pytest.mark.parametrize("command", sorted(MORE_SHA256))
def test_more_command_csv_matches_recorded_digest(command, tmp_path):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MORE_SHA256[command]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse layout"
)
@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_matches_recorded_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(command.split() + ["--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command]
