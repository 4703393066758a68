"""The README commands' CSV output, pinned byte for byte.

The SHA-256 digests were recorded from separate ``qrepeater`` processes
at commit 93441ad; any change to a number, its formatting or the header
comments shows up here.
"""

import hashlib

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
