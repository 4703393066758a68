"""Every command line whose output tier-1 pins, byte for byte.

``COMMAND_BYTES`` maps a command line to its exit code, the SHA-256 digest
of its stdout (None when it prints none) and its exact stderr, each recorded
from a separate ``qrepeater`` process: the README commands at commit 93441ad,
the other CSV commands and the ``--help`` texts (with ``COLUMNS=80``) at
8825bd1, the ``link`` reports at dd58d26, the ``fixed-point`` and error-row
``sweep`` entries and the 1400 km links at b6d37f0, the noisy-gate grids at
9441862, the ``l0_km`` sweep at the child of 2ff288a (once a swept segment
length re-derives its classical time ``tc_s``), the ``simulate`` and
``fixed-point`` span tables and their errors at 11d0378 (where each command
still walked its spans on its own), the ``fixed-point`` grid whose link
time overflows at 349ee13, the ``headline`` and ``link`` errors at 74f73b1
(where both still computed their numbers in the CLI), the rows
from the 1420 km links onward at c332302, and argparse's own errors (with
``COLUMNS=80``) at 81b0a10, where every command line still built the
parser of every command, the command lines with a stray word before the
command at 714d3db, where such a line still did, and the ``p_eta`` axis
beside a ``p`` axis at its child.  The CSV digests were first taken
of the file ``--out`` writes, which holds stdout's bytes.  Any change to a
number, its formatting, the header comments, a flag or an error message
shows up here, and a first failing span must keep its message.
"""

import hashlib
import sys

import pytest

from qrepeater.cli import COMMANDS, main

UNPURIFIABLE = "--f0 0.0 --p 1 --eta 1 --attenuation-db-per-km 0 --p-em 0.1"
P_ZERO = "error: elementary link never succeeds (P = 0)\n"
BELOW_RESOLUTION = (
    "error: elementary link success probability P = 5.551e-17 is below float"
    " resolution (1 - P rounds to 1)\n"
)
UNPURIFIABLE_LEVEL_0 = (
    "error: unpurifiable pump step 3 at level 0: acceptance probability 0.000e+00\n"
)


def printed(digest):
    """A command that exits 0 and prints stdout with this digest and no stderr."""
    return (0, digest, "")


def error(message):
    """A command that exits 2 and prints only this error line."""
    return (2, None, f"error: {message}\n")


def refused(usage, message, prog="qrepeater"):
    """A command line that argparse refuses: exit 2, its usage and its error line."""
    return (2, None, f"usage: {usage}\n{prog}: error: {message}\n")


#: The top-level usage line, which names every command.
USAGE = "qrepeater [-h] {link,simulate,fixed-point,sweep,headline} ..."


COMMAND_BYTES = {
    # The README commands.
    "simulate --target-span 127 --f0 0.98":
        printed("1718896c11171a1e31e4f064b037faf08bc1a8a8ee48826c5a9b79a18d602b4e"),
    "simulate --target-span 1023":
        printed("ae506f32a1c81e5c1eaeeb3a0f6b6880eef00a6dd26a0c4ee18933805026bfa3"),
    "fixed-point --axis upsilon=0,0.1,0.2,0.3":
        printed("10106c26697d1aeb88f4974322175221a8aaa6ab855908b792b53f391da62d49"),
    "fixed-point --target-span 7 --f0 0.98":
        printed("5f558e42fb4e0e4e3b5c4a54b8523002030c371bcefed8cca50bfb0c1d750231"),
    "headline":
        printed("661c08445c942745292bf003a1ba793db13095c27b3f69d9c324456748be4f46"),
    # The README figure sweep.
    "sweep --axis f0=0.96,0.97,0.98,0.99,1.0 --axis target_span=3,7,15,31,63,127 --tc-s 70e-6":
        printed("9f84de07a85b80a60696f76163edd1ab70f099e1213036793ce5b9897b40ad41"),
    "headline --distance-km 20000 --p 0.995 --eta 0.995 --m 3":
        printed("df201303c40683543eb32fe9f7c40e2a715028410f9a4178915dc43416011085"),
    # The link report, closed forms alone and with the photon-mode sampler.
    "link":
        printed("ee78d34bb8c8b790ad41fc375cfc2bdaf448882ecfc1bb06ab258d2135a49472"),
    "link --oracle --trials 2000":
        printed("7086af32241c863275e974e041518acfd73442c75e8466b748667a3959f701d0"),
    # Fixed points per prefix span and the asymptote, from one ladder.
    "fixed-point --target-span 127":
        printed("833050f879b5eff7220179b3b2d53a157374f66ed2b3caf761c1e15a9e4a2f1d"),
    # Descending spans down to span 1, all sharing one ladder per f0.
    "fixed-point --axis f0=0.96,0.97 --axis target_span=7,3,1":
        printed("8b08c5e767a232e627cbc2e7e415a67b3e0b5420dab7c2dff60c2c736bc170fc"),
    # Error rows: at f0 = 0 the span-1 rows need no pumping but inherit the
    # asymptote's unpurifiable level 0.
    "sweep --axis f0=0,0.98 --axis target_span=1,3,7 --p 1 --eta 1"
    " --attenuation-db-per-km 0 --p-em 0.1":
        printed("870a42e71660853758dc0e7e4ce685d5351718af49160e3a05b4f68f0e75e3db"),
    # The longest links whose success probability P still has 1 - P < 1,
    # and a P = 0 error row.
    "simulate --l0-km 1400":
        printed("cc9f38902a4b65673add13f4a2d1aff88591a5ca45db5686ef9632c605077e1f"),
    "sweep --axis l0_km=1380,1400,1480 --target-span 3":
        printed("e6775e66d8fbb81323b827aae790ce6fdb5b8527507a9a7761983ebf319a7291"),
    # Noisy gates and measurements (p, eta < 1, upsilon > 0) through the
    # purify and swap kernels.
    "fixed-point --axis p_eta=0.97,0.99,0.993,0.995,0.997 --axis upsilon=0,0.15,0.3,0.45":
        printed("6ae42053c80f48a527fd155e04bdccbb85a6052c125d3f4a37760040ea3b56cc"),
    "sweep --axis m=0,1,2,3,4,5 --axis p_eta=0.98,0.99,0.995,1.0 --target-span 63":
        printed("22640ba6d74d26cc136f56faca20073803331bc1118de163010397b594e3ecf7"),
    # The help texts, laid out by Python 3.11's argparse.
    "--help":
        printed("d70dd8029fe7e2fb09996ef83780c0e0fff91cd98f8f18ad2d948f3d0156a7bf"),
    "link --help":
        printed("c2c75110dcf659b587e3c159d7c35ef71c4bb7b86002ede0b80514c6438154e3"),
    "simulate --help":
        printed("72f754a0634edab49f272fe58aec5b4563ef867d7da5cf17cc9d449a425314d0"),
    "fixed-point --help":
        printed("5a5adb43afe83d46628c05d277ee3202487d3ea644925821dd16ca66502de34e"),
    "sweep --help":
        printed("a432abea0c7b50d3bf9b3f34174e40dbe1c10bf83682d075615b4f62127fb5da"),
    "headline --help":
        printed("41adfb597874fc2645c4e74d29f37bfe08109a52c7918cf7a19bcf96f3de8e20"),
    # Every command prints the ladder's message for P = 0.
    "simulate --l0-km 5000": (2, None, P_ZERO),
    "fixed-point --l0-km 5000": (2, None, P_ZERO),
    # 0 < P = 5.55e-17 < eps/2, so 1 - P rounds to 1 and the link's
    # geometric wait would divide by zero.
    "simulate --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "fixed-point --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "simulate --t0-s 1e200": error("expected time overflows a float at the elementary link"),
    # Fixed points read states only, so a time that overflows is never read.
    "fixed-point --t0-s 1e200":
        printed("0a35209a00251e099ae47b6b6157b3d387fdbcd9958489f3d1e8694d2922f361"),
    "fixed-point --axis m=1,2 --t0-s 1e200 --target-span 15":
        printed("5594577adecf507047def794212ec48c605fcc303b080f2753491a3230596688"),
    f"simulate {UNPURIFIABLE}": (2, None, UNPURIFIABLE_LEVEL_0),
    f"fixed-point {UNPURIFIABLE}": (2, None, UNPURIFIABLE_LEVEL_0),
    # Span 1 pumps nothing; only the asymptote reaches the failing level.
    f"simulate {UNPURIFIABLE} --target-span 1":
        printed("87bd909a57c39c34328c75e822df6a989bbe2c888c944dbc427515982b827e6c"),
    f"fixed-point {UNPURIFIABLE} --target-span 1": (2, None, UNPURIFIABLE_LEVEL_0),
    "headline --l0-km 5000": (2, None, P_ZERO),
    "link --l0-km 5000": (2, None, P_ZERO),
    # The link's closed forms have no resolution check; only a time reads it.
    "headline --l0-km 1440": (2, None, BELOW_RESOLUTION),
    "link --l0-km 1440":
        printed("e7886f1a6ace56ed7233216efd62867358528c53587bcc6a8e87aed483f1f08e"),
    "headline --t0-s 1e200": error("expected time overflows a float at the elementary link"),
    "link --t0-s 1e200":
        printed("f3520f6d8b6191c30e07b3fb0fe8c96d6cb36880882b5b972c936db0e722fe0b"),
    # headline pumps once (m = 1), so step 3 is never reached; link builds no level.
    f"headline {UNPURIFIABLE}":
        printed("11eaa3c642b4d16f8a543c016dfcec78405bb31a8112bd5632ca449a738cc11e"),
    f"link {UNPURIFIABLE}":
        printed("0cd8919162ebdedcae42d578d72523d9336475a89505f341a2fd53976bd839e1"),
    # A pinned f0 leaves initial_fidelity at the link's closed form.
    "headline --f0 0.99":
        printed("06f18e655fbe5b3a03b1b65c3fbfde59c97f006e220cb58ddc12280acaf76a02"),
    "link --f0 0.99":
        printed("7a49173a534814198c97363a2072b123e300a7ec8dfa2f0742bd8af845033ca7"),
    # The same P below float resolution at 1420 and 1460 km, except that
    # headline's own p_em and eps_local give P = 0 at 1460 km.
    "simulate --l0-km 1420": (2, None, BELOW_RESOLUTION),
    "fixed-point --l0-km 1420": (2, None, BELOW_RESOLUTION),
    "headline --l0-km 1420": (2, None, BELOW_RESOLUTION),
    "simulate --l0-km 1460": (2, None, BELOW_RESOLUTION),
    "fixed-point --l0-km 1460": (2, None, BELOW_RESOLUTION),
    # A sweep turns it into its row's error, and keeps the 1400 km row.
    "sweep --axis l0_km=1400,1440 --target-span 3":
        printed("5291567b5b2e5424288d5e69c85153e6936ad4caa68fa0674b6ee483c837454e"),
    # Input errors name the field and the value.
    "link --p-em 1.5": error("p_em must lie in (0, 1], got 1.5"),
    "simulate --seed -1": error("seed must be an int >= 0, got -1"),
    "simulate --t0-s=nan": error("t0_s must be finite, got nan"),
    "simulate --tc-s=nan": error("tc_s must be finite, got nan"),
    "simulate --attenuation-db-per-km=nan": error("attenuation_db_per_km must be finite, got nan"),
    "simulate --t0-s -1": error("t0_s must be >= 0, got -1.0"),
    "simulate --l0-km 0": error("l0_km must be > 0, got 0.0"),
    "simulate --upsilon 0.6": error("upsilon must lie in [0, 0.5], got 0.6"),
    "simulate --target-span 0": error("target_span must be >= 1, got 0"),
    "link --trials 0": error("trials must be an int >= 1, got 0"),
    # Each way an --axis list can be malformed.
    "sweep": error("sweep requires at least one --axis NAME=V1,V2,..."),
    "sweep --axis m": error("--axis expects NAME=V1,V2,..., got 'm'"),
    "sweep --axis bogus=1": error("unknown axis 'bogus'"),
    "sweep --axis m=x": error("cannot parse axis 'm' values 'x'"),
    "sweep --axis m=,": error("axis 'm' has no values"),
    "sweep --axis m=1 --axis m=2": error("duplicate axis 'm'"),
    # p_eta sets p and eta, so a p or eta axis beside it would be half overridden.
    "sweep --axis p_eta=0.99 --axis p=0.9,0.99 --target-span 3": error(
        "axes 'p_eta' and 'p' both set p"
    ),
    "headline --distance-km=inf": error("distance_km must be finite and > 0, got inf"),
    "headline --distance-km=nan": error("distance_km must be finite and > 0, got nan"),
    "headline --distance-km=-5": error("distance_km must be finite and > 0, got -5.0"),
    "headline --distance-km=0": error("distance_km must be finite and > 0, got 0.0"),
    # The time first overflows at level 208, however many levels the span
    # has above it.
    "headline --distance-km=1e80": error("expected time overflows a float at level 208"),
    "headline --distance-km=1e300": error("expected time overflows a float at level 208"),
    # 1e308 / 1e-3 is infinite, so no span can be rounded up from it.
    "headline --distance-km 1e308 --l0-km 1e-3": error(
        "distance_km / l0_km overflows a float once rounded up to a span: 1e+308 / 0.001"
    ),
    # 1e-320 / 1e10 rounds to 0, from which no span can be rounded up.
    "headline --distance-km 1e-320 --l0-km 1e10": error(
        "distance_km / l0_km underflows to 0: 1e-320 / 10000000000.0"
    ),
    # A flag's value in the config file (m = 1), and headline's own
    # defaults (p_em = 0.08, m = 1).
    "link --print-config --m 1":
        printed("78f70d8c70f4ae7b5d4af037b57b51dbcddd3006dd88820747eb8a3e35594a73"),
    "headline --print-config":
        printed("8cf1498040adc4c2255e235bc49775ddf98b4c4568c7a9ed75952b19aa551051"),
    # Command lines that argparse refuses, laid out by Python 3.11's argparse.
    # In "sweep headline" the second name is an argument sweep does not take,
    # and the top-level usage line still names every command.
    "": refused(USAGE, "the following arguments are required: command"),
    "bogus": refused(USAGE, "argument command: invalid choice: 'bogus' (choose from"
                            " 'link', 'simulate', 'fixed-point', 'sweep', 'headline')"),
    "sweep headline": refused(USAGE, "unrecognized arguments: headline"),
    # main builds the parser of the first command word, wherever it stands.
    "-x simulate --help":
        printed("72f754a0634edab49f272fe58aec5b4563ef867d7da5cf17cc9d449a425314d0"),
    "-x headline --print-config": refused(USAGE, "unrecognized arguments: -x"),
    "bogus simulate --m 2": refused(USAGE, "argument command: invalid choice: 'bogus' (choose"
                                           " from 'link', 'simulate', 'fixed-point', 'sweep',"
                                           " 'headline')"),
    "simulate --m x": refused(
        "qrepeater simulate [-h] [--config PATH] [--out PATH] [--seed SEED]\n"
        "                          [--trials TRIALS] [--print-config] [--l0-km L0_KM]\n"
        "                          [--attenuation-db-per-km ATTENUATION_DB_PER_KM]\n"
        "                          [--p-em P_EM] [--eps-local EPS_LOCAL] [--t0-s T0_S]\n"
        "                          [--tc-s TC_S] [--p P] [--eta ETA]\n"
        "                          [--upsilon UPSILON] [--m M]\n"
        "                          [--target-span TARGET_SPAN] [--f0 F0]",
        "argument --m: invalid int value: 'x'", prog="qrepeater simulate",
    ),
}


def laid_out_by_argparse(command):
    """Whether argparse writes the row's bytes: a help text or a usage error."""
    return command.endswith("--help") or COMMAND_BYTES[command][2].startswith("usage:")


def run(command, monkeypatch, capsys):
    """The exit code, the digest of stdout (None when empty) and stderr of ``command``."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command.split())
    except SystemExit as exited:  # --help and argparse's errors exit from argparse
        code = exited.code
    out, err = capsys.readouterr()
    return code, hashlib.sha256(out.encode()).hexdigest() if out else None, err


@pytest.mark.parametrize("command", COMMAND_BYTES)
def test_command_prints_the_recorded_bytes(command, monkeypatch, capsys):
    if laid_out_by_argparse(command) and sys.version_info[:2] != (3, 11):
        pytest.skip("recorded with Python 3.11's argparse layout")
    assert run(command, monkeypatch, capsys) == COMMAND_BYTES[command]


@pytest.mark.parametrize(
    "command", [c for c in COMMAND_BYTES if c.partition(" ")[0] in COMMANDS]
)
def test_a_stray_option_before_the_command(command, monkeypatch, capsys):
    # Where the subcommand ends the parse, with its help text or its usage
    # error, the row's bytes stand.  Otherwise the top level refuses -x,
    # followed by any word the subcommand left.
    if sys.version_info[:2] != (3, 11):
        pytest.skip("every outcome is laid out by Python 3.11's argparse")
    recorded = COMMAND_BYTES[command]
    if laid_out_by_argparse(command) and not recorded[2].startswith(f"usage: {USAGE}\n"):
        expected = recorded
    else:
        left = recorded[2].partition("unrecognized arguments:")[2].rstrip("\n")
        expected = refused(USAGE, f"unrecognized arguments: -x{left}")
    assert run(f"-x {command}", monkeypatch, capsys) == expected
