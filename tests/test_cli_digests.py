"""Exact CLI outputs, pinned by sha256 digest.

Each case runs ``cli.main`` in-process on a corpus file and hashes what the
command produces: the written groupoid file for ``-o``, else stdout.  The
expected digests live in ``cli_digests.json`` beside this file.  To
regenerate them after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from weylkit.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

# corpus name -> the arguments of ``weylkit gen`` that write it
INPUTS = {
    "rotation(12,5)": ["rotation", "12", "5"],
    "rotation(12,0)": ["rotation", "12", "0"],
    "q8": ["q8"],
    "d4": ["d4"],
    "pair(6)": ["pair", "6"],
    "z2z2": ["z2z2"],
    "z2xR2": ["z2xR2"],
}

CASES = (
    [(cmd, name) for cmd in ("weyl", "twist") for name in ("rotation(12,5)", "q8")]
    + [(cmd, name) for cmd in ("boxtimes", "roundtrip") for name in ("rotation(12,0)", "d4", "q8", "pair(6)")]
    + [(cmd, name) for cmd in ("actions", "hypotheses") for name in ("z2z2", "d4", "q8")]
    + [("actions", name) for name in ("z2xR2", "pair(6)", "rotation(12,0)")]
    + [("weyl", "z2xR2"), ("weyl", "pair(6)"), ("boxtimes", "z2xR2"), ("roundtrip", "z2xR2")]
    + [(cmd, name) for cmd in ("expectation", "algebra") for name in ("q8", "pair(6)", "rotation(12,5)")]
    + [("hypotheses", name) for name in ("rotation(12,0)", "rotation(12,5)", "pair(6)", "z2xR2")]
)

WRITES_FILE = {"weyl", "twist", "boxtimes"}


def run_case(cmd: str, name: str, tmp: Path) -> str:
    """The sha256 of one command's output on one corpus input."""
    src, out = tmp / f"{cmd}-in.json", tmp / f"{cmd}-out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", *INPUTS[name], "-o", str(src)]) == 0
    stdout = io.StringIO()
    args = [cmd, str(src)] + (["-o", str(out)] if cmd in WRITES_FILE else ["--format", "json"])
    with contextlib.redirect_stdout(stdout):
        assert main(args) == 0, (cmd, name)
    data = out.read_bytes() if cmd in WRITES_FILE else stdout.getvalue().encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cmd,name", CASES)
def test_cli_output_digest(cmd, name, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert run_case(cmd, name, tmp_path) == expected[f"{cmd} {name}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{cmd} {name}": run_case(cmd, name, Path(tmp)) for cmd, name in CASES}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
