"""The CLI's ``--json`` output, byte for byte, on the committed fixtures.

Each golden file in ``tests/golden/`` is the exact stdout of one command,
with every ``inputs.*.path`` reduced to the input's file name.  The exit
codes are pinned here.  To regenerate the golden files after a deliberate
change of output, run ``PYTHONPATH=src python tests/test_golden_json.py``.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qcoord.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# golden name -> (argv with fixture file names, exit code)
COMMANDS = {
    "classify-chsh-quantum": (["classify", "chsh-quantum.dist"], 0),
    "classify-copy-psi": (["classify", "copy-psi.dist"], 0),
    "classify-shared-coin": (["classify", "shared-coin.dist"], 0),
    "theorem2-phi-only": (["theorem2", "phi-only.game", "chsh-quantum.dist"], 0),
    "classical-value-chsh": (["classical-value", "chsh.game"], 0),
    "classical-value-phi-only": (["classical-value", "phi-only.game"], 0),
    "no-signalling": (["no-signalling", "--alice", "0,pi/4", "--bob", "pi/8"], 0),
    "quantum-optimize-chsh": (["quantum-optimize", "chsh.game"], 0),
    "quantum-optimize-chsh-restarts-2000": (["quantum-optimize", "chsh.game", "--restarts", "2000"], 0),
    "demo": (["demo"], 0),
}


def run_json(argv):
    """Exit code and stdout of ``main(argv + ['--json'])``, fixture paths reduced to names."""
    paths = {arg: FIXTURES / arg for arg in argv if (FIXTURES / arg).is_file()}
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([str(paths.get(arg, arg)) for arg in argv] + ["--json"])
    text = out.getvalue()
    for name, path in paths.items():
        text = text.replace(json.dumps(str(path)), json.dumps(name))
    return code, text


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden(name):
    argv, expected_code = COMMANDS[name]
    code, text = run_json(argv)
    assert code == expected_code
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in COMMANDS.items():
        code, text = run_json(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(text)
