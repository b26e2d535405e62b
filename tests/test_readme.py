"""The README's library example and command-line block agree with the package."""

import argparse
import ast
import math
import re
from pathlib import Path

import pytest

from qcoord import Verdict
from qcoord.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_gives_the_papers_values():
    # each bare expression of the block is one stated result, in order
    namespace = {}
    results = []
    for statement in ast.parse(library_example()).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), README.name, "eval")
            results.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    classical, reference, verdict = results
    assert classical == 0.75
    assert reference == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert verdict is Verdict.ENTANGLED


def command_line_block() -> str:
    """The first text block under the README's "## Command line" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1)


def test_command_line_block_matches_the_parser():
    # every subcommand's usage starts "qcoord NAME"; indented lines continue it
    usage = {}
    for line in command_line_block().splitlines():
        if line.startswith("qcoord "):
            name = line.split()[1]
            usage[name] = ""
        usage[name] += line
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(usage) == set(subparsers)
    options = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
               for name, p in subparsers.items()}
    common = set.intersection(*options.values())
    for name, text in usage.items():
        listed = set(re.findall(r"--[a-z][a-z-]*", text))
        assert listed <= options[name], f"{name}: the README lists {sorted(listed - options[name])}"
        specific = options[name] - common
        assert specific <= listed, f"{name}: the README leaves out {sorted(specific - listed)}"
    # the options every subcommand shares are the README's global flags
    flags = README.read_text(encoding="utf-8").split("\nGlobal flags", 1)[1].split("\n\n", 1)[0]
    assert common - {"--help"} == set(re.findall(r"--[a-z][a-z-]*", flags))
