"""The README's library example runs and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

import pytest

from qcoord import Verdict

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
