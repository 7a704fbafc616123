"""README's ```python examples, run as written: the last line of each block
is an expression, and the comment under it shows its value."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _significant(shown):
    """The count of significant digits written in a number literal."""
    mantissa = re.split("[eE]", shown.lstrip("+-"))[0]
    return len(mantissa.replace(".", "").lstrip("0"))


def test_readme_has_three_python_examples():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("block", BLOCKS, ids=range(len(BLOCKS)))
def test_readme_example_prints_the_digits_its_comment_shows(block):
    code = [line for line in block.splitlines() if line.strip()]
    comment = code.pop()
    assert comment.startswith("# "), "each block ends with its expression's value as a comment"
    # the value is the comment's leading literal: a parenthesised tuple or one token
    shown = re.match(r"# (\([^)]*\)|[^,\s]+)", comment).group(1)
    namespace = {}
    exec("\n".join(code[:-1]), namespace)
    got = eval(code[-1], namespace)

    want = ast.literal_eval(shown)
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    digits = iter(NUMBER.findall(shown))
    for g, w in zip(got, want):
        if isinstance(w, float):
            sig = _significant(next(digits))
            assert f"{g:.{sig - 1}e}" == f"{w:.{sig - 1}e}", (g, w)
        else:
            assert g == w
