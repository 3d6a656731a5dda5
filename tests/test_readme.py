"""The README's quick tour runs and prints what its comments say."""

import contextlib
import io
import math
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _quick_tour():
    text = open(README, encoding="utf-8").read()
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_prints_its_comments():
    code = _quick_tour()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # each print line's comment starts with exactly what it prints
    comments = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(comments) == 4
    for got, comment in zip(printed, comments):
        assert comment == got or comment.startswith(got + " "), (got, comment)
    # the mass is constant in s: 32 pi^1.5 m at m = 2
    assert float(printed[2]) == pytest.approx(32.0 * math.pi**1.5 * 2.0, rel=1e-15)
