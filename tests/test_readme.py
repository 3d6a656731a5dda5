"""The README's quick tour runs and prints what its comments say."""

import contextlib
import io
import math
import os
import re

import pytest

import renvol

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def _quick_tour():
    text = _readme()
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


def test_other_entry_points_run_as_written():
    text = _readme()
    section = text.split("Other entry points worth knowing:", 1)[1].split("\n\n")[1]
    calls = re.findall(r"`(\w+\(.*?\))`", section)
    assert len(calls) == 9, calls
    p = renvol.ads_schwarzschild(2.0)
    names = dict(
        vars(renvol),
        p=p, s0=p.horizon.radius, s1=3.0, tau=1.0, area=p.horizon.area, m=2.0, s_top=3.0,
        a_bar=p.horizon.area, alpha=0.25, eps=0.1, mu=1.0, masses=[1.0, 2.0],
    )
    for call in calls:
        assert eval(call, names) is not None, call
