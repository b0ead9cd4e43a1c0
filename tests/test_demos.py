"""Each demo runs to its end in-process; pytest turns a RuntimeWarning into an error."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
