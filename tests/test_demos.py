"""Every demo runs as a script, in this process, without ``--plot``: it
exits 0, prints its report and writes no file."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(demo)])
    try:
        runpy.run_path(str(demo), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    assert capsys.readouterr().out.strip()
    assert list(tmp_path.iterdir()) == []
