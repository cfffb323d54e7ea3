"""Each demo script runs end to end, writing its previews into a temp dir."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "OUT", tmp_path / "out")
    demo.main()
    assert list((tmp_path / "out").iterdir())
    assert capsys.readouterr().out
