"""Smoke tests: the scripts under scripts/ still run against the package API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_selectors_runs_on_a_tiny_setting(capsys):
    script = load_script("compare_selectors")
    argv = ["--seeds", "0", "--n-grid", "3", "--epochs", "3", "--n-test", "50"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 0: regions=")
    for method in ("twin", "selts", "selvs"):
        assert f"MAE vs oracle [{method}]" in out
