"""Every script under scripts/ imports cleanly; each runs only under __main__."""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
