"""Code outside the library that must keep finding what it uses.

The demos import public names and print deterministic reports; the hashes
pin every byte of their stdout, as ``test_cli_golden.py`` does for the
CLI.  Each demo runs in process from a temporary directory, so the CSVs
``price_surfaces.py`` writes land there.  The benchmark tracer
(``perfbench/spans.py``) wraps layer functions at their module attributes
and reads a missing one as 0; the traced-name test fails when a refactor
drops one of them.
"""

import hashlib
import importlib.util
import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DEMO_SHA256 = {
    "convergence_tables":
        "68d7848262ef898881081ea7e6c6ad650ce1a5831fb7ed24bee8cd3ebc73165d",
    "price_surfaces":
        "6776a8c20d3c0b205ef2dc59925e37e24ed32d1d4b4f47bfd4184b5bf424f2ca",
    "richardson_extrapolation":
        "7df6d05dad31d931c210ccfdf452ac959ceae6319231913b2c70a1743a1903d0",
    "scheme_audits":
        "7d5e54b224bf5d7fe05cc0a6788db38ba8baa1facacc6f832dc457d4626e7449",
}


@pytest.mark.parametrize("path", sorted((REPO / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_stdout(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_SHA256[path.stem]


def test_traced_layer_names_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert tracer.absent == []
