"""revem loads numpy and scipy.linalg only: scipy.optimize costs about
0.15 s and 20 MB at import, and nothing in the library needs it."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_optimize_unloaded():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import revem.cli, sys; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"


def test_no_library_file_names_scipy_optimize():
    naming = [path.name for path in sorted((SRC / "revem").glob("*.py"))
              if "scipy.optimize" in path.read_text(encoding="utf-8")]
    assert naming == []
