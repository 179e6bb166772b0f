import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_workflow_demo(tmp_path):
    """`gen` and then every workflow command on freshly written fixtures, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_cli_workflow.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert "UNEXPECTED" not in res.stdout
