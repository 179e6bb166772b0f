import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, tmp_path):
    """Run demos/<name> in a fresh interpreter; return its completed process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    return res


def test_cli_workflow_demo(tmp_path):
    """`gen` and then every workflow command on freshly written fixtures, in a fresh interpreter."""
    assert "UNEXPECTED" not in run_demo("06_cli_workflow.py", tmp_path).stdout


@pytest.mark.parametrize(
    "name",
    [
        "01_model_space.py",  # the model-space kernels
        "02_curvature_certification.py",  # sample_triangles -> certify_curvature_bound
        "03_rigidity_and_quadrangles.py",  # triangle_between -> rigidity
        "04_parallel_lines_and_strips.py",  # strip_profile, flat strips, concatenation angles
        "05_splitting_pipeline.py",  # verify_embedding, round_trip
    ],
)
def test_api_demo(name, tmp_path):
    run_demo(name, tmp_path)
