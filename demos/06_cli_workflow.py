"""Batch workflow through the command-line front end.

Generates fixtures, runs the verification commands, and emits CSV plot
series, all inside a scratch directory.  Every command writes a JSON
report; exit code 1 marks found violations (expected for the tree
product's lower bound).  The demo itself exits 1 if any command's exit
code differs from the expected one.
"""

import sys
import tempfile
from pathlib import Path

from lorentzgeo.cli import main

scratch = Path(tempfile.mkdtemp(prefix="lorentzgeo_demo_"))
print(f"working in {scratch}\n")

fixture = scratch / "tripod.json"
grid = scratch / "grid.json"

steps = [
    (["gen", "product", "--base", "tripod", "--step", "0.5", "--window", "8", "-o", str(fixture)], 0),
    (["gen", "minkowski-grid", "--nt", "9", "--nx", "9", "-o", str(grid)], 0),
    (["axioms", str(fixture)], 0),
    (["lines", str(fixture)], 0),
    (["curvature", str(fixture), "--direction", "above", "--cap", "2000"], 0),
    (["curvature", str(fixture), "--direction", "below", "--cap", "2000"], 1),
    (["strip", str(fixture), "--alpha", "1", "--beta", "2"], 0),
    (["split", str(fixture)], 0),
    (["roundtrip", str(fixture)], 0),
    (["fvf", str(grid), "--point", "0", "--vertex", "9", "--target", "45"], 0),
    (["plotdata", str(grid.with_name("grid_fvf.json")), "-o", str(scratch / "csv")], 0),
]

unexpected = 0
for argv, expected in steps:
    print(f"$ lorentzgeo {' '.join(argv)}")
    code = main(argv)
    unexpected += code != expected
    marker = "ok" if code == expected else f"UNEXPECTED (wanted {expected})"
    print(f"  -> exit {code}  [{marker}]\n")

print("reports written:")
for p in sorted(scratch.rglob("*.json")):
    print(f"  {p.relative_to(scratch)}")
for p in sorted(scratch.rglob("*.csv")):
    print(f"  {p.relative_to(scratch)}")
sys.exit(1 if unexpected else 0)
