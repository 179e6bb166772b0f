"""Fixture and report files.

Fixtures are a JSON header line, then the space's payloads as raw bytes.
save_fixture writes one; load_fixture is the only decoder, from a file.
Reports are JSON with deterministic ordering; the runtime block is
excluded from the determinism contract.  Plot-ready series are emitted
as CSV, one file per series, stable column order.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NoSeries, ShapeError
from .parallels import LineSample
from .sampled import SampledSpace
from .splitting import MetricSampleIn

FIXTURE_SCHEMA = 4
REPORT_SCHEMA = 1
PAYLOADS = ("causal", "chronological", "tau")  # the space's binary fields, in file order
_PANEL_ROWS = 64  # rows of tau scattered per read of its values
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.uint8)  # set bits per byte value


class Fixture(NamedTuple):
    """A loaded fixture and the sha256 of the bytes it was parsed from."""

    space: SampledSpace
    lines: list
    base: MetricSampleIn | None
    meta: dict
    sha256: str


def fixture_to_dict(space: SampledSpace, lines=(), base: MetricSampleIn | None = None, meta=None) -> dict:
    chron = space.chron
    doc = {
        "schema_version": FIXTURE_SCHEMA,
        "space": {
            "n": space.n,
            "causal": np.packbits(space.causal).tobytes(),
            "chronological": np.packbits(chron).tobytes(),
            "tau": space.tau[chron].astype("<f8", copy=False).tobytes(),
            "labels": space.labels,
            "meta": _plain(space.meta),
        },
        "lines": [
            {
                "points": ln.points.tolist(),
                "t0": ln.t0,
                "step": ln.step,
                "kind": ln.kind,
                "label": ln.label,
            }
            for ln in lines
        ],
        "base": None,
        "meta": _plain(meta or {}),
    }
    if base is not None:
        doc["base"] = {
            "dist": base.dist.tolist(),
            "labels": base.labels,
            "midpoints": [[int(i), int(j), int(m)] for (i, j), m in sorted(base.midpoints.items())],
            "meta": _plain(base.meta),
        }
    return doc


def _scattered(n, chron, read):
    """The zeroed n x n tau with read's values at the packed chronological
    bits chron, read one _PANEL_ROWS row panel at a time."""
    tau = np.zeros((n, n))
    for lo in range(0, n, _PANEL_ROWS):
        hi = min(n, lo + _PANEL_ROWS)
        first = lo * n // 8  # the byte that holds the panel's first bit
        rows = np.unpackbits(chron[first : -(-hi * n // 8)])[lo * n - 8 * first : hi * n - 8 * first]
        rows = rows.view(bool).reshape(hi - lo, n)
        values = np.frombuffer(read(8 * int(np.count_nonzero(rows))), "<f8")
        if not ((values > 0) & (values < np.inf)).all():
            raise ShapeError("space.tau values must be positive and finite")
        tau[lo:hi][rows] = values
    return tau


def _assembled(doc, tau, causal):
    """(space, lines, base, meta) of a checked document around its decoded arrays."""
    n = tau.shape[0]
    sp = doc["space"]
    labels = _optional(sp.get("labels"), list, "space.labels")
    meta = _expect(sp.get("meta", {}), dict, "space.meta")
    space = SampledSpace._scanned(tau, causal, labels, meta)  # _scattered checked every tau value
    lines = []
    for ln in _expect(doc.get("lines", []), list, "lines"):
        ln = _expect(ln, dict, "line")
        pts = _indices(ln.get("points"), n, "line")
        lines.append(
            LineSample(
                points=pts,
                t0=_float(ln.get("t0"), "line t0"),
                step=_float(ln.get("step"), "line step"),
                kind=ln.get("kind", "line"),
                label=_optional(ln.get("label"), str, "line label"),
            )
        )
    base = None
    if doc.get("base"):
        b = _expect(doc["base"], dict, "base")
        dist = _array(b.get("dist"), float, "base.dist")
        labels = _optional(b.get("labels"), list, "base.labels")
        meta = _expect(b.get("meta", {}), dict, "base.meta")
        try:
            base = MetricSampleIn(dist=dist, meta=meta)
        except ShapeError as e:
            raise ShapeError(f"fixture base.dist: {e}") from None
        try:
            base = MetricSampleIn(dist=base.dist, labels=labels, meta=meta)
        except ShapeError as e:
            raise ShapeError(f"fixture base.labels: {e}") from None
        if "base_points" in space.meta and space.meta["base_points"] != base.m:
            raise ShapeError(f"fixture base has {base.m} points, but space.meta base_points is {space.meta['base_points']!r}")
        for row in _expect(b.get("midpoints", []), list, "base.midpoints"):
            triple = _indices(row, base.m, "base midpoint")
            if triple.size != 3:
                raise ShapeError("base midpoints must be [i, j, m] triples")
            i, j, m = triple.tolist()
            base.midpoints[(i, j)] = m
    return space, lines, base, _expect(doc.get("meta", {}), dict, "meta")


_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _expect(value, kind, what):
    if not isinstance(value, kind):
        raise ShapeError(f"fixture {what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _optional(value, kind, what):
    return None if value is None else _expect(value, kind, what)


def _array(value, dtype, what):
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise ShapeError(f"fixture {what} is not a numeric array: {e}") from None


def _checked_n(doc):
    """doc's space.n, once doc's schema, space and n are checked."""
    version = _expect(doc, dict, "fixture").get("schema_version")
    if type(version) is not int or version != FIXTURE_SCHEMA:
        raise ShapeError(f"unsupported fixture schema {version!r}: re-generate it with lorentzgeo gen")
    n = _expect(doc.get("space"), dict, "space").get("n")
    if type(n) is not int or n < 0:
        raise ShapeError(f"space.n must be a non-negative integer, got {n!r}")
    return n


def _packed_mask(raw, n, what):
    """The bytes of an n x n np.packbits mask, checked for their count and zero padding."""
    spare = -(n * n) % 8  # padding bits in the last byte
    if len(raw) != (n * n + spare) // 8 or (spare and raw[-1] & ((1 << spare) - 1)):
        raise ShapeError(f"fixture {what} must be {n}x{n} packed bits with zero padding")
    return raw


def _unpacked(raw, n):
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n * n).view(bool).reshape(n, n)


def _float(value, what):
    x = _array(value, float, what)
    if x.ndim or not np.isfinite(x):
        raise ShapeError(f"fixture {what} must be a finite number")
    return float(x)


def _indices(value, n, what):
    pts = _array(value, np.int64, f"{what} points")
    if pts.ndim != 1:
        raise ShapeError(f"{what} points must be a flat list")
    if pts.size and (pts.min() < 0 or pts.max() >= n):
        raise ShapeError(f"{what} references out-of-range point indices")
    return pts


def doc_to_bytes(doc: dict) -> bytes:
    """A fixture document as file bytes: its JSON header line, then the space's payloads."""
    space = dict(doc["space"])
    body = [space.pop(key) for key in PAYLOADS]
    return b"".join([json.dumps({**doc, "space": space}, sort_keys=True).encode(), b"\n", *body])


def save_fixture(path, space, lines=(), base=None, meta=None):
    Path(path).write_bytes(doc_to_bytes(fixture_to_dict(space, lines, base, meta)))
    return path


def load_fixture(path) -> Fixture:
    """Read, validate and hash a fixture file, reading it once.

    The body holds the PAYLOADS: the np.packbits of causal and of the
    chronological mask (tau > 0), then tau's positive entries in row-major
    order as little-endian float64.  Unknown top-level header keys are
    ignored; any other schema or malformed file raises ShapeError.

    Only the header line is decoded as text.  The two packed masks are
    read whole, and the tau payload's size is checked against the
    chronological mask before anything is scattered; the values are then
    read one row panel at a time into the zeroed tau.  The sha256 is
    updated with every byte read, so the file is never held whole: at its
    peak, while causal is unpacked, a load holds the arrays it returns and
    the packed masks.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def read(count):
            nonlocal left
            chunk = f.read(min(count, left))  # never asks for more than the file holds
            left -= len(chunk)
            digest.update(chunk)
            return chunk

        line = f.readline()
        left -= len(line)
        digest.update(line)
        try:
            doc = json.loads(line.removesuffix(b"\n").decode())
        except ValueError as e:  # UnicodeDecodeError or JSONDecodeError
            raise ShapeError(f"fixture header is not UTF-8 JSON: {e}") from None
        n = _checked_n(doc)
        size = (n * n + 7) // 8
        if not line.endswith(b"\n"):
            raise ShapeError("fixture has no payload: a newline and the payload bytes must follow its header")
        causal, chronological = read(size), read(size)
        layout = f"fixture payload of {2 * size + left} bytes does not fit its layout, two packed {n}x{n} masks of {size} bytes each, then 8 bytes per chronological bit:"
        if left % 8:
            raise ShapeError(f"{layout} {left} bytes are left for tau, not a multiple of 8")
        causal = _packed_mask(causal, n, "space.causal")
        chron = np.frombuffer(_packed_mask(chronological, n, "space.chronological"), np.uint8)
        bits = int(_POPCOUNT[chron].sum(dtype=np.int64))
        if 8 * bits != left:
            raise ShapeError(f"{layout} its {bits} chronological bits need {2 * size + 8 * bits}")
        tau = _scattered(n, chron, read)
    return Fixture(*_assembled(doc, tau, _unpacked(causal, n)), digest.hexdigest())


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()  # a numpy scalar's tolist() is the Python int, float or bool
    return obj


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_report(command: str, inputs: dict, tolerances: dict, checks: list, series: dict | None = None, runtime: dict | None = None) -> dict:
    return {
        "schema_version": REPORT_SCHEMA,
        "command": command,
        "inputs": _plain(inputs),
        "tolerances": _plain(tolerances),
        "checks": _plain(checks),
        "series": _plain(series or {}),
        "runtime": _plain(runtime or {}),
    }


def report_status(report: dict) -> int:
    """Exit code for a report: 0 all PASS/SKIP/INFO, 1 if any FAIL."""
    return 1 if any(c.get("status") == "FAIL" for c in report["checks"]) else 0


def save_report(path, report: dict):
    Path(path).write_text(json.dumps(report, sort_keys=True))
    return path


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


def deterministic_view(report: dict) -> str:
    """Serialized report without the runtime block (the determinism contract)."""
    clean = {k: v for k, v in report.items() if k != "runtime"}
    return json.dumps(clean, sort_keys=True)


def emit_plotdata(report: dict, out_dir, stem: str = "series"):
    """One CSV per series in the report; returns the written paths."""
    series = report.get("series") or {}
    if not series:
        raise NoSeries("report contains no plottable series")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(series):
        table = series[name]
        cols = table["columns"]
        rows = table["rows"]
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(repr(float(v)) if isinstance(v, (int, float)) else str(v) for v in row))
        path = out_dir / f"{stem}_{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
