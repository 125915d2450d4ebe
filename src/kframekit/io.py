"""File formats: frames, operators and symbols as JSON.

Complex scalars serialize as two-element arrays [re, im] of decimal floats.
Frames: {"dim": n, "vectors": [[[re,im], ...], ...]}.
Matrices: {"rows": r, "cols": c, "data": [[re,im], ...]} (row-major).
Symbols: {"values": [[re,im], ...], "lower": a, "upper": b} (bounds optional).

Parsing is strict and deterministic, and serialize-then-parse is the
identity on the carried values. Every document's pairs go through one
converter, ``_complex_array``: each pair has two entries, each entry is a
finite int or float, never a bool, string or null. The pairs are checked as a
whole and converted in one numpy pass; only when that check fails are they
walked, to name the first bad field in document order. Files are read as
UTF-8 (RFC 8259).
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .frames import Frame
from .linalg import as_matrix
from .multipliers import Symbol

__all__ = [
    "parse_file",
    "parse_obj",
    "frame_to_obj",
    "matrix_to_obj",
    "symbol_to_obj",
    "write_file",
]


def _number(x, where: str) -> float:
    """A JSON number as a finite float (a bool is not a number here)."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ParseError(f"{where}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{where}: non-finite number {x!r}")
    return value


def _complex_from(pair, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(_number(pair[0], where), _number(pair[1], where))


def _complex_array(pairs: list, where) -> np.ndarray:
    """``pairs`` as a 1-d complex128 array; ``where(i)`` names pair i in an error.

    Two-entry lists of finite Python ints and floats convert in one numpy pass (float64
    viewed as complex128, so bit-exact); any other list is walked pair by pair, to the
    same values or to a ParseError naming the first bad pair."""
    if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
        leaves = [x for pair in pairs for x in pair]
        if set(map(type, leaves)) <= {int, float}:
            with contextlib.suppress(OverflowError):  # an integer past the float range
                flat = np.array(leaves, dtype=np.float64)
                if np.isfinite(flat).all():
                    return flat.view(np.complex128)
    return np.array([_complex_from(pair, where(i)) for i, pair in enumerate(pairs)], complex)


def _parse_frame(obj: dict, source: str) -> Frame:
    dim = obj.get("dim")
    vectors = obj.get("vectors")
    if not _is_count(dim):
        raise ParseError(f"{source}: 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(vectors, list) or not vectors:
        raise ParseError(f"{source}: 'vectors' must be a nonempty list")
    if not all(isinstance(vec, list) and len(vec) == dim for vec in vectors):
        for i, vec in enumerate(vectors):  # the first bad row or entry, in document order
            if not isinstance(vec, list):
                raise ParseError(f"{source}: vectors[{i}] is not a list")
            if len(vec) != dim:
                raise DimensionMismatch(f"{source}: vectors[{i}] has length {len(vec)}, "
                                        f"expected dim {dim}")
            _complex_array(vec, lambda j: f"{source}: vectors[{i}][{j}]")
    flat = _complex_array([entry for vec in vectors for entry in vec],
                          lambda k: f"{source}: vectors[{k // dim}][{k % dim}]")
    return Frame(flat.reshape(len(vectors), dim))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _parse_matrix(obj: dict, source: str) -> np.ndarray:
    rows, cols, data = obj.get("rows"), obj.get("cols"), obj.get("data")
    if not _is_count(rows) or not _is_count(cols):
        raise ParseError(f"{source}: 'rows'/'cols' must be positive integers")
    if not isinstance(data, list):
        raise ParseError(f"{source}: 'data' must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise DimensionMismatch(
            f"{source}: 'data' has {len(data)} entries, expected rows*cols = {rows * cols}"
        )
    flat = _complex_array(data, lambda i: f"{source}: data[{i}]")
    return as_matrix(flat.reshape(rows, cols), source)


def _parse_symbol(obj: dict, source: str) -> Symbol:
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise ParseError(f"{source}: 'values' must be a nonempty list")
    lower, upper = obj.get("lower"), obj.get("upper")
    return Symbol(_complex_array(values, lambda i: f"{source}: values[{i}]"),
                  None if lower is None else _number(lower, f"{source}: 'lower'"),
                  None if upper is None else _number(upper, f"{source}: 'upper'"))


def parse_obj(obj, source: str = "<input>"):
    """Dispatch on the document shape; returns Frame, matrix or Symbol."""
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top level must be a JSON object")
    if "vectors" in obj:
        return _parse_frame(obj, source)
    if "data" in obj:
        return _parse_matrix(obj, source)
    if "values" in obj:
        return _parse_symbol(obj, source)
    raise ParseError(
        f"{source}: unrecognized document (need 'vectors', 'data' or 'values')"
    )


def parse_file(path):
    """Parse a frame / matrix / symbol file, with file context in errors."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{p}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        return parse_obj(json.loads(text), str(p))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:  # json.loads, or the repr naming an over-deep field
        raise ParseError(f"{p}: JSON nested too deeply") from None


def _pairs(a: np.ndarray) -> list:
    """``a`` with each entry as an [re, im] list of Python floats."""
    return np.stack([a.real, a.imag], -1).tolist()


def frame_to_obj(f: Frame) -> dict:
    return {"dim": f.ambient_dim, "vectors": _pairs(f.vectors)}


def matrix_to_obj(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": _pairs(a.reshape(-1)),
    }


def symbol_to_obj(s: Symbol) -> dict:
    obj = {"values": _pairs(s.values)}
    if s.lower is not None:
        obj["lower"] = float(s.lower)
        obj["upper"] = float(s.upper)
    return obj


def write_file(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
