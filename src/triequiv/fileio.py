"""Text formats for states and matrices, and JSON report serialization.

State files are plain text: an optional ``label:`` line, a ``dims: K M N``
line, then one record per amplitude with 1-based indices::

    # comment
    label: bell-like
    dims: 2 2 2
    1 1 2  0.70710678118654757 0
    2 1 1  0.70710678118654757 0

Unlisted entries are zero.  Matrix files are identical except that records
carry two indices (``dims: R C`` and ``row col re im``).  Values are written
with 17 significant digits, which round-trips IEEE doubles exactly; values
that are not finite are rejected.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain

import numpy as np

from .states import TripartiteState, normalized
from .tolerances import NORM_TOL

DECISION_SCHEMA = "triequiv.decision/2"
INVARIANTS_SCHEMA = "triequiv.invariants/1"
FACTORIZE_SCHEMA = "triequiv.factorize/1"


class StateFormatError(ValueError):
    """Malformed state or matrix document; message carries source:line."""


def _scan(text: str, source: str, index_count: int):
    """Read a document into its amplitude array.

    Every line is split into fields in bulk; only the few lines holding a
    colon can be ``label:`` or ``dims:`` headers, and only those are read one
    by one.  :func:`_convert` turns the record fields into arrays and
    :func:`_fill` checks and scatters them.  Faults are reported in line
    order, except that range and duplicate checks follow every other check,
    so a record that does not convert wins over a later misplaced header.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    fields = list(map(str.split, lines))
    headers = [
        row
        for row, line in enumerate(lines)
        if ":" in line and fields[row][0].startswith(("label:", "dims:"))
    ]
    has_label = False
    dims = None
    dims_row = fault_row = len(lines)
    fault = None
    for row in headers:
        line = lines[row].strip()
        lineno = row + 1
        if line.startswith("label:"):
            if has_label:
                fault = f"{source}:{lineno}: duplicate label line"
            has_label = True
        elif dims is not None:
            fault = f"{source}:{lineno}: duplicate dims line"
        elif len(tokens := line[len("dims:"):].split()) != index_count:
            fault = (
                f"{source}:{lineno}: dims needs {index_count} integers, "
                f"got {len(tokens)}"
            )
        else:
            try:
                dims = tuple(int(t) for t in tokens)
            except ValueError as exc:
                fault = f"{source}:{lineno}: bad dims: {exc}"
            else:
                dims_row = row
                if min(dims) < 1:
                    fault = f"{source}:{lineno}: dims must be positive"
        if fault is not None:
            fault_row = row
            break
    for row in headers:
        fields[row] = []
    before = fields[:fault_row]
    records = list(filter(None, before))
    linenos = np.flatnonzero(np.fromiter(map(len, before), dtype=np.intp)) + 1
    if records and linenos[0] - 1 < dims_row:
        raise StateFormatError(
            f"{source}:{linenos[0]}: record appears before the dims line"
        )
    indices, values = _convert(records, linenos, source, index_count)
    if fault is not None:
        raise StateFormatError(fault)
    if dims is None:
        raise StateFormatError(f"{source}: missing dims line")
    return _fill(dims, indices, values, linenos, source)


def _convert(fields, linenos, source: str, index_count: int):
    """Record fields as (indices, values), or an error naming the first bad line.

    ``indices`` is an (index_count, records) array of the 1-based indices,
    not yet checked against the dims.  The fields are converted column by
    column with ``int`` and ``float``; only when that fails, or gives a value
    that is not finite, does a walk over the records find the first bad one.
    """
    width = index_count + 2
    lengths = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    wrong = np.flatnonzero(lengths != width)
    if wrong.size:
        first = int(wrong[0])
        _convert(fields[:first], linenos[:first], source, index_count)
        raise StateFormatError(
            f"{source}:{linenos[first]}: expected {index_count} indices plus re im, "
            f"got {lengths[first]} fields"
        )
    flat = list(chain.from_iterable(fields))
    columns = [flat[c::width] for c in range(index_count)]
    parts = np.empty((len(fields), 2))
    try:
        try:
            indices = np.array(columns, dtype=np.int64)  # int() on each token
        except OverflowError:
            # Indices beyond int64 are out of range; keep them as Python ints.
            indices = np.array([list(map(int, column)) for column in columns])
        parts[:, 0] = list(map(float, flat[index_count::width]))
        parts[:, 1] = list(map(float, flat[index_count + 1 :: width]))
    except ValueError:
        parts[:] = np.nan  # the walk below names the record
    if np.isfinite(parts).all():
        return indices, parts.view(np.complex128)[:, 0]
    for lineno, tokens in zip(linenos, fields):
        try:
            for token in tokens[:index_count]:
                int(token)
            value = complex(float(tokens[index_count]), float(tokens[index_count + 1]))
        except ValueError as exc:
            raise StateFormatError(f"{source}:{lineno}: bad record: {exc}") from None
        if not np.isfinite(value):
            raise StateFormatError(
                f"{source}:{lineno}: bad record: amplitude "
                f"{tokens[index_count]} {tokens[index_count + 1]} is not finite"
            )
    raise AssertionError("a record failed to convert but none was found")


def _fill(dims, indices, values, linenos, source: str) -> np.ndarray:
    """Scatter the records into a zero array after range and duplicate checks.

    The first record that is out of range, or repeats the index of an
    earlier record, is reported with its line.
    """
    out = np.zeros(dims, dtype=np.complex128)
    outside = (indices < 1) | (indices > np.array(dims)[:, None])
    inside = ~outside.any(axis=0)
    flat = np.ravel_multi_index(tuple((indices[:, inside] - 1).astype(np.intp)), dims)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    bad = ~inside
    bad[np.flatnonzero(inside)[repeats]] = True
    if bad.any():
        pos = int(np.argmax(bad))
        idx = tuple(int(i) for i in indices[:, pos])
        if inside[pos]:
            raise StateFormatError(f"{source}:{linenos[pos]}: duplicate index {idx}")
        component = int(np.argmax(outside[:, pos])) + 1
        raise StateFormatError(
            f"{source}:{linenos[pos]}: index {idx} out of range for dims {dims} "
            f"(component {component})"
        )
    out.reshape(-1)[flat] = values
    return out


def parse_state(
    text: str, strict: bool = False, source: str = "<string>"
) -> TripartiteState:
    """Parse a state document.

    Amplitudes normalized within the package norm tolerance are kept exactly
    as read.  Others are rejected in strict mode and otherwise renormalized
    by :func:`~triequiv.states.normalized`, as ``from_unnormalized`` would,
    with a ``RuntimeWarning``.  A state with no (or all-zero) amplitude
    records is rejected as a zero state.
    """
    amps = _scan(text, source, index_count=3)
    with np.errstate(over="ignore"):
        sq_norm = float(np.sum(np.abs(amps) ** 2))
    if abs(sq_norm - 1.0) <= NORM_TOL:
        return TripartiteState(amps)
    try:
        amps, shown = normalized(amps)
    except ValueError:
        raise StateFormatError(f"{source}: amplitudes describe the zero state") from None
    if strict:
        raise StateFormatError(
            f"{source}: state is not normalized (sum |a|^2 = {shown}) "
            "and strict mode is on"
        )
    warnings.warn(
        f"{source}: renormalizing state with sum |a|^2 = {shown}",
        RuntimeWarning,
        stacklevel=2,
    )
    return TripartiteState(amps)


def load_state(path, strict: bool = False) -> TripartiteState:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_state(handle.read(), strict=strict, source=str(path))


def _document(array: np.ndarray, label: str | None) -> str:
    """Header lines, then one record per nonzero entry of ``array`` in index order."""
    index = np.nonzero(array)
    values = array[index]
    columns = [(i + 1).tolist() for i in index]
    columns += [values.real.tolist(), values.imag.tolist()]
    record = "%d " * array.ndim + " %.17g %.17g"
    lines = [f"label: {label}"] if label else []
    lines.append("dims: " + " ".join(map(str, array.shape)))
    lines += [record % fields for fields in zip(*columns)]
    return "\n".join(lines) + "\n"


def serialize_state(state: TripartiteState, label: str | None = None) -> str:
    """Render a state document; exact round trip through :func:`parse_state`."""
    return _document(state.amplitudes, label)


def parse_matrix(text: str, source: str = "<string>") -> np.ndarray:
    """Parse a matrix document (records ``row col re im``, 1-based)."""
    return _scan(text, source, index_count=2)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read(), source=str(path))


def serialize_matrix(matrix: np.ndarray, label: str | None = None) -> str:
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got {matrix.ndim} axes")
    return _document(matrix, label)


def matrix_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    """Complex matrix as nested [re, im] pairs (JSON-safe)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return np.stack((matrix.real, matrix.imag), axis=-1).tolist()


def matrix_from_pairs(obj) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in obj], dtype=np.complex128
    )


def report_to_json(report: dict | list) -> str:
    """Stable rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict) or "schema" not in report:
        raise StateFormatError("report document lacks a schema field")
    return report
