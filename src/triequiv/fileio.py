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
that are not finite are rejected.  Files are UTF-8, a leading byte-order mark
allowed.  After a check of the headers, one numpy call reads every record; a
document it declines (a fault, an index past int64, a ``0_1`` token,
non-ASCII records, no record) is read line by line, which reads it or names
its first fault.  Of several faults, the first line-local one by line is
reported (a header or record wrong in itself or in its place); without one,
a missing ``dims:`` line, then the first out-of-range or repeated index.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import warnings

import numpy as np

from .states import TripartiteState, normalized

DECISION_SCHEMA = "triequiv.decision/2"
INVARIANTS_SCHEMA = "triequiv.invariants/1"


class StateFormatError(ValueError):
    """Malformed state or matrix document; message carries source:line."""


with warnings.catch_warnings():  # once, at import: older numpy reads the int64
    warnings.simplefilter("ignore")  # field "1.0" via float, which the walk declines
    try:
        _EXACT_INTS = not np.loadtxt(["1.0"], np.int64)  # reached on older numpy
    except ValueError:
        _EXACT_INTS = True


def _scan(text: str, source: str, index_count: int):
    """Read a document: header checks, one ``np.loadtxt``, else :func:`_walk`."""
    lines = text.splitlines()
    heads = [  # a comment can only cut a first token short: it makes no header
        row
        for row, line in enumerate(lines)
        if ":" in line and line.split()[0].startswith(("label:", "dims:"))
    ]
    body = lines.copy()  # the records alone, at their lines
    for row in heads:
        body[row] = ""
    try:
        (top,) = [row for row in heads if lines[row].split()[0].startswith("dims:")]
        dims = tuple(map(int, lines[top].split("#", 1)[0].split(":", 1)[1].split()))
        if len(heads) > 2 or len(dims) != index_count or min(dims) < 1:
            raise ValueError
        rows = (row for row, line in enumerate(body) if line.split("#", 1)[0].strip())
        if next(rows, -1) < top or not _EXACT_INTS:
            raise ValueError  # a record before dims, or none: numpy would warn
        if not text.isascii() and not all(r.split("#", 1)[0].isascii() for r in body):
            raise ValueError  # numpy reads "\u01fe1" as the index 4621
        record = [("index", np.int64, (index_count,)), ("value", np.float64, (2,))]
        records = np.loadtxt(body[top + 1 :], record, ndmin=1)
        values = np.ascontiguousarray(records["value"]).view(np.complex128)[:, 0]
        if not np.isfinite(values).all():
            raise ValueError
        indices = records["index"].T
    except ValueError:
        dims, indices, values = _walk(lines, source, index_count)
    return _fill(dims, indices, values, body, source)


def _walk(lines, source: str, index_count: int):
    """Read line by line to ``(dims, indices, values)``; raises the first fault met."""
    has_label, dims, index_rows, values = False, None, [], []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        where = f"{source}:{lineno}"
        if tokens[0].startswith("label:"):
            if has_label:
                raise StateFormatError(f"{where}: duplicate label line")
            has_label = True
        elif tokens[0].startswith("dims:"):
            if dims is not None:
                raise StateFormatError(f"{where}: duplicate dims line")
            fields = line.split(":", 1)[1].split()
            if len(fields) != index_count:
                raise StateFormatError(
                    f"{where}: dims needs {index_count} integers, got {len(fields)}"
                )
            try:
                dims = tuple(map(int, fields))
            except ValueError as exc:
                raise StateFormatError(f"{where}: bad dims: {exc}") from None
            if min(dims) < 1:
                raise StateFormatError(f"{where}: dims must be positive")
        elif dims is None:
            raise StateFormatError(f"{where}: record appears before the dims line")
        elif len(tokens) != index_count + 2:
            raise StateFormatError(
                f"{where}: expected {index_count} indices plus re im, "
                f"got {len(tokens)} fields"
            )
        else:
            *index, re, im = tokens
            try:
                index_rows.append(list(map(int, index)))
                value = complex(float(re), float(im))
            except ValueError as exc:
                raise StateFormatError(f"{where}: bad record: {exc}") from None
            if not cmath.isfinite(value):
                raise StateFormatError(
                    f"{where}: bad record: amplitude {re} {im} is not finite"
                )
            values.append(value)
    if dims is None:
        raise StateFormatError(f"{source}: missing dims line")
    try:
        indices = np.array(index_rows, dtype=np.int64)
    except OverflowError:  # past int64, so out of range: an object array keeps them
        indices = np.array(index_rows, dtype=object)
    return dims, indices.reshape(-1, index_count).T, np.array(values, dtype=np.complex128)


def _fill(dims, indices, values, body, source: str) -> np.ndarray:
    """Scatter the records into a zero array after range and duplicate checks.

    The first record that is out of range, or repeats the index of an earlier
    record, is reported with its line, counted in ``body`` only then.
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
        records = [n for n, line in enumerate(body, 1) if line.split("#", 1)[0].strip()]
        if inside[pos]:
            raise StateFormatError(f"{source}:{records[pos]}: duplicate index {idx}")
        component = int(np.argmax(outside[:, pos])) + 1
        raise StateFormatError(
            f"{source}:{records[pos]}: index {idx} out of range for dims {dims} "
            f"(component {component})"
        )
    out.reshape(-1)[flat] = values
    return out


def parse_state(
    text: str, strict: bool = False, source: str = "<string>"
) -> TripartiteState:
    """Parse a state document.

    Amplitudes that :class:`~triequiv.states.TripartiteState`, the one norm
    test, accepts are kept exactly as read.  Others are rejected in strict
    mode and otherwise renormalized by :func:`~triequiv.states.normalized`,
    as ``from_unnormalized`` would, with a ``RuntimeWarning`` that names the
    caller's line.  No (or all-zero) amplitude records are refused as the zero state.
    """
    return _read_state(text, strict, source)


def load_state(path, strict: bool = False) -> TripartiteState:
    """Read a state file, as :func:`parse_state` reads its text."""
    return _read_state(_read_text(path), strict, str(path))


def _read_text(path) -> str:
    """A file's UTF-8 text, less a leading byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"{path}: not UTF-8 at byte {exc.start}") from None


def _read_state(text: str, strict: bool, source: str) -> TripartiteState:
    """The body of :func:`parse_state` and :func:`load_state`, one call below both."""
    amps = _scan(text, source, index_count=3)
    with contextlib.suppress(ValueError):  # _scan's amps are finite: only a norm fails
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
        stacklevel=3,  # the caller of parse_state or load_state
    )
    return TripartiteState(amps)


def _document(array: np.ndarray, label: str | None) -> str:
    """Header lines, then one record per nonzero entry of ``array`` in index order."""
    if label and label.splitlines() != [label]:
        raise ValueError(f"a label cannot hold a line break: {label!r}")
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
    """Read a matrix file, as :func:`parse_matrix` reads its text."""
    return parse_matrix(_read_text(path), source=str(path))


def serialize_matrix(matrix: np.ndarray, label: str | None = None) -> str:
    """Render a matrix document; exact round trip through :func:`parse_matrix`."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got {matrix.ndim} axes")
    if not np.isfinite(matrix).all():
        raise ValueError("a matrix document holds finite entries only")
    return _document(matrix, label)


def matrix_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    """Complex matrix as nested [re, im] pairs (JSON-safe)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return np.stack((matrix.real, matrix.imag), axis=-1).tolist()


def report_to_json(report: dict | list) -> str:
    """One line: sorted keys, ``": "`` after each key, then a newline.

    The C encoder renders it (any ``indent`` takes the pure-Python one);
    ``python -m json.tool`` pretty-prints a report.
    """
    return json.dumps(report, sort_keys=True, separators=(",", ": ")) + "\n"
