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
that are not finite are rejected.  Of several faults, the first line-local one
by line is reported (a header or record wrong in itself or in its place);
without one, a missing ``dims:`` line, then the first out-of-range or repeated
index.
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


class StateFormatError(ValueError):
    """Malformed state or matrix document; message carries source:line."""


def _scan(text: str, source: str, index_count: int):
    """Read a well-formed document into its amplitude array, in bulk.

    Well formed: exactly one ``dims:`` line of positive integers, before every
    record; at most one ``label:`` line; records of ``index_count`` integers
    and two finite floats, converted column by column.  Any other document
    goes to :func:`_first_fault`; :func:`_fill` checks range and duplicates.
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
    dims_rows = [row for row in headers if fields[row][0].startswith("dims:")]
    for row in headers:
        fields[row] = []
    lengths = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    linenos = np.flatnonzero(lengths) + 1
    width = index_count + 2
    if (
        len(dims_rows) != 1
        or len(headers) > 2
        or lengths[: dims_rows[0]].any()
        or (lengths[linenos - 1] != width).any()
    ):
        _first_fault(lines, source, index_count)
    flat = list(chain.from_iterable(fields))
    columns = [flat[c::width] for c in range(index_count)]
    parts = np.empty((linenos.size, 2))
    try:
        dims = tuple(map(int, lines[dims_rows[0]].split(":", 1)[1].split()))
        try:
            indices = np.array(columns, dtype=np.int64)  # int() on each token
        except OverflowError:
            # Indices beyond int64 are out of range; keep them as Python ints.
            indices = np.array([list(map(int, column)) for column in columns])
        parts[:, 0] = list(map(float, flat[index_count::width]))
        parts[:, 1] = list(map(float, flat[index_count + 1 :: width]))
    except ValueError:
        dims = ()  # a token does not convert; _first_fault names it
    if len(dims) != index_count or min(dims) < 1 or not np.isfinite(parts).all():
        _first_fault(lines, source, index_count)
    return _fill(dims, indices, parts.view(np.complex128)[:, 0], linenos, source)


def _first_fault(lines, source: str, index_count: int):
    """Raise the first line-local fault, else the missing ``dims:`` line."""
    has_label = has_dims = False
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        where = f"{source}:{lineno}"
        if tokens[0].startswith("label:"):
            if has_label:
                raise StateFormatError(f"{where}: duplicate label line")
            has_label = True
        elif tokens[0].startswith("dims:"):
            if has_dims:
                raise StateFormatError(f"{where}: duplicate dims line")
            dims = line.split(":", 1)[1].split()
            if len(dims) != index_count:
                raise StateFormatError(
                    f"{where}: dims needs {index_count} integers, got {len(dims)}"
                )
            try:
                positive = min(map(int, dims)) >= 1
            except ValueError as exc:
                raise StateFormatError(f"{where}: bad dims: {exc}") from None
            if not positive:
                raise StateFormatError(f"{where}: dims must be positive")
            has_dims = True
        elif not has_dims:
            raise StateFormatError(f"{where}: record appears before the dims line")
        elif len(tokens) != index_count + 2:
            raise StateFormatError(
                f"{where}: expected {index_count} indices plus re im, "
                f"got {len(tokens)} fields"
            )
        else:
            *index, re, im = tokens
            try:
                list(map(int, index))
                value = complex(float(re), float(im))
            except ValueError as exc:
                raise StateFormatError(f"{where}: bad record: {exc}") from None
            if not np.isfinite(value):
                raise StateFormatError(
                    f"{where}: bad record: amplitude {re} {im} is not finite"
                )
    if has_dims:
        raise AssertionError("the bulk read rejected a well-formed document")
    raise StateFormatError(f"{source}: missing dims line")


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
    with a ``RuntimeWarning`` that names the caller's line.  A state with no
    (or all-zero) amplitude records is rejected as a zero state.
    """
    return _read_state(text, strict, source)


def load_state(path, strict: bool = False) -> TripartiteState:
    """Read a state file, as :func:`parse_state` reads its text."""
    with open(path, "r", encoding="utf-8") as handle:
        return _read_state(handle.read(), strict, str(path))


def _read_state(text: str, strict: bool, source: str) -> TripartiteState:
    """The body of :func:`parse_state` and :func:`load_state`, one call below both."""
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
        stacklevel=3,  # the caller of parse_state or load_state
    )
    return TripartiteState(amps)


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
    """Read a matrix file, as :func:`parse_matrix` reads its text."""
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


def report_to_json(report: dict | list) -> str:
    """Stable rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
