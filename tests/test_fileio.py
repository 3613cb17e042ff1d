import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triequiv import fileio
from triequiv.fileio import (
    StateFormatError,
    load_matrix,
    load_state,
    matrix_pairs,
    parse_matrix,
    parse_state,
    report_to_json,
    serialize_matrix,
    serialize_state,
)
from triequiv.cli import _decision_report
from triequiv.equivalence import decide_equivalence
from triequiv.states import (
    TripartiteState,
    apply_local_unitaries,
    normalized,
    random_state,
    random_unitary,
)
from triequiv.tolerances import NORM_TOL, Tolerances
from util import RT2, golden_pair_222, oracle_document, oracle_json, oracle_matrix_pairs


class TestStateRoundTrip:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3)])
    def test_exact_round_trip(self, dims):
        state = random_state(dims, seed=sum(dims))
        parsed = parse_state(serialize_state(state))
        assert np.array_equal(parsed.amplitudes, state.amplitudes)

    def test_zero_entries_omitted_and_restored(self):
        state, _ = golden_pair_222()
        text = serialize_state(state, label="sparse")
        assert len([l for l in text.splitlines() if l and not l.startswith(("label", "dims"))]) == 2
        parsed = parse_state(text)
        assert np.array_equal(parsed.amplitudes, state.amplitudes)

    def test_label_preserved_in_text(self):
        state, _ = golden_pair_222()
        assert "label: golden" in serialize_state(state, label="golden")

    def test_load_state(self, tmp_path):
        state = random_state((2, 2, 3), seed=5)
        path = tmp_path / "s.state"
        path.write_text(serialize_state(state))
        assert np.array_equal(load_state(path).amplitudes, state.amplitudes)

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        # Some editors start UTF-8 files with one; it is not part of line 1.
        documents = {
            "s.state": serialize_state(random_state((3, 2, 4), seed=6), label="bom"),
            "u.mat": serialize_matrix(random_unitary(3, seed=6), label="bom"),
        }
        for name, document in documents.items():
            (tmp_path / name).write_text(document, encoding="utf-8")
            (tmp_path / f"bom-{name}").write_text(document, encoding="utf-8-sig")
            assert (tmp_path / f"bom-{name}").read_bytes().startswith(b"\xef\xbb\xbf")
        plain, marked = (load_state(tmp_path / f"{b}s.state") for b in ("", "bom-"))
        assert plain.amplitudes.tobytes() == marked.amplitudes.tobytes()
        plain, marked = (load_matrix(tmp_path / f"{b}u.mat") for b in ("", "bom-"))
        assert plain.tobytes() == marked.tobytes()

    @pytest.mark.parametrize("load", [load_state, load_matrix])
    def test_a_file_that_is_not_utf8_is_named(self, load, tmp_path):
        path = tmp_path / "l1.state"
        path.write_bytes("# caf\xe9\ndims: 1 1 1\n1 1 1  1 0\n".encode("latin-1"))
        with pytest.raises(StateFormatError, match=r"l1\.state: not UTF-8 at byte 5"):
            load(path)


class TestStateParsing:
    def test_golden_document(self):
        text = "\n".join(
            [
                "# two amplitudes",
                "dims: 2 2 2",
                "1 1 2  0.70710678118654746 0",
                "2 1 1  0.70710678118654746 0",
            ]
        )
        parsed = parse_state(text)
        assert abs(parsed.amplitudes[0, 0, 1] - 1 / RT2) < 1e-15
        assert abs(parsed.amplitudes[1, 0, 0] - 1 / RT2) < 1e-15

    def test_missing_dims(self):
        with pytest.raises(StateFormatError, match="missing dims"):
            parse_state("# nothing but a comment\n")

    def test_record_before_dims(self):
        with pytest.raises(StateFormatError, match="before the dims"):
            parse_state("1 1 1 1 0\ndims: 2 2 2\n")

    def test_bad_field_count(self):
        with pytest.raises(StateFormatError, match="fields"):
            parse_state("dims: 2 2 2\n1 1 1 0.5\n")

    def test_out_of_range_index_names_record(self):
        with pytest.raises(StateFormatError, match=r"\(3, 1, 1\)"):
            parse_state("dims: 2 2 2\n3 1 1 1 0\n")

    def test_duplicate_index(self):
        with pytest.raises(StateFormatError, match="duplicate"):
            parse_state("dims: 2 2 2\n1 1 1 0.5 0\n1 1 1 0.5 0\n")

    def test_zero_state(self):
        with pytest.raises(StateFormatError, match="zero state"):
            parse_state("dims: 2 2 2\n")

    def test_strict_rejects_off_norm(self):
        with pytest.raises(StateFormatError, match="strict"):
            parse_state("dims: 2 2 2\n1 1 1 0.5 0\n", strict=True)

    def test_lenient_normalizes_with_warning(self):
        with pytest.warns(RuntimeWarning, match="renormalizing"):
            parsed = parse_state("dims: 2 2 2\n1 1 1 0.5 0\n")
        assert abs(np.linalg.norm(parsed.amplitudes) - 1.0) < 1e-15

    def test_renormalization_warning_names_the_caller(self, tmp_path):
        # Not fileio.py: the warning points at the line that read the state,
        # whether it read text or a file.
        text = "dims: 2 2 2\n1 1 1 0.5 0\n"
        path = tmp_path / "off.state"
        path.write_text(text)
        for read in (lambda: parse_state(text), lambda: load_state(path)):
            with pytest.warns(RuntimeWarning, match="renormalizing") as record:
                read()
            assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("value", ["1e-170", "1e200", "1.7e308", "5e-324"])
    def test_off_scale_amplitudes_are_renormalized(self, value):
        # sum |a|^2 underflows to 0 or overflows to inf for these values.
        text = f"dims: 2 2 2\n1 1 1 {value} 0\n2 1 2 {value} {value}\n2 2 2 0 {value}\n"
        with pytest.warns(RuntimeWarning) as record:
            parsed = parse_state(text)
        assert [str(w.message) for w in record] == [
            f"<string>: renormalizing state with sum |a|^2 = 4.0 * {float(value)!r}^2"
        ]
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0, 0, 0], expected[1, 0, 1], expected[1, 1, 1] = 0.5, 0.5 + 0.5j, 0.5j
        np.testing.assert_allclose(parsed.amplitudes, expected, rtol=0, atol=1e-15)
        with pytest.raises(StateFormatError, match="strict"):
            parse_state(text, strict=True)

    def test_zero_amplitude_records_are_the_zero_state(self):
        text = "dims: 2 2 2\n1 1 1 0 0\n2 2 2 -0.0 0\n"
        for strict in (False, True):
            with pytest.raises(StateFormatError, match="zero state"):
                parse_state(text, strict=strict)

    def test_error_carries_source_and_line(self):
        with pytest.raises(StateFormatError, match=r"input\.state:2"):
            parse_state("dims: 2 2 2\n1 1 nope 1 0\n", source="input.state")


# One document per StateFormatError kind, each with a single fault, and the
# full message it must give.  The last documents carry two faults: the one
# on the earlier line wins, and every fault found while reading the lines
# wins over the range and duplicate checks made after them.
GOLDEN_ERRORS = {
    "duplicate-label": (
        "label: a\ndims: 2 2 2\nlabel: b\n1 1 1 1 0\n",
        "s.state:3: duplicate label line",
    ),
    "duplicate-dims": (
        "dims: 2 2 2\n1 1 1 1 0\ndims: 2 2 2\n",
        "s.state:3: duplicate dims line",
    ),
    "dims-count": ("# c\ndims: 2 2\n", "s.state:2: dims needs 3 integers, got 2"),
    "dims-not-integer": (
        "dims: 2 x 2\n",
        "s.state:1: bad dims: invalid literal for int() with base 10: 'x'",
    ),
    "dims-not-positive": ("dims: 2 0 2\n", "s.state:1: dims must be positive"),
    "record-before-dims": (
        "\n1 1 1 1 0\ndims: 2 2 2\n",
        "s.state:2: record appears before the dims line",
    ),
    "field-count": (
        "dims: 2 2 2\n1 1 1 1 0\n1 2 1 0.5\n",
        "s.state:3: expected 3 indices plus re im, got 4 fields",
    ),
    "bad-integer": (
        "dims: 2 2 2\n1 1 1 1 0\n1 1.0 2 1 0\n",
        "s.state:3: bad record: invalid literal for int() with base 10: '1.0'",
    ),
    "bad-float": (
        "dims: 2 2 2\n1 1 1 1 0\n1 2 2 0 1,5\n",
        "s.state:3: bad record: could not convert string to float: '1,5'",
    ),
    "out-of-range": (
        "dims: 2 2 2\n1 1 1 1 0\n2 2 3 0 0\n",
        "s.state:3: index (2, 2, 3) out of range for dims (2, 2, 2) (component 3)",
    ),
    "out-of-range-negative": (
        "dims: 2 2 2\n1 -1 1 1 0\n",
        "s.state:2: index (1, -1, 1) out of range for dims (2, 2, 2) (component 2)",
    ),
    "out-of-range-huge": (
        "dims: 2 2 2\n99999999999999999999 1 1 1 0\n",
        "s.state:2: index (99999999999999999999, 1, 1) out of range for dims "
        "(2, 2, 2) (component 1)",
    ),
    "duplicate-index": (
        "dims: 2 2 2\n1 1 1 0.6 0\n2 2 2 0.6 0\n1 1 1 0.8 0\n",
        "s.state:4: duplicate index (1, 1, 1)",
    ),
    "not-finite-nan": (
        "dims: 1 1 1\n1 1 1 nan 0\n",
        "s.state:2: bad record: amplitude nan 0 is not finite",
    ),
    "not-finite-inf": (
        "dims: 1 1 2\n1 1 1 1 0\n1 1 2 0 -inf\n",
        "s.state:3: bad record: amplitude 0 -inf is not finite",
    ),
    "not-finite-overflow": (
        "dims: 1 1 1\n1 1 1 1e400 0\n",
        "s.state:2: bad record: amplitude 1e400 0 is not finite",
    ),
    "zero-state": (
        "dims: 2 2 2\n1 1 1 0 0\n",
        "s.state: amplitudes describe the zero state",
    ),
    "strict-off-norm": (
        "dims: 2 2 2\n1 1 1 0.5 0\n",
        "s.state: state is not normalized (sum |a|^2 = 0.25) and strict mode is on",
    ),
    "strict-underflow": (
        "dims: 2 2 2\n1 1 1 1e-170 0\n",
        "s.state: state is not normalized (sum |a|^2 = 1.0 * 1e-170^2) "
        "and strict mode is on",
    ),
    "strict-overflow": (
        "dims: 2 2 2\n1 1 1 0 -1e200\n",
        "s.state: state is not normalized (sum |a|^2 = 1.0 * 1e+200^2) "
        "and strict mode is on",
    ),
    "missing-dims": ("# only\n\n", "s.state: missing dims line"),
    "bad-float-before-duplicate-dims": (
        "dims: 2 2 2\n1 1 1 x 0\ndims: 2 2 2\n",
        "s.state:2: bad record: could not convert string to float: 'x'",
    ),
    "field-count-before-duplicate-label": (
        "dims: 2 2 2\n1 1 1 1\nlabel: late\n",
        "s.state:2: expected 3 indices plus re im, got 4 fields",
    ),
    "bad-integer-before-field-count": (
        "dims: 2 2 2\n1 one 1 1 0\n1 1 1\n",
        "s.state:2: bad record: invalid literal for int() with base 10: 'one'",
    ),
    "bad-float-after-out-of-range": (
        "dims: 2 2 2\n3 1 1 1 0\n1 1 1 1 y\n",
        "s.state:3: bad record: could not convert string to float: 'y'",
    ),
    "duplicate-before-out-of-range": (
        "dims: 2 2 2\n1 1 1 1 0\n1 1 1 1 0\n3 1 1 1 0\n",
        "s.state:3: duplicate index (1, 1, 1)",
    ),
    "out-of-range-before-duplicate": (
        "dims: 2 2 2\n1 1 1 1 0\n1 1 5 1 0\n1 1 1 1 0\n",
        "s.state:3: index (1, 1, 5) out of range for dims (2, 2, 2) (component 3)",
    ),
}


def _faulty_line(kind, lines, row, dims, data):
    """Record line ``row`` of a serialised state document, with one fault of ``kind``."""
    tokens = lines[row].split()
    if kind == "duplicate-label":
        return "label: q"
    if kind == "duplicate-dims":
        return lines[1]
    if kind == "duplicate-index":
        return " ".join(lines[2].split()[:3] + tokens[3:])
    if kind == "field-count":
        return " ".join(data.draw(st.sampled_from([tokens[:4], tokens + ["0"]])))
    if kind == "out-of-range":
        axis = data.draw(st.integers(0, 2))
        positions, values = [axis], [0, -1, dims[axis] + 1, 10**20]
    else:
        positions, values = {
            "bad-integer": ([0, 1, 2], ["1.0", "x", "2e0"]),
            "bad-float": ([3, 4], ["1,5", "y", "0..1"]),
            "not-finite": ([3, 4], ["nan", "-inf", "1e400"]),
        }[kind]
    tokens[data.draw(st.sampled_from(positions))] = str(data.draw(st.sampled_from(values)))
    return " ".join(tokens)


INDEX_FAULTS = ["duplicate-index", "out-of-range"]
FAULT_KINDS = INDEX_FAULTS + [
    "bad-float",
    "bad-integer",
    "duplicate-dims",
    "duplicate-label",
    "field-count",
    "not-finite",
]


def _exact_records(amps: np.ndarray) -> str:
    """A state document listing every entry of ``amps`` with exact values."""
    lines = ["dims: " + " ".join(map(str, amps.shape))]
    for index, value in np.ndenumerate(amps):
        idx = " ".join(str(i + 1) for i in index)
        lines.append(f"{idx} {float(value.real)!r} {float(value.imag)!r}")
    return "\n".join(lines) + "\n"


class TestOneNormaliser:
    """A file and the library turn the same off-norm tensor into the same state."""

    @staticmethod
    def _assert_same_state(amps):
        with pytest.warns(RuntimeWarning, match="renormalizing"):
            parsed = parse_state(_exact_records(amps))
        built = TripartiteState.from_unnormalized(amps)
        assert np.array_equal(parsed.amplitudes, built.amplitudes)

    def test_seeded_off_norm_tensors(self):
        rng = np.random.default_rng(2000)
        for _ in range(500):
            dims = tuple(rng.integers(1, 6, size=3))
            amps = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            amps *= 10.0 ** rng.uniform(-150, 150)
            assert abs(np.sum(np.abs(amps) ** 2) - 1.0) > NORM_TOL
            self._assert_same_state(amps)

    @pytest.mark.parametrize("scale", [1e-170, 1e200, 5e-324, 1.7e308, 2e-162])
    def test_off_scale_tensors(self, scale):
        amps = np.zeros((2, 3, 2), dtype=complex)
        amps[0, 0, 0], amps[1, 2, 1], amps[1, 1, 0] = 1, 1 + 1j, -1j
        self._assert_same_state(amps * scale)

    @pytest.mark.parametrize("offset", [-2.0, -0.5, 0.5, 2.0])
    def test_norm_boundary(self, offset, tmp_path):
        # TripartiteState's norm test decides: within NORM_TOL the records are
        # kept bit for bit with no warning, past it renormalized or refused.
        amps = random_state((2, 3, 2), 7).amplitudes * np.sqrt(1 + offset * NORM_TOL)
        sq_norm = np.sum(np.abs(amps) ** 2)
        assert abs(sq_norm - 1 - offset * NORM_TOL) < 0.05 * NORM_TOL
        path = tmp_path / "edge.state"
        path.write_text(_exact_records(amps))
        if abs(offset) < 1:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parsed = load_state(path, strict=True)
            assert np.array_equal(parsed.amplitudes, amps)
            return
        with pytest.warns(RuntimeWarning, match="renormalizing") as record:
            parsed = load_state(path)
        assert [w.filename for w in record] == [__file__]
        built = TripartiteState.from_unnormalized(amps)
        assert np.array_equal(parsed.amplitudes, built.amplitudes)
        with pytest.raises(StateFormatError, match="strict mode is on"):
            load_state(path, strict=True)

    def test_subnormal_sum_strict_message(self):
        text = "dims: 2 1 1\n1 1 1 2e-162 0\n2 1 1 0 2e-162\n"
        with pytest.raises(StateFormatError) as caught:
            parse_state(text, strict=True, source="s.state")
        assert str(caught.value) == (
            "s.state: state is not normalized (sum |a|^2 = 2.0 * 2e-162^2) "
            "and strict mode is on"
        )


class TestErrorMessages:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_ERRORS))
    def test_state_message(self, kind):
        text, message = GOLDEN_ERRORS[kind]
        with pytest.raises(StateFormatError) as err:
            parse_state(text, strict=True, source="s.state")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dims: 2 2 2\n", "m.txt:1: dims needs 2 integers, got 3"),
            (
                "dims: 2 2\n1 1 1 0\n1 1 0 0 0\n",
                "m.txt:3: expected 2 indices plus re im, got 5 fields",
            ),
            (
                "dims: 2 3\n2 4 1 0\n",
                "m.txt:2: index (2, 4) out of range for dims (2, 3) (component 2)",
            ),
            ("dims: 2 3\n2 1 1 0\n2 1 1 0\n", "m.txt:3: duplicate index (2, 1)"),
            (
                "dims: 1 1\n1 1 nan 0\n",
                "m.txt:2: bad record: amplitude nan 0 is not finite",
            ),
            # Two faults, a bad float on line 3 and a second dims line on line 4.
            (
                "dims: 2 2\n1 1  1 0\n2 2  1,5 0\ndims: 2 2\n",
                "m.txt:3: bad record: could not convert string to float: '1,5'",
            ),
        ],
    )
    def test_matrix_message(self, text, message):
        with pytest.raises(StateFormatError) as err:
            parse_matrix(text, source="m.txt")
        assert str(err.value) == message

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(2, 4)] * 3),
        kinds=st.lists(st.sampled_from(FAULT_KINDS), min_size=2, max_size=2, unique=True),
        data=st.data(),
    )
    def test_two_faults_report_the_first_by_the_rule(self, dims, kinds, data):
        """Of two faults, the first line-local one by line wins, else the first by line.

        Each fault alone is the oracle for its own message.  Faults replace
        whole record lines, so line numbers never shift; the first record is
        never touched, and a duplicate index repeats it.
        """
        lines = serialize_state(random_state(dims, seed=sum(dims)), label="p").splitlines()
        rows = data.draw(
            st.lists(st.integers(3, len(lines) - 1), min_size=2, max_size=2, unique=True)
        )
        faulty = [
            (row, _faulty_line(kind, lines, row, dims, data)) for kind, row in zip(kinds, rows)
        ]

        def message(*faults):
            text = lines.copy()
            for row, line in faults:
                text[row] = line
            with pytest.raises(StateFormatError) as err:
                parse_state("\n".join(text) + "\n", strict=True, source="s.state")
            return str(err.value)

        alone = {row: message((row, line)) for row, line in faulty}
        local = [row for kind, row in zip(kinds, rows) if kind not in INDEX_FAULTS]
        first = min(local) if local else min(rows)
        assert alone[first].startswith(f"s.state:{first + 1}: ")
        assert message(*faulty) == alone[first]


AWKWARD = [0.0, -0.0, 0.1, 1 / 3, -np.pi, 1e-300, 2**-52, 1 + 2**-52, -5e-324, 1e300]


def _decorate(text: str, data) -> str:
    """Interleave comments and blank lines, add trailing comments, maybe CRLF."""
    out = []
    for line in text.splitlines():
        extra = data.draw(st.sampled_from(["", "# note", "   ", "\t# x"]))
        if extra:
            out.append(extra)
        out.append(line + data.draw(st.sampled_from(["", "  # tail", " "])))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + newline


def _sparse(data, dims, values):
    size = int(np.prod(dims))
    keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    out = np.zeros(size, dtype=complex)
    for pos in np.flatnonzero(keep):
        out[pos] = complex(data.draw(values), data.draw(values))
    return out.reshape(dims)


_DIM = st.integers(1, 6)


class TestRoundTripProperty:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dims=st.tuples(_DIM, _DIM, _DIM), data=st.data())
    def test_state_round_trip(self, dims, data):
        amps = _sparse(data, dims, st.floats(-1, 1, allow_nan=False))
        if data.draw(st.booleans()) or not amps.any():
            amps[:] = 0
            amps[(0, 0, 0)] = 1 + 2**-52  # sum |a|^2 = 1 + 2**-51, within NORM_TOL
        else:
            # Not amps / np.linalg.norm(amps): that norm underflows for
            # amplitudes below about 1e-154 and leaves the state off norm.
            amps = normalized(amps)[0]
        # Values far below the norm tolerance keep the state normalized.
        tiny = st.sampled_from([1e-300, 2**-60, -5e-324, 0.0, -0.0])
        for pos in zip(*np.nonzero(amps == 0)):
            if data.draw(st.booleans()):
                amps[pos] = complex(data.draw(tiny), data.draw(tiny))
        state = TripartiteState(amps)
        document = serialize_state(state, label="p")
        assert document == oracle_document(state.amplitudes, label="p")
        text = _decorate(document, data)
        parsed = parse_state(text, strict=True)
        assert np.array_equal(parsed.amplitudes, state.amplitudes)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dims=st.tuples(_DIM, _DIM), data=st.data())
    def test_matrix_round_trip(self, dims, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = st.sampled_from(AWKWARD) | finite
        mat = _sparse(data, dims, values)
        document = serialize_matrix(mat, label="m")
        assert document == oracle_document(mat, label="m")
        text = _decorate(document, data)
        assert np.array_equal(parse_matrix(text), mat)


class TestLabels:
    @pytest.mark.parametrize(
        "label",
        ["a\n1 1 1 1 0", "x\u2028dims: 2 2 2", "a\r", "a\x0cb", "a\x1eb", "a\x85b"],
    )
    def test_a_label_with_a_line_break_is_refused(self, label):
        # Written as it is, the label's second line would be read as a record
        # or a header, and the round trip would fail.
        state, _ = golden_pair_222()
        with pytest.raises(ValueError, match="line break"):
            serialize_state(state, label=label)
        with pytest.raises(ValueError, match="line break"):
            serialize_matrix(np.eye(2), label=label)

    @pytest.mark.parametrize("label", ["a # not a comment", "ψ ok", "tab\tinside", "x:y"])
    def test_other_labels_round_trip(self, label):
        state = random_state((2, 3, 2), seed=4)
        text = serialize_state(state, label=label)
        assert np.array_equal(parse_state(text, strict=True).amplitudes, state.amplitudes)


def _perturbed(document: str, perturbations, data) -> str:
    """``document`` (label, dims, records) with each of ``perturbations``.

    Field and token perturbations change the last record; the layout ones
    then move, indent, comment and separate the lines.
    """
    lines = document.splitlines()
    head = 2 if lines[0].startswith("label:") else 1
    tokens = lines[-1].split()
    for perturbation in perturbations:
        if head == len(lines) or perturbation in LAYOUTS:
            continue  # no record is left to change, or a layout for below
        if perturbation == "no-records":
            del lines[head:]
            continue
        if perturbation == "field-count":
            tokens = data.draw(st.sampled_from([tokens[:-1], tokens + ["0"]]))
        elif perturbation in ("nan", "1e400"):
            tokens[data.draw(st.sampled_from([-2, -1]))] = perturbation
        else:
            axis = data.draw(st.integers(0, len(tokens) - 3))
            tokens[axis] = {
                "plus": "+" + tokens[axis],
                "underscore": "0_" + tokens[axis],
                "non-ascii": data.draw(st.sampled_from(NON_ASCII)),
                "past-int64": data.draw(st.sampled_from(["9223372036854775808", "1" * 25])),
                "float-index": tokens[axis] + ".0",
            }[perturbation]
        lines[-1] = " ".join(tokens)
    if "label-after" in perturbations and head == 2:
        lines = lines[1:] + [lines[0] + " # moved"]
    if "indent" in perturbations:
        lines = ["   " + line if ":" in line else line for line in lines]
    if "comments" in perturbations:
        tail = data.draw(st.sampled_from(["  # tail", "#", "\t# \u03c8"]))
        lines = ["# top", *[line + tail for line in lines], "#"]
    if "blank" in perturbations:
        blank = data.draw(st.sampled_from(["", "  ", "\t"]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    newline = "\r\n" if "crlf" in perturbations else "\n"
    return newline.join(lines) + newline


LAYOUTS = ["crlf", "blank", "comments", "label-after", "indent"]
PERTURBATIONS = LAYOUTS + ["no-records", "field-count", "plus", "underscore"]
PERTURBATIONS += ["non-ascii", "past-int64", "float-index", "nan", "1e400"]
# Arabic-indic and fullwidth digits, which int() reads; numpy reads "\u01fe1" as 4621.
NON_ASCII = ["\u0661", "\uff11", "\u01fe1", "1\u0660"]


def _result(text, matrix):
    """The array's shape and bits, or the error and its message; no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if matrix:
                out = parse_matrix(text, source="m.txt")
            else:
                out = parse_state(text, strict=True, source="s.state").amplitudes
        except ValueError as exc:  # a StateFormatError, or dims numpy cannot allocate
            return type(exc), str(exc)
    return out.shape, out.tobytes()


class TestTwoReaders:
    """np.loadtxt and the line walk read every document alike."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 4)] * 3),
        matrix=st.booleans(),
        label=st.sampled_from([None, "p", "a # b"]),
        perturbations=st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_loadtxt_and_the_walk_agree(self, dims, matrix, label, perturbations, data):
        if matrix:
            array = random_unitary(dims[0], seed=sum(dims))[:, : dims[1]]
            document = serialize_matrix(array, label=label)
        else:
            document = serialize_state(random_state(dims, seed=sum(dims)), label=label)
        document = _perturbed(document, perturbations, data)
        both = _result(document, matrix)
        with mock.patch.object(fileio.np, "loadtxt", side_effect=ValueError):
            walk = _result(document, matrix)
        assert both == walk

    def test_a_plain_document_is_read_by_loadtxt(self):
        state = random_state((3, 4, 2), seed=8)
        text = serialize_state(state, label="a # b \u03c8")
        decorated = "\r\n".join(["# c", *text.splitlines()[1:], "label: late", ""])
        commented = text.replace("\n", " # \u03c8 \u0661\n")  # non-ASCII comments
        with mock.patch.object(fileio, "_walk", side_effect=AssertionError):
            for document in (text, decorated, commented):
                parsed = parse_state(document, strict=True)
                assert np.array_equal(parsed.amplitudes, state.amplitudes)

    def test_reading_leaves_the_warning_filters_alone(self):
        # Before Python 3.14 the filters are process-wide, so a parse that
        # changed them would change how other threads' warnings behave.
        state = random_state((2, 3, 2), seed=6)
        text = serialize_state(state)
        refuse = mock.Mock(side_effect=AssertionError("the warning filters were changed"))
        names = ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings")
        with mock.patch.multiple(warnings, **dict.fromkeys(names, refuse)):
            amplitudes = parse_state(text).amplitudes
            errors = []
            for document in ("dims: 2 2 2\n", "dims: 2 2 2\n1.0 1 1  1 0\n"):
                with pytest.raises(StateFormatError) as err:
                    parse_state(document)
                errors.append(str(err.value))
            empty = parse_matrix("dims: 2 2\n# none\n")
        assert refuse.call_count == 0
        assert np.array_equal(amplitudes, state.amplitudes) and not empty.any()
        assert "zero state" in errors[0] and "bad record" in errors[1]

    def test_a_numpy_that_reads_integers_via_floats_uses_the_walk(self):
        # Older numpy reads the int64 field "1.0" as 1 with a DeprecationWarning;
        # the walk refuses it, so on such a numpy every document takes the walk.
        assert fileio._EXACT_INTS  # this numpy refuses it
        state = random_state((2, 2, 3), seed=7)
        text = serialize_state(state)
        walk = mock.Mock(wraps=fileio._walk)
        with mock.patch.multiple(fileio, _EXACT_INTS=False, _walk=walk):
            assert np.array_equal(parse_state(text).amplitudes, state.amplitudes)
            with pytest.raises(StateFormatError, match="s:2: bad record: invalid literal"):
                parse_state("dims: 2 2 2\n1.0 1 1  1 0\n", source="s")
        assert walk.call_count == 2

    def test_the_walk_keeps_int64_indices_where_every_index_fits(self):
        for big, dtype in (("9223372036854775807", np.int64), ("9223372036854775808", object)):
            dims, indices, values = fileio._walk(
                ["dims: 2 1 1", "1 1 1  1 0", f"{big} 1 1  0 1"], "s", 3
            )
            assert indices.dtype == dtype and indices.shape == (3, 2)
            assert indices[:, 1].tolist() == [int(big), 1, 1]

    @pytest.mark.parametrize(
        "token, message",
        [
            ("0_1", None),
            ("\u0661", None),  # ARABIC-INDIC DIGIT ONE, which int() reads
            # numpy's integer reader takes "\u01fe1" for 4621; int() refuses it.
            ("\u01fe1", "s:2: bad record: invalid literal for int() with base 10: '\u01fe1'"),
            (
                "9223372036854775808",
                "s:2: index (9223372036854775808, 1, 1) out of range for dims (2, 1, 1) "
                "(component 1)",
            ),
        ],
    )
    def test_the_walk_reads_what_loadtxt_declines(self, token, message):
        text = f"dims: 2 1 1\n{token} 1 1  1 0\n"
        if message is None:
            assert parse_state(text).amplitudes.tolist() == [[[1]], [[0]]]
        else:
            with pytest.raises(StateFormatError) as err:
                parse_state(text, source="s")
            assert str(err.value) == message


class TestMatrixFiles:
    def test_round_trip(self):
        mat = random_unitary(4, seed=3)
        parsed = parse_matrix(serialize_matrix(mat, label="u"))
        assert np.array_equal(parsed, mat)

    def test_rectangular(self):
        mat = np.arange(6, dtype=complex).reshape(2, 3)
        assert np.array_equal(parse_matrix(serialize_matrix(mat)), mat)

    def test_serialize_rejects_vector(self):
        with pytest.raises(ValueError):
            serialize_matrix(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_serialize_rejects_non_finite_entries(self, bad):
        # parse_matrix refuses such records, so no document is written for them.
        mat = np.eye(2, dtype=complex)
        mat[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            serialize_matrix(mat)


class TestSeventeenDigits:
    def test_awkward_floats_round_trip(self):
        values = [0.1, 1 / 3, np.pi, 1e-300, 2**-52, 1 + 2**-52]
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = values[0] + 1j * values[1]
        amps[0, 1, 1] = values[2]
        amps[1, 0, 1] = values[3] + 1j * values[4]
        amps[1, 1, 0] = values[5]
        amps /= np.linalg.norm(amps)
        state = parse_state(serialize_state(TripartiteState(amps)))
        assert np.array_equal(state.amplitudes, amps)


class TestReports:
    def test_reports_render_on_one_line_with_sorted_keys(self):
        state = random_state((2, 3, 2), seed=4)
        other = apply_local_unitaries(state, *(random_unitary(d, seed=d) for d in state.dims))
        decision = decide_equivalence(state, other)
        report = _decision_report(decision, state.dims, Tolerances(), 1.5e-3, ("a", "b"))
        assert report["certificate"] is not None
        for value in (report, [report, report], {"z": [{"b": 1, "a": None}], "y": "x: y"}):
            text = report_to_json(value)
            assert text == oracle_json(value) + "\n"
            assert text.count("\n") == 1
            assert json.loads(text) == value

    def test_json_round_trip(self):
        report = {
            "schema": "triequiv.decision/2",
            "verdict": "equivalent-d1",
            "residual": 1.25e-12,
            "power_sums": {"first": {"A": [1.0, 0.5]}},
        }
        assert json.loads(report_to_json(report)) == report

    def test_matrix_pairs_round_trip(self):
        mat = random_unitary(3, seed=9)
        assert np.array_equal(np.array(matrix_pairs(mat)).view(complex)[..., 0], mat)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 100), (100, 1), (4, 25), (10, 10)])
    def test_matrix_pairs_match_the_loop_oracle(self, shape):
        # Every (re, im) pair of AWKWARD values, as far as the shape holds
        # them, starting with (-0.0, -0.0).
        values = np.roll(AWKWARD, -1)
        mat = np.empty(shape, dtype=complex)
        mat.real = np.repeat(values, 10)[: mat.size].reshape(shape)
        mat.imag = np.tile(values, 10)[: mat.size].reshape(shape)
        expected = report_to_json(oracle_matrix_pairs(mat))
        assert report_to_json(matrix_pairs(mat)) == expected
