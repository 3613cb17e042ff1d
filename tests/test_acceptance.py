"""Acceptance suite: golden values, property suites, and CLI behavior.

Each test covers one acceptance criterion end to end at its stated
tolerance and prints one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from triequiv.cli import main
from triequiv.equivalence import Verdict, decide_equivalence
from triequiv.fileio import serialize_state
from triequiv.invariants import (
    nested_invariant,
    power_sum_invariants,
    singular_spectrum,
)
from triequiv.realign import is_unitarily_decomposable, kron_factorize, realign, vec
from triequiv.states import (
    Cut,
    apply_local_unitaries,
    matricize,
    random_state,
    random_unitary,
    reduced_density,
)
from util import (
    RT2,
    RT3,
    RT6,
    basis_state,
    ghz_state,
    golden_bridge_223,
    golden_pair_222,
    golden_pair_223,
    kron_apply,
    oracle_nested,
    swap_gate,
)

DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3)]
TRIALS = 100


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {name}: PASS")


def _write_pair(tmp_path, first, second):
    p1 = tmp_path / "first.state"
    p2 = tmp_path / "second.state"
    p1.write_text(serialize_state(first))
    p2.write_text(serialize_state(second))
    return str(p1), str(p2)


def test_golden_qubit_pair(tmp_path, capsys):
    with criterion("golden qubit pair"):
        first, second = golden_pair_222()

        np.testing.assert_allclose(
            reduced_density(first, Cut.A), np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced_density(second, Cut.A), np.diag([0.0, 0.0, 0.5, 0.5]), atol=1e-12
        )
        for state in (first, second):
            inv = power_sum_invariants(state, Cut.A)
            for alpha in (1, 2):
                assert abs(inv[alpha - 1] - 0.5 ** (alpha - 1)) <= 1e-12

        paths = _write_pair(tmp_path, first, second)
        start = time.perf_counter()
        code = main(["check", *paths, "--json"])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "equivalent-d1"
        assert report["residual"] <= 1e-10
        certificate = report["certificate"]
        factors = [
            np.array(certificate[u]).view(complex)[..., 0] for u in ("u1", "u2", "u3")
        ]
        mapped = kron_apply(*factors, first)
        assert np.linalg.norm(mapped - second.amplitudes.reshape(-1)) <= 1e-10
        assert elapsed < 1.0


def test_golden_qutrit_pair(tmp_path, capsys):
    with criterion("golden 2x2x3 pair"):
        first, second = golden_pair_223()

        printed_a1 = np.zeros((2, 6), dtype=complex)
        printed_a1[0, 5] = RT2 / 2
        printed_a1[1, 3] = RT2 / 2
        assert np.array_equal(matricize(first, Cut.A), printed_a1)

        printed_a1p = np.array(
            [
                [-RT6 / 4, 0, 0, RT2 / 4, 0, 0],
                [0, -RT3 / 4, RT3 / 4, 0, 1 / 4, -1 / 4],
            ],
            dtype=complex,
        )
        assert np.array_equal(matricize(second, Cut.A), printed_a1p)

        for state in (first, second):
            inv = power_sum_invariants(state, Cut.A)
            for alpha in (1, 2):
                assert abs(inv[alpha - 1] - 0.5 ** (alpha - 1)) <= 1e-12

        _, v1 = golden_bridge_223()
        f = is_unitarily_decomposable(v1, 2, 3)
        assert f.decomposable
        assert f.defect <= 1e-10

        paths = _write_pair(tmp_path, first, second)
        start = time.perf_counter()
        code = main(["check", *paths, "--json"])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "equivalent-d1"
        assert report["residual"] <= 1e-9
        assert elapsed < 1.0


def test_lu_invariance_suite():
    with criterion("local-unitary invariance suite"):
        for dims in DIMS:
            k, m, n = dims
            for trial in range(TRIALS):
                seq = np.random.SeedSequence(entropy=777, spawn_key=dims + (trial,))
                s0, s1, s2, s3 = seq.spawn(4)
                state = random_state(dims, s0)
                u1 = random_unitary(k, s1)
                u2 = random_unitary(m, s2)
                u3 = random_unitary(n, s3)
                rotated = apply_local_unitaries(state, u1, u2, u3)
                for cut in Cut:
                    np.testing.assert_allclose(
                        power_sum_invariants(state, cut),
                        power_sum_invariants(rotated, cut),
                        rtol=0,
                        atol=1e-10,
                    )
                lhs = matricize(rotated, Cut.A)
                rhs = u1 @ matricize(state, Cut.A) @ np.kron(u2, u3).T
                assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_realignment_lemma_suite():
    with criterion("realignment and factorization suite"):
        rng = np.random.default_rng(2024)
        for _ in range(TRIALS):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            got = realign(np.kron(x, y), m, n)
            assert np.max(np.abs(got - np.outer(vec(x), vec(y)))) <= 1e-13

        for trial in range(25):
            m = 2 + trial % 2
            n = 2 + (trial // 2) % 3
            a = random_unitary(m, seed=500 + trial)
            b = random_unitary(n, seed=600 + trial)
            f = is_unitarily_decomposable(np.kron(a, b), m, n)
            assert f.decomposable
            u1, u2 = f.unitary_factors()
            assert np.linalg.norm(np.kron(a, b) - np.kron(u1, u2)) <= 1e-10

        f = is_unitarily_decomposable(swap_gate(), 2, 2)
        assert not f.decomposable
        assert abs(f.defect - 1.0) <= 1e-12


def test_decision_completeness_suite():
    with criterion("decision completeness on constructed pairs"):
        for dims in DIMS:
            k, m, n = dims
            certified = 0
            for trial in range(TRIALS):
                seq = np.random.SeedSequence(entropy=555, spawn_key=dims + (trial,))
                s0, s1, s2, s3 = seq.spawn(4)
                state = random_state(dims, s0)
                rotated = apply_local_unitaries(
                    state,
                    random_unitary(k, s1),
                    random_unitary(m, s2),
                    random_unitary(n, s3),
                )
                decision = decide_equivalence(state, rotated)
                assert decision.verdict is not Verdict.INVARIANTS_DIFFER
                if decision.verdict is Verdict.EQUIVALENT_D1:
                    # Independent verification: full Kronecker product applied
                    # to the flat amplitude vector.
                    mapped = kron_apply(*decision.local_factors, state)
                    assert (
                        np.linalg.norm(mapped - rotated.amplitudes.reshape(-1))
                        <= 1e-9
                    )
                    certified += 1
            assert certified >= 99, f"dims {dims}: only {certified}/{TRIALS}"


def test_inequivalence_detection(tmp_path, capsys):
    with criterion("inequivalence detection"):
        product = basis_state((2, 2, 2), (0, 0, 0))
        ghz = ghz_state()

        spectrum_product = singular_spectrum(product, Cut.A)
        spectrum_ghz = singular_spectrum(ghz, Cut.A)
        np.testing.assert_allclose(spectrum_product, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(spectrum_ghz, [1 / RT2, 1 / RT2], atol=1e-12)

        decision = decide_equivalence(product, ghz)
        assert decision.verdict is Verdict.INVARIANTS_DIFFER
        assert decision.witness.cut is Cut.A

        paths = _write_pair(tmp_path, product, ghz)
        code = main(["check", *paths])
        capsys.readouterr()
        assert code == 1


def test_nested_invariant_oracle():
    with criterion("nested invariant against loop oracle"):
        state, _ = golden_pair_222()
        for outer in (1, 2, 3):
            for inner in (1, 2, 3):
                if inner == outer:
                    continue
                for alpha in (1, 2):
                    for beta in (1, 2):
                        got = nested_invariant(state, outer, inner, alpha, beta)
                        want = oracle_nested(
                            state.amplitudes, outer, inner, alpha, beta
                        )
                        assert abs(got - want) <= 1e-12
