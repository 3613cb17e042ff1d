import dataclasses
import json

import numpy as np
import pytest

from triequiv.cli import main
from triequiv.fileio import matrix_from_pairs, serialize_matrix, serialize_state
from triequiv.states import apply_local_unitaries, random_unitary
from triequiv.tolerances import Tolerances
from util import (
    basis_state,
    ghz_state,
    golden_pair_222,
    golden_pair_223,
    kron_apply,
    swap_gate,
)


@pytest.fixture
def golden_files(tmp_path):
    first, second = golden_pair_222()
    p1 = tmp_path / "first.state"
    p2 = tmp_path / "second.state"
    p1.write_text(serialize_state(first))
    p2.write_text(serialize_state(second))
    return str(p1), str(p2)


class TestInvariantsCommand:
    def test_text_output(self, golden_files, capsys):
        assert main(["invariants", golden_files[0]]) == 0
        out = capsys.readouterr().out
        assert "I (cut A|BC): 1 0.5" in out
        assert "J (cut B|AC):" in out

    def test_json_output_with_nested(self, golden_files, capsys):
        code = main(
            ["invariants", golden_files[0], "--json", "--nested", "2", "1", "2", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "triequiv.invariants/1"
        np.testing.assert_allclose(report["power_sums"]["A"], [1.0, 0.5], atol=1e-12)
        assert abs(report["nested"]["value"] - 0.125) <= 1e-12

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.state"
        bad.write_text("dims: 2 2\n")
        assert main(["invariants", str(bad)]) == 65
        assert "error" in capsys.readouterr().err

    def test_invalid_nested_labels_exit_code(self, golden_files, capsys):
        code = main(["invariants", golden_files[0], "--nested", "1", "1", "1", "1"])
        assert code == 65
        assert "differ" in capsys.readouterr().err


class TestCheckCommand:
    def test_equivalent_pair_exit_zero(self, golden_files, capsys):
        assert main(["check", *golden_files]) == 0
        assert "equivalent-d1" in capsys.readouterr().out

    def test_inequivalent_pair_exit_one(self, tmp_path, capsys):
        p1 = tmp_path / "p.state"
        p2 = tmp_path / "g.state"
        p1.write_text(serialize_state(basis_state((2, 2, 2), (0, 0, 0))))
        p2.write_text(serialize_state(ghz_state()))
        assert main(["check", str(p1), str(p2)]) == 1
        out = capsys.readouterr().out
        assert "invariants-differ" in out
        assert "witness" in out

    def test_inconclusive_exit_two(self, tmp_path, capsys):
        # Degenerate pair with the gauge search disabled stays undecided.
        ghz = ghz_state()
        rotated = apply_local_unitaries(
            ghz, random_unitary(2, 1), random_unitary(2, 2), random_unitary(2, 3)
        )
        p1 = tmp_path / "a.state"
        p2 = tmp_path / "b.state"
        p1.write_text(serialize_state(ghz))
        p2.write_text(serialize_state(rotated))
        assert main(["check", str(p1), str(p2), "--gauge-iters", "0"]) == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_inconclusive_json_carries_best_residual(self, tmp_path, capsys):
        ghz = ghz_state()
        rotated = apply_local_unitaries(
            ghz, random_unitary(2, 1), random_unitary(2, 2), random_unitary(2, 3)
        )
        p1 = tmp_path / "a.state"
        p2 = tmp_path / "b.state"
        p1.write_text(serialize_state(ghz))
        p2.write_text(serialize_state(rotated))
        assert main(["check", str(p1), str(p2), "--gauge-iters", "0", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "inconclusive"
        assert report["certificate"] is None
        assert "bridge" not in report and "bridge_defects" not in report
        assert report["residual"] > 1e-9
        assert "rank_one" not in report["tolerances"]
        assert main(["check", str(p1), str(p2), "--gauge-iters", "0"]) == 2
        assert "best residual" in capsys.readouterr().out

    def test_rank1_tol_is_not_a_check_option(self, golden_files):
        assert main(["check", *golden_files, "--rank1-tol", "1e-8"]) == 64

    def test_json_report(self, golden_files, capsys):
        assert main(["check", *golden_files, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "triequiv.decision/2"
        assert report["verdict"] == "equivalent-d1"
        assert report["residual"] <= 1e-9
        certificate = report["certificate"]
        factors = [matrix_from_pairs(certificate[u]) for u in ("u1", "u2", "u3")]
        first, second = golden_pair_222()
        mapped = kron_apply(*factors, first)
        assert np.linalg.norm(mapped - second.amplitudes.reshape(-1)) <= 1e-9

    def test_json_tolerances_are_the_tolerance_fields(self, golden_files, capsys):
        assert main(["check", *golden_files, "--json", "--tol", "2e-9"]) == 0
        report = json.loads(capsys.readouterr().out)
        fields = {field.name for field in dataclasses.fields(Tolerances)}
        assert set(report["tolerances"]) == fields
        assert report["tolerances"]["reconstruction"] == 2e-9

    def test_multiple_pairs_and_jobs(self, golden_files, tmp_path, capsys):
        p1 = tmp_path / "p.state"
        p2 = tmp_path / "g.state"
        p1.write_text(serialize_state(basis_state((2, 2, 2), (0, 0, 0))))
        p2.write_text(serialize_state(ghz_state()))
        code = main(["check", *golden_files, str(p1), str(p2), "--json"])
        assert code == 1  # worst verdict across pairs
        reports = json.loads(capsys.readouterr().out)
        assert [r["verdict"] for r in reports] == ["equivalent-d1", "invariants-differ"]

    def test_odd_path_count_usage_error(self, golden_files):
        assert main(["check", golden_files[0]]) == 64

    def test_order_is_not_a_check_option(self, golden_files):
        assert main(["check", *golden_files, "--order", "1,2,3"]) == 64

    def test_strict_rejects_off_norm(self, tmp_path):
        off = tmp_path / "off.state"
        off.write_text("dims: 2 2 2\n1 1 1 0.5 0\n")
        ok = tmp_path / "ok.state"
        ok.write_text(serialize_state(basis_state((2, 2, 2), (0, 0, 0))))
        assert main(["check", str(off), str(ok), "--strict"]) == 65

    def test_dimension_mismatch_exit_code(self, golden_files, tmp_path, capsys):
        other = tmp_path / "wide.state"
        other.write_text(serialize_state(basis_state((2, 2, 3), (0, 0, 0))))
        assert main(["check", golden_files[0], str(other)]) == 65
        assert "mismatch" in capsys.readouterr().err


class TestFactorizeCommand:
    def test_swap_not_decomposable(self, tmp_path, capsys):
        path = tmp_path / "swap.mat"
        path.write_text(serialize_matrix(swap_gate()))
        assert main(["factorize", str(path), "-m", "2", "-n", "2"]) == 1
        assert "decomposable: no" in capsys.readouterr().out

    def test_identity_decomposable(self, tmp_path, capsys):
        path = tmp_path / "eye.mat"
        path.write_text(serialize_matrix(np.eye(4, dtype=complex)))
        assert main(["factorize", str(path), "-m", "2", "-n", "2"]) == 0
        assert "decomposable: yes" in capsys.readouterr().out

    def test_golden_bridge_json(self, tmp_path, capsys):
        from util import golden_bridge_223

        _, v1 = golden_bridge_223()
        path = tmp_path / "v1.mat"
        path.write_text(serialize_matrix(v1))
        assert main(["factorize", str(path), "-m", "2", "-n", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decomposable"] is True
        assert report["defect"] <= 1e-10
        assert report["reconstruction_residual"] <= 1e-10

    def test_non_unitary_reported_distinctly(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text(serialize_matrix(np.ones((4, 4), dtype=complex)))
        assert main(["factorize", str(path), "-m", "2", "-n", "2"]) == 65
        assert "not unitary" in capsys.readouterr().err

    def test_wrong_shape_reported(self, tmp_path, capsys):
        path = tmp_path / "odd.mat"
        path.write_text(serialize_matrix(np.eye(5, dtype=complex)))
        assert main(["factorize", str(path), "-m", "2", "-n", "2"]) == 65
        assert "shape" in capsys.readouterr().err


class TestRandomCommand:
    def test_reproducible_files(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        args = ["random", "--dims", "2", "2", "3", "--seed", "7", "--lu-pair"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        capsys.readouterr()
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        assert len(files1) == 5
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_emitted_pair_checks_equivalent(self, tmp_path, capsys):
        assert (
            main(
                [
                    "random",
                    "--dims",
                    "2",
                    "3",
                    "2",
                    "--seed",
                    "3",
                    "--lu-pair",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        states = sorted(str(p) for p in tmp_path.glob("*.state"))
        assert len(states) == 2
        assert main(["check", *states]) == 0

    def test_emitted_unitaries_are_unitary(self, tmp_path, capsys):
        from triequiv.fileio import load_matrix
        from triequiv.states import unitarity_defect

        main(
            [
                "random",
                "--dims",
                "3",
                "2",
                "2",
                "--seed",
                "1",
                "--lu-pair",
                "--out",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        mats = sorted(tmp_path.glob("*.mat"))
        assert len(mats) == 3
        for path in mats:
            assert unitarity_defect(load_matrix(path)) <= 1e-12


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 64

    def test_unknown_flag(self, golden_files):
        assert main(["check", *golden_files, "--bogus"]) == 64

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.state")
        assert main(["invariants", missing]) == 65
