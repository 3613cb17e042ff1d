import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from triequiv.cli import _EXIT_FOR_VERDICT, _decision_report, build_parser, main
from triequiv.equivalence import Verdict, decide_equivalence
from triequiv.fileio import load_state, serialize_state
from triequiv.states import (
    TripartiteState,
    apply_local_unitaries,
    random_state,
    random_unitary,
)
from triequiv.tolerances import Tolerances
from util import (
    basis_state,
    ghz_state,
    golden_pair_222,
    golden_pair_223,
    kron_apply,
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
        assert code == 64
        err = capsys.readouterr().err
        assert "--nested" in err and "differ" in err

    def test_nested_label_out_of_range_is_a_usage_error(self, golden_files, capsys):
        code = main(["invariants", golden_files[0], "--nested", "1", "4", "1", "1"])
        assert code == 64
        assert "--nested" in capsys.readouterr().err

    def test_nested_labels_are_checked_before_the_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.state")
        assert main(["invariants", missing, "--nested", "1", "1", "1", "1"]) == 64
        assert "--nested" in capsys.readouterr().err
        assert main(["invariants", missing, "--nested", "2", "1", "1", "1"]) == 65

    @pytest.mark.parametrize("dims", [(8, 8, 8), (12, 12, 12)])
    def test_power_sums_and_spectra_are_the_decisions(self, dims, tmp_path, capsys):
        # Both commands read one cut factorisation, so they print the same
        # bits.
        for seed in range(4):
            path = tmp_path / f"{seed}.state"
            path.write_text(serialize_state(random_state(dims, seed)))
            assert main(["invariants", str(path), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert main(["check", str(path), str(path), "--json"]) == 0
            checked = json.loads(capsys.readouterr().out)
            assert report["power_sums"] == checked["power_sums"]["first"]
            state = load_state(path)
            spectra = decide_equivalence(state, state).spectra[0]
            assert report["spectra"] == {
                cut: list(spectrum) for cut, spectrum in zip("ABC", spectra)
            }

    def test_factorisations_come_from_cut_svd(self, tmp_path, monkeypatch):
        calls = []
        for name in ("eigh", "svd", "qr"):

            def recorded(*args, name=name, original=getattr(np.linalg, name), **kwargs):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        states = (
            random_state((3, 4, 5), seed=1),
            random_state((12, 12, 12), seed=1),
            TripartiteState(np.ones((12, 12, 12)) / 12**1.5),
        )
        for state in states:
            path = tmp_path / "state.state"
            path.write_text(serialize_state(state))
            argv = ["invariants", str(path), "--json", "--nested", "2", "1", "2", "2"]
            assert main(argv) == 0
        # One eigh of each cut's Gram matrix.  The product state's cuts have
        # rank 1, so each falls back to the QR route: a QR and the SVD of its R.
        assert sorted(calls) == sorted(
            [("eigh", "cut_svd")] * 9 + [("svd", "cut_svd"), ("qr", "cut_svd")] * 3
        )


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

    def test_conjugate_pair_reports_inconclusive_in_the_v2_keys(self, tmp_path, capsys):
        # A phase obstruction ends the search before any sweep; the report is
        # the same inconclusive one a spent budget gives.
        state = random_state((4, 4, 4), seed=1)
        p1 = tmp_path / "psi.state"
        p2 = tmp_path / "conj.state"
        p1.write_text(serialize_state(state))
        p2.write_text(serialize_state(TripartiteState(state.amplitudes.conj())))
        assert main(["check", str(p1), str(p2)]) == 2
        out = capsys.readouterr().out
        assert "inconclusive" in out and "best residual" in out
        assert main(["check", str(p1), str(p2), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "schema",
            "inputs",
            "dims",
            "verdict",
            "power_sums",
            "residual",
            "tolerances",
            "elapsed_seconds",
            "certificate",
            "witness",
        }
        assert report["schema"] == "triequiv.decision/2"
        assert report["verdict"] == "inconclusive"
        assert report["certificate"] is None and report["witness"] is None
        assert report["residual"] > 1e-9

    def test_state_too_large_for_memory_is_a_data_error(self, golden_files, tmp_path, capsys):
        # 14 PiB of amplitudes: the allocation fails at once, and exit 1
        # would claim the pair is proven inequivalent.
        huge = tmp_path / "huge.state"
        huge.write_text("dims: 100000 100000 100000\n1 1 1  1 0\n")
        assert main(["check", str(huge), golden_files[0]]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_rank1_tol_is_not_a_check_option(self, golden_files):
        assert main(["check", *golden_files, "--rank1-tol", "1e-8"]) == 64

    def test_json_report(self, golden_files, capsys):
        assert main(["check", *golden_files, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "triequiv.decision/2"
        assert report["verdict"] == "equivalent-d1"
        assert report["residual"] <= 1e-9
        certificate = report["certificate"]
        factors = [
            np.array(certificate[u]).view(complex)[..., 0] for u in ("u1", "u2", "u3")
        ]
        first, second = golden_pair_222()
        mapped = kron_apply(*factors, first)
        assert np.linalg.norm(mapped - second.amplitudes.reshape(-1)) <= 1e-9

    def test_json_tolerances_are_the_tolerance_fields(self, golden_files, capsys):
        assert main(["check", *golden_files, "--json", "--tol", "2e-9"]) == 0
        report = json.loads(capsys.readouterr().out)
        fields = {field.name for field in dataclasses.fields(Tolerances)}
        assert set(report["tolerances"]) == fields
        assert report["tolerances"]["reconstruction"] == 2e-9
        # Without options the report holds the library's defaults.
        assert main(["check", *golden_files, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"] == dataclasses.asdict(Tolerances())

    def test_each_settable_tolerance_is_a_check_option(self, golden_files, capsys):
        # Tolerances offers to set only what check sets, with the same default.
        options = {"spectra": "--spec-tol", "reconstruction": "--tol"}
        settable = [field for field in dataclasses.fields(Tolerances) if field.init]
        assert sorted(field.name for field in settable) == sorted(options)
        defaults = build_parser().parse_args(["check", *golden_files])
        for field in settable:
            option = options[field.name]
            assert getattr(defaults, option[2:].replace("-", "_")) == field.default
            assert main(["check", *golden_files, "--json", option, "3e-9"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["tolerances"][field.name] == 3e-9

    def test_multiple_pairs_and_jobs(self, golden_files, tmp_path, capsys):
        p1 = tmp_path / "p.state"
        p2 = tmp_path / "g.state"
        p1.write_text(serialize_state(basis_state((2, 2, 2), (0, 0, 0))))
        p2.write_text(serialize_state(ghz_state()))
        code = main(["check", *golden_files, str(p1), str(p2), "--json"])
        assert code == 1  # worst verdict across pairs
        reports = json.loads(capsys.readouterr().out)
        assert [r["verdict"] for r in reports] == ["equivalent-d1", "invariants-differ"]

    @pytest.fixture
    def lu_files(self, tmp_path, capsys):
        args = ["random", "--dims", "3", "3", "3", "--lu-pair", "--out", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        return sorted(str(p) for p in tmp_path.glob("*.state"))

    def test_negative_spec_tol_is_a_usage_error(self, lu_files, capsys):
        # A negative tolerance would refute this LU pair on equal spectra.
        assert main(["check", *lu_files, "--spec-tol", "-1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--spec-tol" in captured.err

    @pytest.mark.parametrize("spec_tol", ["1e-16", "1e-300"])
    def test_tiny_spec_tol_does_not_refute_an_lu_pair(self, lu_files, spec_tol, capsys):
        # The pair's spectra differ by rounding alone, which is no witness.
        assert main(["check", *lu_files, "--spec-tol", spec_tol]) == 0
        assert "equivalent-d1" in capsys.readouterr().out

    def test_seed_is_not_a_check_option(self, golden_files, capsys):
        # The gauge search draws its restarts from one fixed generator.
        assert main(["check", *golden_files, "--seed", "0"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_infinite_tol_is_a_usage_error(self, lu_files, capsys):
        # An infinite tolerance would also write the non-JSON token Infinity.
        assert main(["check", *lu_files, "--tol", "inf", "--json"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize("option", ["--tol", "--spec-tol"])
    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_tolerance_not_finite_and_positive_is_a_usage_error(
        self, golden_files, option, bad, capsys
    ):
        assert main(["check", *golden_files, option, bad]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option in captured.err

    def test_negative_gauge_iters_is_a_usage_error(self, golden_files, capsys):
        assert main(["check", *golden_files, "--gauge-iters", "-5"]) == 64
        assert "--gauge-iters" in capsys.readouterr().err

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

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_off_scale_state_is_renormalized(
        self, golden_files, tmp_path, capsys, scale
    ):
        # sum |a|^2 of this file underflows to 0 or overflows to inf.
        amps = golden_pair_222()[0].amplitudes * scale
        records = [
            f"{i + 1} {j + 1} {k + 1} {a.real:.17g} {a.imag:.17g}"
            for (i, j, k), a in zip(np.argwhere(amps), amps[amps != 0])
        ]
        off = tmp_path / "off.state"
        off.write_text("\n".join(["dims: 2 2 2", *records]) + "\n")
        with pytest.warns(RuntimeWarning, match="renormalizing"):
            assert main(["check", str(off), golden_files[1]]) == 0
        assert main(["check", str(off), golden_files[1], "--strict"]) == 65
        assert "strict mode is on" in capsys.readouterr().err

    def test_zero_state_exit_code(self, golden_files, tmp_path, capsys):
        zero = tmp_path / "zero.state"
        zero.write_text("dims: 2 2 2\n1 1 1 0 0\n")
        for strict in ([], ["--strict"]):
            assert main(["check", str(zero), golden_files[1], *strict]) == 65
            assert "zero state" in capsys.readouterr().err

    def test_a_non_utf8_file_is_a_data_error(self, golden_files, tmp_path, capsys):
        bad = tmp_path / "bad.state"
        bad.write_bytes(b"\xff\xfedims: 2 2 2\n")
        assert main(["check", str(bad), golden_files[1]]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 at byte 0\n"

    def test_dimension_mismatch_exit_code(self, golden_files, tmp_path, capsys):
        other = tmp_path / "wide.state"
        other.write_text(serialize_state(basis_state((2, 2, 3), (0, 0, 0))))
        assert main(["check", golden_files[0], str(other)]) == 65
        assert "mismatch" in capsys.readouterr().err


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

    def test_state_too_large_for_memory_is_a_data_error(self, tmp_path, capsys):
        args = ["random", "--dims", "100000", "100000", "100000", "--out", str(tmp_path)]
        assert main(args) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_negative_count_is_a_usage_error(self, tmp_path, capsys):
        args = ["random", "--dims", "2", "2", "2", "--count", "-3", "--out", str(tmp_path)]
        assert main(args) == 64
        assert "--count" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "bad", [["--seed", "-1"], ["--dims", "2", "0", "2"]], ids=["seed", "dims"]
    )
    def test_out_of_range_value_is_a_usage_error(self, bad, tmp_path, capsys):
        args = ["random", "--dims", "2", "2", "2", "--out", str(tmp_path), *bad]
        assert main(args) == 64
        assert bad[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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


class TestFactorisationCounts:
    """Each state is decomposed once: one eigh per cut, shared by every layer.

    The counts are of factored matrices, not calls: a stacked call counts
    each matrix of the stack.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"svd": 0, "eigh": 0}
        for name in counts:

            def counted(*args, name=name, original=getattr(np.linalg, name), **kwargs):
                counts[name] += int(np.prod(np.shape(args[0])[:-2]))
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.fixture
    def pair(self):
        state = random_state((3, 4, 5), seed=5)
        factors = (random_unitary(d, seed=6 + i) for i, d in enumerate(state.dims))
        return state, apply_local_unitaries(state, *factors)

    def test_decision(self, pair, counts):
        decide_equivalence(*pair)
        # Six cuts, then the Procrustes refit of U_A in _certify.
        assert counts == {"svd": 1, "eigh": 6}

    def test_report(self, pair, counts):
        decision = decide_equivalence(*pair)
        counts.update(svd=0, eigh=0)
        report = _decision_report(decision, pair[0].dims, Tolerances(), 0.0, ("a", "b"))
        assert counts == {"svd": 0, "eigh": 0}
        assert report["power_sums"]["first"]["A"][0] == pytest.approx(1.0, abs=1e-12)

    def test_invariants(self, pair, counts, tmp_path, capsys):
        path = tmp_path / "state.state"
        path.write_text(serialize_state(pair[0]))
        assert main(["invariants", str(path), "--json"]) == 0
        assert counts == {"svd": 0, "eigh": 3}


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 64

    def test_every_verdict_has_an_exit_code(self):
        assert set(_EXIT_FOR_VERDICT) == set(Verdict)

    def test_tracer_targets_resolve(self):
        # The benchmark's tracer wraps these names by lookup once the CLI is
        # imported; a name that is gone breaks every traced run.
        path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, attr, _ in tracing.TARGETS:
            assert hasattr(sys.modules[module], attr), f"{module}.{attr}"

    def test_factorize_is_not_a_command(self, capsys):
        # The realignment test is the library's is_unitarily_decomposable.
        assert main(["factorize", "u.mat", "-m", "2", "-n", "2"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: triequiv")
        assert "invalid choice" in captured.err and "factorize" in captured.err

    def test_the_reused_parser_carries_nothing_between_calls(
        self, golden_files, tmp_path, capsys
    ):
        # main parses every call with one parser built once per process.
        assert build_parser() is build_parser()
        assert main(["check", "--json", *golden_files]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent-d1"
        assert main(["check", *golden_files]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"{golden_files[0]} vs {golden_files[1]}: equivalent-d1\n")
        off = tmp_path / "off.state"
        off.write_text("dims: 2 2 2\n1 1 1 0.5 0\n")
        assert main(["check", "--strict", str(off), str(off)]) == 65
        assert "strict mode is on" in capsys.readouterr().err
        with pytest.warns(RuntimeWarning, match="renormalizing"):
            assert main(["check", str(off), str(off)]) == 0
        assert capsys.readouterr().out.startswith(f"{off} vs {off}: equivalent-d1\n")
        assert main(["check", "--gauge-iters", "-1", *golden_files]) == 64
        assert "usage: triequiv check" in capsys.readouterr().err
        assert main(["check", *golden_files]) == 0
        assert capsys.readouterr().out == text

    def test_unknown_flag(self, golden_files):
        assert main(["check", *golden_files, "--bogus"]) == 64

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.state")
        assert main(["invariants", missing]) == 65
