"""Command-line entry points: ``invariants``, ``check``, ``random``."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from .equivalence import (
    DEFAULT_GAUGE_BUDGET,
    TripartiteDecision,
    Verdict,
    decide_equivalence,
)
from .fileio import (
    DECISION_SCHEMA,
    INVARIANTS_SCHEMA,
    StateFormatError,
    load_state,
    matrix_pairs,
    report_to_json,
    serialize_matrix,
    serialize_state,
)
from .invariants import check_nested, nested_invariant, power_sums, singular_spectrum
# Not called here: perfbench/tracing.py wraps this name on this module.
from .invariants import power_sum_invariants  # noqa: F401
from .states import Cut, apply_local_unitaries, random_state, random_unitary
from .tolerances import DEFAULT_TOLERANCES, Tolerances, check_tolerance

EXIT_EQUIVALENT = 0
EXIT_INVARIANTS_DIFFER = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65

_EXIT_FOR_VERDICT = {
    Verdict.EQUIVALENT_D1: EXIT_EQUIVALENT,
    Verdict.INVARIANTS_DIFFER: EXIT_INVARIANTS_DIFFER,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_CUT_LABEL = {Cut.A: "A|BC", Cut.B: "B|AC", Cut.C: "C|AB"}
_CUT_LETTER = {Cut.A: "I", Cut.B: "J", Cut.C: "K"}


class UsageError(Exception):
    """Bad command usage detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_from(low: int):
    """argparse type for an integer no less than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type for a tolerance: a finite float > 0."""
    try:
        return check_tolerance("tolerance", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------- invariants


def _cmd_invariants(args) -> int:
    if args.nested is not None:
        try:
            check_nested(*args.nested)
        except ValueError as exc:
            raise UsageError(f"--nested: {exc}") from None
    state = load_state(args.state, strict=args.strict)
    lines = [f"dims: {state.dims[0]} {state.dims[1]} {state.dims[2]}"]
    report = {
        "schema": INVARIANTS_SCHEMA,
        "input": str(args.state),
        "dims": list(state.dims),
        "power_sums": {},
        "spectra": {},
    }
    for cut in Cut:
        spectrum = singular_spectrum(state, cut)
        values = power_sums(spectrum, min(state.dims))
        report["power_sums"][cut.value] = list(values)
        report["spectra"][cut.value] = [float(s) for s in spectrum]
        rendered = " ".join(format(v, ".12g") for v in values)
        lines.append(f"{_CUT_LETTER[cut]} (cut {_CUT_LABEL[cut]}): {rendered}")
    if args.nested is not None:
        outer, inner, alpha, beta = args.nested
        value = nested_invariant(state, outer, inner, alpha, beta)
        report["nested"] = {
            "outer": outer,
            "inner": inner,
            "alpha": alpha,
            "beta": beta,
            "value": value,
        }
        lines.append(
            f"nested(outer={outer}, inner={inner}, alpha={alpha}, beta={beta}): "
            f"{value:.12g}"
        )
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        print("\n".join(lines))
    return 0


# --------------------------------------------------------------------- check


def _decision_report(
    decision: TripartiteDecision,
    dims: tuple[int, int, int],
    tols: Tolerances,
    elapsed: float,
    inputs: tuple[str, str],
) -> dict:
    report = {
        "schema": DECISION_SCHEMA,
        "inputs": list(inputs),
        "dims": list(dims),
        "verdict": decision.verdict.value,
        "power_sums": {
            side: {
                cut.value: list(power_sums(spectrum, min(dims)))
                for cut, spectrum in zip(Cut, spectra)
            }
            for side, spectra in zip(("first", "second"), decision.spectra)
        },
        "residual": decision.residual,
        "tolerances": dataclasses.asdict(tols),
        "elapsed_seconds": elapsed,
        "certificate": None,
        "witness": None,
    }
    if decision.local_factors is not None:
        u1, u2, u3 = decision.local_factors
        report["certificate"] = {
            "u1": matrix_pairs(u1),
            "u2": matrix_pairs(u2),
            "u3": matrix_pairs(u3),
            "residual": decision.residual,
        }
    if decision.witness is not None:
        report["witness"] = {
            "cut": decision.witness.cut.value,
            "index": decision.witness.index,
            "left": decision.witness.left,
            "right": decision.witness.right,
        }
    return report


def _decision_text(decision: TripartiteDecision, inputs: tuple[str, str]) -> str:
    lines = [f"{inputs[0]} vs {inputs[1]}: {decision.verdict.value}"]
    if decision.verdict is Verdict.EQUIVALENT_D1:
        lines.append(f"  residual: {decision.residual:.3e}")
    elif decision.verdict is Verdict.INVARIANTS_DIFFER:
        w = decision.witness
        lines.append(
            f"  witness: cut {w.cut.value} spectrum index {w.index}: "
            f"{w.left:.12g} vs {w.right:.12g}"
        )
    else:
        lines.append(f"  best residual: {decision.residual:.3e}")
    return "\n".join(lines)


def _run_pair(pair, args, tols) -> tuple[str | dict, int]:
    """One pair's JSON report (under ``--json``) or text, and its exit code."""
    first_path, second_path = pair
    state = load_state(first_path, strict=args.strict)
    other = load_state(second_path, strict=args.strict)
    start = time.perf_counter()
    decision = decide_equivalence(state, other, tols=tols, gauge_budget=args.gauge_iters)
    elapsed = time.perf_counter() - start
    inputs = (str(first_path), str(second_path))
    if args.json:
        output = _decision_report(decision, state.dims, tols, elapsed, inputs)
    else:
        output = _decision_text(decision, inputs)
    return output, _EXIT_FOR_VERDICT[decision.verdict]


def _cmd_check(args) -> int:
    paths = args.states
    if len(paths) < 2 or len(paths) % 2 != 0:
        raise UsageError("check expects an even number of state paths (pairs)")
    pairs = [(paths[i], paths[i + 1]) for i in range(0, len(paths), 2)]
    tols = Tolerances(spectra=args.spec_tol, reconstruction=args.tol)
    results = [_run_pair(pair, args, tols) for pair in pairs]
    outputs = [output for output, _ in results]

    if args.json:
        sys.stdout.write(report_to_json(outputs[0] if len(outputs) == 1 else outputs))
    else:
        print("\n".join(outputs))
    return max(code for _, code in results)


# -------------------------------------------------------------------- random


def _cmd_random(args) -> int:
    k, m, n = args.dims
    out_dir = args.out
    written = []
    for idx in range(args.count):
        seq = np.random.SeedSequence(entropy=args.seed, spawn_key=(idx,))
        state_seed, u1_seed, u2_seed, u3_seed = seq.spawn(4)
        state = random_state((k, m, n), state_seed)
        base = f"{out_dir}/random-{k}x{m}x{n}-seed{args.seed}-{idx:03d}"
        label = f"random seed={args.seed} idx={idx}"
        files = [(f"{base}.state", serialize_state(state, label=label))]
        if args.lu_pair:
            u1 = random_unitary(k, u1_seed)
            u2 = random_unitary(m, u2_seed)
            u3 = random_unitary(n, u3_seed)
            partner = apply_local_unitaries(state, u1, u2, u3)
            label = f"lu partner seed={args.seed} idx={idx}"
            files.append((f"{base}-lu.state", serialize_state(partner, label=label)))
            for name, mat in (("u1", u1), ("u2", u2), ("u3", u3)):
                files.append((f"{base}-{name}.mat", serialize_matrix(mat, label=name)))
        for path, text in files:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            written.append(path)
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------- wiring


@functools.cache  # built once per process: parse_args keeps no state between calls
def build_parser() -> _Parser:
    parser = _Parser(
        prog="triequiv",
        description=(
            "Decide local-unitary equivalence of pure tripartite quantum states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print power-sum invariants of a state")
    p_inv.add_argument("state", help="state file")
    p_inv.add_argument(
        "--nested",
        nargs=4,
        type=int,
        metavar=("OUTER", "INNER", "ALPHA", "BETA"),
        help="also print one nested trace invariant",
    )
    p_inv.add_argument("--strict", action="store_true", help="reject off-norm input")
    p_inv.add_argument("--json", action="store_true", help="emit a JSON report")
    p_inv.set_defaults(func=_cmd_invariants)

    p_check = sub.add_parser("check", help="decide equivalence of state pairs")
    p_check.add_argument("states", nargs="+", help="state files, taken in pairs")
    tols = DEFAULT_TOLERANCES
    p_check.add_argument(
        "--tol", type=_tolerance, default=tols.reconstruction, help="residual tolerance"
    )
    p_check.add_argument(
        "--spec-tol", type=_tolerance, default=tols.spectra, help="spectrum equality tolerance"
    )
    p_check.add_argument(
        "--gauge-iters",
        type=_int_from(0),
        default=DEFAULT_GAUGE_BUDGET,
        help="gauge search budget in sweeps (0 disables)",
    )
    p_check.add_argument("--strict", action="store_true", help="reject off-norm input")
    p_check.add_argument("--json", action="store_true", help="emit JSON reports")
    p_check.set_defaults(func=_cmd_check)

    p_rand = sub.add_parser("random", help="emit seeded random states")
    p_rand.add_argument(
        "--dims", nargs=3, type=_int_from(1), required=True, metavar=("K", "M", "N")
    )
    p_rand.add_argument("--seed", type=_int_from(0), default=0)
    p_rand.add_argument("--count", type=_int_from(0), default=1)
    p_rand.add_argument(
        "--lu-pair",
        action="store_true",
        help="also emit a locally rotated partner and the generating unitaries",
    )
    p_rand.add_argument("--out", default=".", help="output directory")
    p_rand.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StateFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def cli_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_main()
