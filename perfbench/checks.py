"""Independent checks of every answer, run outside the timed region.

Nothing here calls into ``triequiv`` except for the tolerance values: the
certificate is re-applied with this module's own einsum, the spectrum witness
is checked against freshly computed singular values, and CLI output is read
back from the text and JSON it printed.
"""

from __future__ import annotations

import json
import re

import numpy as np

EQUIVALENT = frozenset({"equivalent-d1", "equivalent-d2", "equivalent-d3"})
# Verdicts that are sound for each known relation.
ALLOWED = {
    "lu": EQUIVALENT | {"inconclusive"},
    "conj": frozenset({"invariants-differ", "inconclusive"}),
    "differ": frozenset({"invariants-differ", "inconclusive"}),
}
EXIT_CODE = {"invariants-differ": 1, "inconclusive": 2, **{v: 0 for v in EQUIVALENT}}

_ELAPSED = re.compile(r'("elapsed_seconds": )[-+0-9.eE]+')
_WITNESS_VALUE_TOL = 1e-12


def blank_elapsed(text: str) -> str:
    """JSON output with the run-dependent ``elapsed_seconds`` digits removed."""
    return _ELAPSED.sub(r"\g<1>0", text)


def _spectrum(amps: np.ndarray, cut: str) -> np.ndarray:
    axis = "ABC".index(cut)
    rows = np.moveaxis(amps, axis, 0).reshape(amps.shape[axis], -1)
    return np.linalg.svd(rows, compute_uv=False)


def certificate_holds(first, second, factors, tols) -> bool:
    """``(U1 x U2 x U3) first == second`` within tolerance, with unitary factors."""
    for u in factors:
        u = np.asarray(u)
        if u.shape[0] != u.shape[1]:
            return False
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > tols.unitarity:
            return False
    mapped = np.einsum("ia,jb,kc,abc->ijk", *factors, first, optimize=True)
    return bool(np.linalg.norm(mapped - second) <= tols.reconstruction)


def witness_holds(first, second, cut, index, left, right, tols) -> bool:
    """The spectra of ``cut`` differ at ``index`` by more than the tolerance."""
    sa, sb = _spectrum(first, cut), _spectrum(second, cut)
    if not 0 <= index < min(sa.size, sb.size):
        return False
    return bool(
        abs(sa[index] - left) <= _WITNESS_VALUE_TOL
        and abs(sb[index] - right) <= _WITNESS_VALUE_TOL
        and abs(sa[index] - sb[index]) > tols.spectra
    )


def answer_ok(relation, verdict, first, second, factors, witness, tols, evidence=True) -> bool:
    """Sound verdict for the pair's relation, with evidence that re-verifies.

    Text output carries no certificate, so there ``evidence`` is False and
    only the verdict (already matched against the exit code) is judged.
    """
    if verdict not in ALLOWED[relation]:
        return False
    if not evidence:
        return True
    if verdict in EQUIVALENT:
        return factors is not None and certificate_holds(first, second, factors, tols)
    if verdict == "invariants-differ":
        return witness is not None and witness_holds(first, second, *witness, tols)
    return True


def library_answer(decision):
    """(verdict, factors, witness) of a ``TripartiteDecision``."""
    w = decision.witness
    witness = None if w is None else (w.cut.value, w.index, w.left, w.right)
    return decision.verdict.value, decision.local_factors, witness


def text_answer(output: str, code: int):
    """(verdict, None, None) from ``check`` text output; None if the exit code disagrees."""
    verdict = output.splitlines()[0].rsplit(": ", 1)[1].strip()
    if EXIT_CODE.get(verdict) != code:
        return None
    return verdict, None, None


def json_answer(output: str, code: int):
    """(verdict, factors, witness) from a ``check --json`` report; None on exit-code mismatch."""
    report = json.loads(output)
    verdict = report["verdict"]
    if EXIT_CODE.get(verdict) != code:
        return None
    factors = None
    if report["certificate"] is not None:
        factors = tuple(
            np.array(report["certificate"][name], dtype=float).view(complex)[..., 0]
            for name in ("u1", "u2", "u3")
        )
    w = report["witness"]
    witness = None if w is None else (w["cut"], w["index"], w["left"], w["right"])
    return verdict, factors, witness

