"""Seeded inputs of the three benchmark workloads.

A workload is a fixed list of calls built from ``--seed`` alone.  Each call
decides one pair whose relation is known by construction:

* ``lu``     - a state and a random local-unitary rotation of it;
* ``conj``   - a random state and its complex conjugate (equal spectra on
  every cut, generically not LU-equivalent);
* ``differ`` - two independent random states (their spectra differ).

Classes are interleaved evenly through the list, so a slow phase of the host
hits every class alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import triequiv as tq


@dataclass(frozen=True)
class Pair:
    """One input pair; ``files`` is set when the pair is checked through the CLI."""

    index: int
    cls: str
    relation: str
    first: tq.TripartiteState
    second: tq.TripartiteState
    files: tuple[str, str] | None = None


@dataclass(frozen=True)
class Call:
    """One timed call: a library ``decide_equivalence`` or a CLI ``check``."""

    pair: Pair
    mode: str  # "library", "text" or "json"


@dataclass(frozen=True)
class Workload:
    """The timed list, the ``check --json`` side list, and the warm-up call."""

    main: tuple[Call, ...]
    side: tuple[Call, ...]  # ``check --json`` on one pair of each class
    warmup: Call


def _lu_partner(state: tq.TripartiteState, rng) -> tq.TripartiteState:
    factors = (tq.random_unitary(d, rng) for d in state.dims)
    return tq.apply_local_unitaries(state, *factors)


def _lu_of(make):
    def build(rng):
        state = make(rng)
        return "lu", state, _lu_partner(state, rng)

    return build


def _random(dims):
    return lambda rng: tq.random_state(dims, rng)


def _ghz(d):
    def make(rng):
        amps = np.zeros((d, d, d), dtype=complex)
        amps[np.arange(d), np.arange(d), np.arange(d)] = 1.0
        return tq.TripartiteState.from_unnormalized(amps)

    return make


def _w_state(rng):
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 1] = amps[0, 1, 0] = amps[1, 0, 0] = 1.0
    return tq.TripartiteState.from_unnormalized(amps)


def _max_entangled_a(dims):
    """Rows of a random unitary: every singular value across cut A is equal."""
    k, m, n = dims

    def make(rng):
        rows = tq.random_unitary(m * n, rng)[:k]
        return tq.TripartiteState.from_unnormalized(rows.reshape(k, m, n))

    return make


def _conjugate(rng):
    state = tq.random_state((4, 4, 4), rng)
    return "conj", state, tq.TripartiteState(state.amplitudes.conj())


def _differ(rng):
    return "differ", tq.random_state((4, 4, 4), rng), tq.random_state((4, 4, 4), rng)


# name -> (class, count per list, pair maker); order only breaks interleave ties.
CLASSES = {
    "generic-lu": [
        ("lu-12x12x12", 85, _lu_of(_random((12, 12, 12)))),
        ("lu-4x8x16", 17, _lu_of(_random((4, 8, 16)))),
    ],
    "nongeneric": [
        ("differ-4x4x4", 33, _differ),
        ("lu-ghz2", 18, _lu_of(_ghz(2))),
        ("lu-ghz3", 4, _lu_of(_ghz(3))),
        ("lu-ghz4", 26, _lu_of(_ghz(4))),
        ("lu-w", 7, _lu_of(_w_state)),
        ("lu-maxa-4x2x2", 7, _lu_of(_max_entangled_a((4, 2, 2)))),
        ("lu-maxa-4x4x4", 1, _lu_of(_max_entangled_a((4, 4, 4)))),
        ("conj-4x4x4", 4, _conjugate),
    ],
    "cli-batch": [
        ("lu-8x8x8", 100, _lu_of(_random((8, 8, 8)))),
    ],
}
WARMUP_CLASS = {"generic-lu": "lu-12x12x12", "nongeneric": "lu-ghz2", "cli-batch": "lu-8x8x8"}
# Its decision time varies several-fold from seed to seed (the gauge search
# restarts), which would swamp json.pairs_per_s over so few side calls.
NOT_IN_SIDE_LIST = {"lu-maxa-4x4x4"}
WORKLOADS = tuple(CLASSES)


def _interleaved(workload: str, seed: int) -> list[Pair]:
    keyed = []
    for order, (cls, count, build) in enumerate(CLASSES[workload]):
        for j in range(count):
            keyed.append(((j + 0.5) / count, order, cls, j, build))
    keyed.sort(key=lambda item: item[:2])
    pairs = []
    for index, (_, order, cls, j, build) in enumerate(keyed):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), order, j])
        relation, first, second = build(rng)
        pairs.append(Pair(index, cls, relation, first, second))
    return pairs


def _with_files(pair: Pair, directory: Path) -> Pair:
    names = []
    for tag, state in (("a", pair.first), ("b", pair.second)):
        path = directory / f"{pair.index:03d}-{tag}.state"
        path.write_text(tq.serialize_state(state, label=f"{pair.cls} #{pair.index}"))
        names.append(str(path))
    return dataclasses.replace(pair, files=tuple(names))


def build(workload: str, seed: int, directory: Path) -> Workload:
    """Make the workload's pairs and write the state files its CLI calls read."""
    directory.mkdir(parents=True, exist_ok=True)
    pairs = _interleaved(workload, seed)
    if workload == "cli-batch":
        pairs = [_with_files(pair, directory) for pair in pairs]
    first_of_class = {}
    for pair in pairs:
        first_of_class.setdefault(pair.cls, pair)
    warm = first_of_class[WARMUP_CLASS[workload]]
    if workload == "cli-batch":
        main = tuple(Call(pair, mode) for pair in pairs for mode in ("text", "json"))
        return Workload(main=main, side=(), warmup=Call(warm, "text"))
    side = tuple(
        Call(_with_files(p, directory), "json")
        for p in first_of_class.values()
        if p.cls not in NOT_IN_SIDE_LIST
    )
    main = tuple(Call(pair, "library") for pair in pairs)
    return Workload(main=main, side=side, warmup=Call(warm, "library"))
