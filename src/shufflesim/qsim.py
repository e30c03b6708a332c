"""Sparse structured-state simulator, circuit programs, and distance measures.

States live on a named register layout and are stored as dicts mapping
configs to amplitudes. A config is keyed by one int that packs the register
values, register 0 in the most significant bits, so a register is read as
`(key >> offset) & mask` and keys sort in the order of their value tuples.
The solver's access pattern keeps the support polynomial, so no dense 2^W
vector is ever built. Oracle answers are XORed into target registers (a basis
permutation), Hadamard layers act on one register, and measurement collapses
one register by the Born rule. One Interpreter runs a CircuitProgram's ops,
charges each oracle layer to the ledger, which enforces the run's budget, and
keeps each register group's states before its first measurement per oracle.

Ops build states from valid ones without the full config check. States are
never mutated, so a state keeps each register column it is read by (each
config's value in dict order) and each register's marginal once it is built: a
state that many layers read, such as a shared uniform query state, is unpacked
once, and measuring a kept state again only draws and collapses. The
Hadamard and the marginal add terms in a term-by-term loop's order and match
it: the Hadamard adds each member's terms to its row directly. A Hadamard then
a measurement of its register is one Fourier sample, whose Born weights are
one masked pass over the Hadamard's array. Fidelity joins the components'
entries on their keys, so it adds each overlap's terms in one argument's dict
order and needs no sorted support.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import weakref
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .ledger import DepthLedger
from .oracle import ShufflingOracle

PRUNE_TOL = 1e-12
NORM_TOL = 1e-9
SUPPORT_CAP = 1 << 12
# the most component-by-key entries fidelity's dense product may hold
DENSE_ENTRIES = 1 << 24
# the most matched key pairs fidelity's join expands at once
JOIN_BLOCK = 1 << 20
# the most group-by-output amplitudes one Hadamard may hold
HADAMARD_ENTRIES = 1 << 24


class SimulatorError(Exception):
    pass


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers. A config packs into one int key with register
    0 in the most significant bits and the last register in the lowest, so
    int order on keys is tuple order on configs."""

    names: tuple[str, ...]
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.widths):
            raise ValueError("names and widths must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate register names in {self.names}")
        for name, w in zip(self.names, self.widths):
            if w < 1:
                raise ValueError(f"register {name!r} must have positive width, got {w}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SimulatorError(f"no register named {name!r} in {self.names}") from None

    def width(self, name: str) -> int:
        return self.widths[self.index(name)]

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        """Each register's lowest bit in the packed key."""
        return tuple(sum(self.widths[i + 1 :]) for i in range(len(self.widths)))

    def field(self, name: str) -> tuple[int, int]:
        """A register's offset in the packed key and its value mask."""
        idx = self.index(name)
        return self.offsets[idx], (1 << self.widths[idx]) - 1

    def pack(self, cfg) -> int:
        """The key of an in-range config tuple."""
        key = 0
        for v, w in zip(cfg, self.widths):
            key = key << w | operator.index(v)
        return key


class Marginal(NamedTuple):
    """One register's Born-rule law on one state. Bin i holds the configs whose
    register value is outcomes[i]; np.bincount sums each bin's |a|^2 in dict
    order (np.unique would need values that fit 64 bits)."""

    bins: np.ndarray  # each config's bin, in dict order
    weights: np.ndarray  # each bin's summed |a|^2
    outcomes: list[int]  # the register's values, ascending
    cumulative: np.ndarray  # running sum of the normalized weights


class SparseState:
    """Normalized pure state over a layout, sparse in the computational basis;
    `amps` maps packed config keys (see RegisterLayout) to amplitudes. A state
    is never mutated, so it keeps each register column and marginal it is
    asked for."""

    __slots__ = ("layout", "amps", "_columns", "_marginals")

    def __init__(self, layout: RegisterLayout, amps: dict[tuple[int, ...], complex]):
        """From config tuples, which are checked against the layout, then packed."""
        amps = {cfg: complex(a) for cfg, a in amps.items() if abs(a) > PRUNE_TOL}
        if set(map(len, amps)) - {len(layout.names)}:
            cfg = next(c for c in amps if len(c) != len(layout.names))
            raise SimulatorError(f"config {cfg} does not match layout {layout.names}")
        for i, (col, w) in enumerate(zip(zip(*amps), layout.widths)):
            if min(col) < 0 or max(col) >= 1 << w:
                cfg = next(c for c in amps if not 0 <= c[i] < 1 << w)
                raise SimulatorError(f"config {cfg} out of range for widths {layout.widths}")
        self._hold(layout, dict(zip(map(layout.pack, amps), amps.values())))
        _check_norm(self.norm())

    @classmethod
    def _trusted(cls, layout: RegisterLayout, amps: dict, check_norm: bool = True) -> "SparseState":
        """For amps an op built from a valid state (packed in-range keys,
        complex values above PRUNE_TOL), so at most the norm is checked."""
        state = object.__new__(cls)
        state._hold(layout, amps)
        if check_norm:
            _check_norm(state.norm())
        return state

    def _hold(self, layout: RegisterLayout, amps: dict) -> None:
        self.layout, self.amps, self._columns, self._marginals = layout, amps, {}, {}

    def _renamed(self, layout: RegisterLayout) -> "SparseState":
        """This state on a same-width layout, sharing amps and kept caches."""
        if layout is self.layout or layout == self.layout:
            return self
        state = copy.copy(self)
        state.layout = layout
        return state

    def norm(self) -> float:
        return math.hypot(*map(abs, self.amps.values()))

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def register_values(self, name: str) -> set[int]:
        return set(self.column(name).tolist())

    def column(self, register: str, bits: int | None = None) -> np.ndarray:
        """Each config's value of the register's low `bits` bits (all of them
        by default), in dict order; read-only, int64 where the values fit it
        and Python ints elsewhere. Built on first use and kept with the state."""
        off, mask = self.layout.field(register)
        if bits is not None:
            mask &= (1 << bits) - 1
        kept = self._columns.get((off, mask))
        if kept is None:
            values = [(key >> off) & mask for key in self.amps]
            kept = np.array(values, dtype=np.int64 if mask < 1 << 63 else object)
            kept.setflags(write=False)
            self._columns[(off, mask)] = kept
        return kept

    def marginal(self, register: str) -> Marginal:
        """The register's marginal, built on first use and kept with the state."""
        field = self.layout.field(register)
        kept = self._marginals.get(field)
        if kept is None:
            values = self.column(register).tolist()
            outcomes = sorted(set(values))
            rank = dict(zip(outcomes, range(len(outcomes))))
            bins = np.fromiter(map(rank.__getitem__, values), dtype=np.intp, count=len(values))
            amps = np.fromiter(self.amps.values(), dtype=complex, count=len(values))
            # np.float_power(m, 2) is Python's m ** 2 to the bit
            weights = np.bincount(bins, weights=np.float_power(np.hypot(amps.real, amps.imag), 2))
            kept = self._marginals[field] = Marginal(bins, weights, outcomes, np.cumsum(weights / weights.sum()))
        return kept


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > NORM_TOL:
        raise SimulatorError(f"state norm {norm} drifted beyond {NORM_TOL}")


def basis_state(layout: RegisterLayout) -> SparseState:
    return SparseState._trusted(layout, {0: 1 + 0j})


def init_uniform(layout: RegisterLayout, register: str) -> SparseState:
    """Uniform superposition on one register, all others zero; states are never
    mutated, so calls with the same layout and register share one."""
    return _uniform_state(layout, register)


@functools.lru_cache(maxsize=32)
def _uniform_state(layout: RegisterLayout, register: str) -> SparseState:
    off, mask = layout.field(register)
    amp = complex(2 ** (-layout.width(register) / 2))
    return SparseState._trusted(layout, {v << off: amp for v in range(mask + 1)})


def _validate_query_spec(layout: RegisterLayout, oracle: ShufflingOracle, query_spec) -> list[tuple[int, int, int]]:
    if not query_spec:
        raise SimulatorError("query spec must contain at least one (level, in, target) entry")
    resolved = []
    targets = set()
    for level, in_reg, target_reg in query_spec:
        i_idx = layout.index(in_reg)
        t_idx = layout.index(target_reg)
        if layout.widths[i_idx] > oracle.domain_bits + 1:
            raise SimulatorError(
                f"input register {in_reg!r} is wider than the {oracle.domain_bits}-bit "
                "domain plus its flag bit"
            )
        want = oracle.answer_bits(level)
        if layout.widths[t_idx] != want:
            raise SimulatorError(
                f"target register {target_reg!r} has width {layout.widths[t_idx]}, "
                f"level {level} answers need {want}"
            )
        if t_idx in targets:
            raise SimulatorError(f"target register {target_reg!r} used twice in one layer")
        if t_idx == i_idx:
            raise SimulatorError(f"register {in_reg!r} cannot be its own query target")
        targets.add(t_idx)
        resolved.append((level, i_idx, t_idx))
    chained = targets.intersection(i_idx for _, i_idx, _ in resolved)
    if chained:
        raise SimulatorError(f"register {layout.names[min(chained)]!r} is both read and written in one layer")
    return resolved


def apply_oracle_xor(
    state: SparseState,
    oracle: ShufflingOracle,
    query_spec,
    ledger: DepthLedger | None = None,
) -> SparseState:
    """One parallel oracle layer: for every (level, in, target) entry, XOR the
    flag-encoded answer for the input register's value into the target.

    It is a single oracle layer no matter how many levels the spec queries,
    so entries act on disjoint registers: they may share an input, but none
    may write a register another reads or writes. Inputs are read on their
    domain bits only (a flag bit above them is ignored). The layer is then a
    bijection on configs and an involution. values_at takes every input in
    state order and charges its core hits; Interpreter.oracle_layer the layer.
    """
    return _xor_layer(state, oracle, _validate_query_spec(state.layout, oracle, query_spec), ledger)


def _xor_layer(state: SparseState, oracle: ShufflingOracle, resolved, ledger: DepthLedger | None) -> SparseState:
    """apply_oracle_xor on validated (level, input index, target index) entries."""
    layout = state.layout
    keys = list(state.amps)
    for level, i_idx, t_idx in resolved:
        # no entry writes an input, so every input is a column of the state
        inputs = state.column(layout.names[i_idx], oracle.domain_bits).tolist()
        answers = oracle.values_at(level, inputs, ledger=ledger)
        if min(answers) < 0 or max(answers) >> layout.widths[t_idx]:
            raise SimulatorError(f"level {level} answered outside register {layout.names[t_idx]!r}")
        t_off = layout.offsets[t_idx]
        keys = [key ^ a << t_off for key, a in zip(keys, answers)]
    amps = dict(zip(keys, state.amps.values()))
    if len(amps) != len(state.amps):
        raise AssertionError("oracle layer mapped two configs to one")
    return SparseState._trusted(layout, amps, check_norm=False)


@functools.lru_cache(maxsize=16)
def _hadamard_row(w: int) -> np.ndarray:
    """2^(-w/2) signed by the parity of each w-bit x: input v goes to output j
    with this row's entry at v & j. Shared, so read-only."""
    row = np.full(1, 2 ** (-w / 2))
    for _ in range(w):
        row = np.concatenate((row, -row))
    row.setflags(write=False)
    return row


def _hadamard_block(state: SparseState, register: str):
    """The Hadamard on one register as a groups-by-2^w array, rows first seen
    first, each summing its members' terms in input order from zeros as a
    term-by-term loop does, signed zeros included: each member's terms are
    added to its row at once (the solver's Hadamard follows the core
    measurement, so its one row holds one or two members). Returns the rows'
    keys off the register, its offset, the array, which entries pass
    PRUNE_TOL (np.hypot is abs() to the bit), the outputs j holding one, and
    their Born weights: masked np.float_power(|a|, 2) (Python's ** 2 to the
    bit) summed over rows in row order. Refused past HADAMARD_ENTRIES before
    allocating, or on norm drift."""
    off, mask = state.layout.field(register)
    w, rest = state.layout.width(register), ~(mask << off)
    groups: dict[int, int] = {}
    member_group = [groups.setdefault(key & rest, len(groups)) for key in state.amps]
    if len(groups) << w > HADAMARD_ENTRIES:
        raise SimulatorError(f"a Hadamard on {register!r} would hold {len(groups)} x 2^{w} outputs, "
                             f"past the cap of {HADAMARD_ENTRIES}")
    values = state.column(register)[:, None]
    amps = np.array(list(state.amps.values()), dtype=complex)[:, None]
    row, acc = _hadamard_row(w), np.zeros((len(groups), 1 << w), dtype=complex)
    step = max(1, (1 << 16) >> w)  # bounds the members-by-outputs block of terms
    for lo in range(0, len(amps), step):
        terms = row[values[lo : lo + step] & np.arange(1 << w)] * amps[lo : lo + step]
        for g, member_terms in zip(member_group[lo : lo + step], terms):
            acc[g] += member_terms
    mags = np.hypot(acc.real, acc.imag)
    kept = mags > PRUNE_TOL
    column_weights = np.float_power(mags, 2, out=np.zeros_like(mags), where=kept).sum(axis=0)
    outcomes = np.flatnonzero(column_weights)
    weights = column_weights[outcomes]
    _check_norm(math.sqrt(weights.sum()))
    return list(groups), off, acc, kept, outcomes, weights


def hadamard_register(state: SparseState, register: str) -> SparseState:
    """Hadamard on every qubit of one register; outputs by first-seen group, then ascending j."""
    rests, off, acc, kept, _, _ = _hadamard_block(state, register)
    keys = [rests[g] | j << off for g, j in np.argwhere(kept).tolist()]
    return SparseState._trusted(state.layout, dict(zip(keys, acc[kept].tolist())), check_norm=False)


def _draw(weights: np.ndarray, cumulative: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """An outcome's index drawn by the Born rule, and the scale that renormalizes its configs."""
    pick = min(int(np.searchsorted(cumulative, rng.random(), side="right")), len(weights) - 1)
    return pick, 1.0 / np.sqrt(weights[pick])


def measure_register(state: SparseState, register: str, rng: np.random.Generator) -> tuple[int, SparseState]:
    """Born-rule measurement of one register; returns (outcome, collapsed).

    Outcomes are enumerated in sorted order, so a fixed generator state fixes
    the outcome; re-measuring the same register is then deterministic. The
    state's kept marginal (SparseState.marginal) gives the outcomes and their
    running probabilities, so this only draws, searches and collapses.
    """
    law = state.marginal(register)
    pick, scale = _draw(law.weights, law.cumulative, rng)
    keep = {c: a * scale for c, a in compress(state.amps.items(), (law.bins == pick).tolist())}
    return law.outcomes[pick], SparseState._trusted(state.layout, keep)


def fourier_sample(state: SparseState, register: str, rng: np.random.Generator) -> tuple[int, SparseState]:
    """measure_register(hadamard_register(state, register), register, rng) bit
    for bit, with the same draw, read off the Hadamard's array and its Born
    weights: only the drawn column j is collapsed, so the 2^w-wide state is
    never built."""
    rests, off, acc, kept, outcomes, weights = _hadamard_block(state, register)
    pick, scale = _draw(weights, np.cumsum(weights / weights.sum()), rng)
    j = int(outcomes[pick])
    rows = np.flatnonzero(kept[:, j]).tolist()
    collapsed = {rests[g] | j << off: a * scale for g, a in zip(rows, acc[rows, j].tolist())}
    return j, SparseState._trusted(state.layout, collapsed)


# -- circuit programs --------------------------------------------------------


@dataclass(frozen=True)
class CircuitProgram:
    """Ops, run in order: ("uniform", reg) | ("hadamard", reg) |
    ("oracle", query_spec) | ("measure", reg)."""

    layout: RegisterLayout
    ops: tuple

    @functools.cache
    def measure_all(self) -> "CircuitProgram":
        """This program, then a measurement, in layout order, of every register
        still unmeasured since its last write. A write is a uniform, a
        Hadamard or an oracle target; an oracle input is only read, so a
        register measured and then only read keeps its outcome. The solver
        round (`cq-solver`) measures N_d mid-circuit and Q last, so it gains
        only N0..N{d-1}, which its uncompute wrote. Built once per program."""
        settled: set[str] = set()
        for kind, arg in self.ops:
            if kind == "measure":
                settled.add(arg)
            elif kind == "oracle":
                settled.difference_update(target for _, _, target in arg)
            else:
                settled.discard(arg)
        final = tuple(("measure", r) for r in self.layout.names if r not in settled)
        return CircuitProgram(self.layout, self.ops + final)


@functools.cache
def _linked_groups(program: CircuitProgram) -> tuple[dict[str, int], tuple]:
    """The program's registers grouped by its oracle entries, each group in the
    all-zero basis state; states are never mutated, so interpreters share them."""
    layout = program.layout
    group_of = {name: i for i, name in enumerate(layout.names)}
    for _, a, b in (entry for kind, arg in program.ops if kind == "oracle" for entry in arg):
        keep, drop = sorted((group_of[a], group_of[b]))
        group_of.update({name: keep for name, g in group_of.items() if g == drop})
    states: list[SparseState | None] = [None] * len(layout.names)
    for g in set(group_of.values()):
        names = tuple(name for name in layout.names if group_of[name] == g)
        states[g] = basis_state(RegisterLayout(names, tuple(map(layout.width, names))))
    return group_of, tuple(states)


class Interpreter:
    """Runs circuit ops on a sparse state factored into register groups, so
    registers that never interact cost the sum, not the product, of their
    supports. The program's oracle ops fix the groups; an oracle entry
    coupling registers the program never links is refused. Each oracle layer
    is validated, charged to the ledger (which enforces the budget), then
    answered; a refused layer leaves every group as it was. Until measured, a
    group's state depends only on the oracle, its widths and its ops so far,
    registers by position (its path, empty while it is fresh): they draw
    nothing, and oracle answers are final (ShufflingOracle.values_at). So
    each state a group reaches is kept per oracle with its step's core hits,
    and a group on that path reads it back, charged the layer, then the hits.
    A Hadamard whose group's next op measures it runs with that as one fourier_sample."""

    def __init__(
        self, program: CircuitProgram, oracle: ShufflingOracle, rng: np.random.Generator, ledger: DepthLedger
    ) -> None:
        self._layout, self._oracle, self._rng, self.ledger = program.layout, oracle, rng, ledger
        self._group_of, fresh = _linked_groups(program)
        self.states = list(fresh)
        self._paths: list[tuple | None] = [()] * len(fresh)  # None once measured
        self._kept = _steps.setdefault(oracle, {})
        self.outcomes: dict[str, int] = {}

    def _group(self, name: str) -> int:
        if name not in self._group_of:
            raise SimulatorError(f"no register named {name!r} in {tuple(self._group_of)}")
        return self._group_of[name]

    def uniform(self, name: str) -> None:
        g = self._group(name)
        if self._paths[g] != ():
            raise SimulatorError(f"register {name!r} or one linked to it is in use; cannot reinitialize")
        self._advance("uniform", {g: name}, lambda state, name: init_uniform(state.layout, name))

    def hadamard(self, name: str) -> None:
        self._advance("hadamard", {self._group(name): name}, hadamard_register)

    def oracle_layer(self, query_spec) -> None:
        _validate_query_spec(self._layout, self._oracle, query_spec)
        by_group: dict[int, list] = {}
        for level, a, b in query_spec:
            g = self._group_of[a]
            if self._group_of[b] != g:
                raise SimulatorError(f"registers {a!r} and {b!r} are not linked by the program")
            at = self.states[g].layout.names.index  # registers by position, so banks share paths
            by_group.setdefault(g, []).append((level, at(a), at(b)))
        self.ledger.record_oracle_layer()
        self._advance("oracle", by_group, lambda state, entries: _xor_layer(state, self._oracle, entries, self.ledger))

    def _advance(self, kind: str, args: dict, step) -> None:
        """Set each group g to step(state, args[g]), or read back its path's kept
        state, once all are answered (a refused layer changes none); keep new steps."""
        states, paths = list(self.states), list(self._paths)
        for g, arg in args.items():
            state, path = self.states[g], self._paths[g]
            if path is not None:  # registers by position, so banks share paths
                path += ((kind, tuple(arg) if kind == "oracle" else state.layout.names.index(arg)),)
            kept = None if path is None else self._kept.get((state.layout.widths, path))
            if kept is None:
                before = self.ledger.core_evaluations
                kept = step(state, arg), self.ledger.core_evaluations - before
                if path is not None:
                    self._kept[(state.layout.widths, path)] = kept
            else:
                self.ledger.record_core(kept[1])
            states[g], paths[g] = kept[0]._renamed(state.layout), path
        self.states, self._paths = states, paths

    def register_values(self, name: str) -> set[int]:
        return self.states[self._group(name)].register_values(name)

    def run(self, ops) -> dict[str, int]:
        """Run ops in order; returns the last outcome of each measured register."""
        ops, waiting = tuple(ops), set()  # registers whose Hadamard waits for their measurement
        for i, (kind, arg) in enumerate(ops):
            if kind == "oracle":
                self.oracle_layer(arg)
            elif kind == "measure":
                g, read = self._group(arg), fourier_sample if arg in waiting else measure_register
                self.outcomes[arg], self.states[g] = read(self.states[g], arg, self._rng)
                self._paths[g] = None
                waiting.discard(arg)
            elif kind == "hadamard" and self._measured_next(ops, i):
                waiting.add(arg)
            elif kind in ("uniform", "hadamard"):
                getattr(self, kind)(arg)
            else:
                raise ValueError(f"unknown circuit op {kind!r}")
        return self.outcomes

    def _measured_next(self, ops: tuple, i: int) -> bool:
        """Whether the first later op on the Hadamard ops[i]'s group, or unknown, measures its register."""
        g = self._group(ops[i][1])
        for kind, arg in ops[i + 1 :]:
            names = [r for entry in arg for r in entry[1:]] if kind == "oracle" else [arg]
            if kind not in ("oracle", "uniform", "hadamard", "measure") or g in map(self._group_of.get, names):
                return (kind, arg) == ("measure", ops[i][1])
        return False


# Per oracle: (group widths, path) -> (state, its step's core hits); goes with the oracle.
_steps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def run_program(
    program: CircuitProgram, oracle: ShufflingOracle, rng: np.random.Generator, ledger: DepthLedger
) -> Interpreter:
    """Run a program as one circuit invocation; returns the interpreter that ran it."""
    ledger.record_circuit()
    machine = Interpreter(program, oracle, rng, ledger)
    machine.run(program.ops)
    return machine


@dataclass(frozen=True)
class MixedEnsemble:
    """Statistical mixture of sparse pure states on one layout."""

    components: tuple[tuple[float, SparseState], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("ensemble needs at least one component")
        if not all(p >= 0 for p, _ in self.components):
            raise ValueError("ensemble probabilities must be non-negative")
        total = sum(p for p, _ in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ensemble probabilities sum to {total}, expected 1")
        first = self.components[0][1].layout
        for _, s in self.components:
            if s.layout != first:
                raise ValueError("ensemble components must share one layout")

    @classmethod
    def pure(cls, state: SparseState) -> "MixedEnsemble":
        return cls(((1.0, state),))

    @classmethod
    def uniform(cls, states) -> "MixedEnsemble":
        states = list(states)
        return cls(tuple((1.0 / len(states), s) for s in states))


def _as_ensemble(x) -> MixedEnsemble:
    if isinstance(x, SparseState):
        return MixedEnsemble.pure(x)
    if isinstance(x, MixedEnsemble):
        return x
    raise TypeError(f"expected SparseState or MixedEnsemble, got {type(x).__name__}")


def _join(x, y, per_key: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """P[i, j] = <x_i|y_j> from the entries of two component lists, given how
    many y entries hold each key: y's entries are grouped by key with a
    counting sort, and each x entry is expanded into its matches, JOIN_BLOCK
    at a time. np.add.at adds in the order it is given, so each P[i, j] sums
    its terms in x_i's dict order."""
    (xr, xk, xa), (yr, yk, ya) = x, y
    order = np.argsort(yk, kind="stable")
    first = np.cumsum(per_key) - per_key
    matches = per_key[xk]
    ends = np.cumsum(matches)
    width = shape[1]
    acc = np.zeros(shape[0] * width, dtype=np.complex128)
    lo = done = 0
    while lo < len(xk):
        hi = max(lo + 1, int(np.searchsorted(ends, done + JOIN_BLOCK, side="right")))
        block = matches[lo:hi]
        entry = np.repeat(np.arange(lo, hi), block)
        skip = first[xk[lo:hi]] - (ends[lo:hi] - block - done)
        partner = order[np.repeat(skip, block) + np.arange(len(entry))]
        np.add.at(acc, xr[entry] * width + yr[partner], xa[entry].conj() * ya[partner])
        lo, done = hi, int(ends[hi - 1])
    return acc.reshape(shape)


def _cross_overlaps(a: MixedEnsemble, b: MixedEnsemble):
    """M_ab[i, j] = sqrt(p_i q_j) <a_i|b_j> and M_ba[j, i] = sqrt(q_j p_i) <b_j|a_i>,
    each its own product of ordered arguments, so swapping a and b swaps the
    pair bit for bit.

    The joint keys are numbered once, in first-seen order. Most ensembles
    match far fewer key pairs, m = sum over keys of n_a(key) n_b(key), than
    they have component-by-key entries k U, and take the join (_join), whose
    sums run in one argument's dict order. Many components on a shared
    support, such as 300 + 300 states on 64 configs, match more pairs than
    that; up to DENSE_ENTRIES they take a dense product on the sorted joint
    support, the same for either order, which is the faster route there.
    The cap guards the ka x kb cost.
    """
    va, vb = [s.amps for _, s in a.components], [s.amps for _, s in b.components]
    k = len(va) + len(vb)
    if k > SUPPORT_CAP:
        raise SimulatorError(f"{k} components exceed the cap of {SUPPORT_CAP}")
    w = np.outer(np.sqrt([p for p, _ in a.components]), np.sqrt([q for q, _ in b.components]))
    # every (component, key number, amplitude) entry, components in order and
    # each in its dict order; a key takes the next number when first seen
    rows = np.repeat(np.arange(k), list(map(len, va + vb)))
    index: dict[int, int] = {}
    keys = np.array([index.setdefault(key, len(index)) for key in chain(*va, *vb)], dtype=np.intp)
    amps = np.fromiter(chain.from_iterable(c.values() for c in va + vb), dtype=complex, count=len(rows))
    split, support = sum(map(len, va)), len(index)
    na, nb = np.bincount(keys[:split], minlength=support), np.bincount(keys[split:], minlength=support)
    if int(na @ nb) > k * support and k * support <= DENSE_ENTRIES:
        rank = np.empty(support, dtype=np.intp)
        rank[list(map(index.__getitem__, sorted(index)))] = np.arange(support)
        dense = np.zeros((k, support), dtype=np.complex128)
        dense[rows, rank[keys]] = amps
        da, db = dense[: len(va)], dense[len(va) :]
        m_ab, m_ba = da.conj() @ db.T, db.conj() @ da.T
    else:
        ea, eb = (rows[:split], keys[:split], amps[:split]), (rows[split:] - len(va), keys[split:], amps[split:])
        m_ab, m_ba = _join(ea, eb, nb, w.shape), _join(eb, ea, na, w.T.shape)
    return m_ab * w, m_ba * w.T


def fidelity(a, b) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    If rho = X X^H and sigma = Y Y^H, then F(rho, sigma) = ||X^H Y||_1, the
    sum of its singular values. The weighted components sqrt(p_i)|a_i> and
    sqrt(q_j)|b_j> are such factors, so F is the nuclear norm of the ka x kb
    cross overlaps M[i, j] = sqrt(p_i q_j) <a_i|b_j>: no span basis, no matrix
    square root, no cut-off. The norms of M_ab and M_ba are averaged, so the
    result is exactly symmetric.
    """
    a, b = _as_ensemble(a), _as_ensemble(b)
    if a.components[0][1].layout != b.components[0][1].layout:
        raise SimulatorError("fidelity needs both ensembles on one layout")
    if a is b or a.components == b.components:
        # identical descriptions are the same density matrix; skipping the
        # SVD keeps B(rho, rho) at exactly zero instead of sqrt(eps)
        return 1.0
    f = sum(np.linalg.svd(m, compute_uv=False).sum() for m in _cross_overlaps(a, b)) / 2.0
    return min(max(float(f), 0.0), 1.0)


def bures_distance(a, b) -> float:
    """B(rho, sigma) = sqrt(2 - 2 F); upper-bounds trace distance."""
    f = fidelity(a, b)
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * f)))
