"""Independent dense statevector simulator used only for cross-checks, and
the helpers that only tests need.

DenseSim is deliberately implemented with a different representation from the
package's sparse simulator: a flat numpy vector over all 2^total_width basis
indices, bitfield arithmetic for register extraction, butterfly Hadamards,
and index-permutation oracle layers. It uses nothing from shufflesim.qsim
except the layout geometry. The helpers below it read sparse states
(`amplitude`, `dense_statevector`), reuse qsim's joint-span coordinates
(`trace_distance`), or read a materialized oracle's tables
(`table_answers`).
"""

import numpy as np

from shufflesim import qsim

DENSE_WIDTH_CAP = 20


def offset(layout, name: str) -> int:
    """Bit offset of a register in the dense index (register 0 lowest, the
    reverse of the sparse state's packed keys)."""
    return sum(layout.widths[: layout.index(name)])


def amplitude(state, values: dict) -> complex:
    """The amplitude of the config that gives every register its value."""
    if set(values) != set(state.layout.names):
        raise qsim.SimulatorError(f"amplitude lookup must name every register in {state.layout.names}")
    return state.amps.get(state.layout.pack(values[name] for name in state.layout.names), 0j)


def dense_statevector(state, width_cap: int = DENSE_WIDTH_CAP) -> np.ndarray:
    """Pack the sparse state into a full 2^W vector (W capped)."""
    w = state.layout.total_width
    if w > width_cap:
        raise qsim.SimulatorError(f"total width {w} exceeds the dense cap of {width_cap} bits")
    vec = np.zeros(1 << w, dtype=np.complex128)
    offsets = [offset(state.layout, name) for name in state.layout.names]
    for key, amp in state.amps.items():
        idx = 0
        for v, off in zip(state.layout.unpack(key), offsets):
            idx |= v << off
        vec[idx] = amp
    return vec


def table_answers(orc, level: int, xs) -> list[int]:
    """Encoded answers of a materialized oracle, read straight from its
    tables: tables[level][x] below the core; at the core, each root's chain
    end (the points of level_points(d)) answers the root's instance value and
    every other point the encoded bot."""
    if level < orc.d:
        return [int(orc.tables[level][x]) for x in xs]
    ends = range(1 << orc.n)
    for table in orc.tables:
        ends = [int(table[p]) for p in ends]
    core = dict(zip(ends, orc.instance.table.tolist()))
    assert sorted(core) == orc.level_points(orc.d).tolist()
    return [core.get(x, 1 << orc.n) for x in xs]


def trace_distance(a, b) -> float:
    """Half the trace norm of rho - sigma."""
    a, b = qsim._as_ensemble(a), qsim._as_ensemble(b)
    ca, cb = qsim._span_coords(*qsim._joint_components(a, b), len(a.components))
    rho = qsim._density(ca, [p for p, _ in a.components])
    sigma = qsim._density(cb, [p for p, _ in b.components])
    w = np.linalg.eigvalsh(rho - sigma)
    return float(np.abs(w).sum() / 2.0)


class DenseSim:
    def __init__(self, layout):
        self.layout = layout
        self.vec = np.zeros(1 << layout.total_width, dtype=complex)
        self.vec[0] = 1.0
        self._idx = np.arange(self.vec.size)

    def _field(self, name):
        return offset(self.layout, name), self.layout.width(name)

    def reg_values(self, name):
        off, w = self._field(name)
        return (self._idx >> off) & ((1 << w) - 1)

    def init_uniform(self, name):
        off, w = self._field(name)
        vals = self.reg_values(name)
        assert not np.any(self.vec[vals != 0]), "register must be zero before init"
        base = self._idx[vals == 0]
        out = np.zeros_like(self.vec)
        for v in range(1 << w):
            out[base | (v << off)] = self.vec[base] / np.sqrt(1 << w)
        self.vec = out

    def oracle_layer(self, oracle, query_spec):
        # simultaneous read: all answer shifts computed from the pre-layer index
        total_shift = np.zeros_like(self._idx)
        mask = oracle.domain_size - 1
        for level, in_reg, target_reg in query_spec:
            off_t, w_t = self._field(target_reg)
            assert w_t == oracle.answer_bits(level)
            inputs = self.reg_values(in_reg) & mask
            uniq, inverse = np.unique(inputs, return_inverse=True)
            answers = np.asarray(oracle.values_at(level, [int(u) for u in uniq]), dtype=np.int64)
            total_shift = total_shift ^ (answers[inverse] << off_t)
        out = np.zeros_like(self.vec)
        out[self._idx ^ total_shift] = self.vec
        self.vec = out

    def hadamard(self, name):
        off, w = self._field(name)
        for b in range(off, off + w):
            m = 1 << b
            lo = self._idx[(self._idx & m) == 0]
            a, c = self.vec[lo], self.vec[lo | m]
            self.vec[lo] = (a + c) / np.sqrt(2)
            self.vec[lo | m] = (a - c) / np.sqrt(2)

    def outcome_probability(self, name, value):
        return float(np.sum(np.abs(self.vec[self.reg_values(name) == value]) ** 2))

    def project(self, name, value):
        """Force a measurement outcome; renormalize. Returns the outcome prob."""
        p = self.outcome_probability(name, value)
        assert p > 1e-12, "projecting onto a zero-probability outcome"
        keep = self.reg_values(name) == value
        self.vec = np.where(keep, self.vec, 0) / np.sqrt(p)
        return p
