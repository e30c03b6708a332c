"""Hidden-set sampling, shadow oracles, and the one-way-to-hiding checks.

The hardness argument hides the shuffle's level sets behind supersets the
adversary cannot find: round l draws a superset of the true level-l set at an
exact 2^-n density inside the previous round's superset, then pushes it down
the shuffle. A shadow oracle answers bot on the hidden points. The checks
here verify, per sample and on pooled ensembles, that distinguishing the real
oracle from its shadow is bounded by the probability of the query state
touching the hidden sets, and that uncorrelated query states touch them with
probability at most (number of query slots) / 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import qsim
from .oracle import MaterializedShufflingOracle, OracleError, Path, ShufflingOracle


@dataclass(frozen=True)
class HiddenSets:
    """S_j^(l) for 1 <= l <= d, l <= j <= d, each a sorted read-only int64
    array; round 0 is the full domain."""

    n: int
    d: int
    sets: dict[tuple[int, int], np.ndarray]

    def set_at(self, j: int, l: int) -> np.ndarray:
        if not 1 <= l <= self.d or not l <= j <= self.d:
            raise ValueError(f"no hidden set for level j={j}, round l={l} at depth {self.d}")
        return self.sets[(j, l)]

    def contains(self, j: int, l: int, x: int) -> bool:
        return bool(self.members(j, l, np.array([x], dtype=np.int64))[0])

    def members(self, j: int, l: int, xs: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the int64 points xs lie in S_j^(l)."""
        pts = self.set_at(j, l)
        pos = np.minimum(np.searchsorted(pts, xs), len(pts) - 1)
        return pts[pos] == xs


def sample_hidden_sets(oracle: ShufflingOracle, rng: np.random.Generator) -> HiddenSets:
    """One draw of the nested hidden supersets.

    Round l picks S_l^(l) uniformly among the size-|parent|/2^n subsets of
    S_l^(l-1) that contain the true level set S_l, then maps it through the
    remaining injections, so every deeper S_j^(l) keeps the same cardinality
    and the true S_j stays inside by construction.
    """
    if not isinstance(oracle, MaterializedShufflingOracle):
        raise OracleError("hidden-set sampling requires the materialized backend")
    n, d = oracle.n, oracle.d
    sets: dict[tuple[int, int], np.ndarray] = {}
    parent = np.arange(oracle.domain_size, dtype=np.int64)  # S_l^(l-1), sorted
    for l in range(1, d + 1):
        true_set = oracle.level_points(l)
        target = oracle.domain_size >> (n * l)
        # S_l lies inside its sorted parent, so this is setdiff1d(parent, true_set)
        pool = np.delete(parent, np.searchsorted(parent, true_set))
        extra = rng.choice(pool, size=target - len(true_set), replace=False)
        pts = np.sort(np.concatenate([true_set, extra]))
        sets[(l, l)] = pts
        for j in range(l + 1, d + 1):
            pts = np.sort(oracle.tables[j - 1][pts])
            sets[(j, l)] = pts
            if j == l + 1:
                parent = pts
    for pts in sets.values():
        pts.setflags(write=False)
    return HiddenSets(n=n, d=d, sets=sets)


class ShadowOracle(ShufflingOracle):
    """Answers bot wherever round l hides a point, the base answer elsewhere.

    Levels below l are untouched; at level j >= l every point of S_j^(l) is
    blanked, which covers the true level set and therefore the whole core.
    Point queries and layers alike blank the hidden points of the base's bulk answers.
    """

    def __init__(self, base: ShufflingOracle, hidden: HiddenSets, l: int) -> None:
        if not 1 <= l <= base.d:
            raise ValueError(f"shadow round {l} outside 1..{base.d}")
        super().__init__(base.instance, base.d)
        self.base = base
        self.hidden = hidden
        self.l = l

    def _encoded_answers(self, level: int, xs) -> list[int]:
        idx = np.asarray(xs, dtype=np.int64)
        answers = self.base._encoded_answers(level, idx)
        if level < self.l:
            return answers
        hidden = self.hidden.members(level, self.l, idx)
        return np.where(hidden, 1 << self.value_bits(level), answers).tolist()

    def query_path(self, x0: int, ledger=None) -> Path:
        raise OracleError("path queries are undefined through a shadow; query levels directly")


def find_probability(
    state: qsim.SparseState,
    oracle: ShufflingOracle,
    query_spec,
    hidden: HiddenSets,
    l: int,
) -> float:
    """Probability that measuring the query inputs lands in a hidden set:
    the squared mass of configurations whose round-l-or-deeper query slots
    hold hidden points."""
    hit = np.zeros(len(state.amps), dtype=bool)
    for level, in_reg, _ in query_spec:
        if level >= l:
            hit |= hidden.members(level, l, state.column(in_reg, oracle.domain_bits))
    # abs() and a left-to-right loop in dict order, for the bits of a per-config loop
    total = 0.0
    for amp in compress(state.amps.values(), hit.tolist()):
        total += abs(amp) ** 2
    return total


def _diff_norm_sq(a: qsim.SparseState, b: qsim.SparseState) -> float:
    # a plain loop: builtin sum() rounds differently from Python 3.12 on
    total = 0.0
    for k in set(a.amps) | set(b.amps):
        total += abs(a.amps.get(k, 0j) - b.amps.get(k, 0j)) ** 2
    return total


@dataclass(frozen=True)
class HidingReport:
    """Per-sample and pooled comparison of real versus shadowed application."""

    samples: int
    l: int
    per_sample_holds: int
    max_per_sample_slack: float
    mean_p_find: float
    lhs_bures: float
    rhs: float
    pooled_holds: bool

    @property
    def all_hold(self) -> bool:
        return self.per_sample_holds == self.samples and self.pooled_holds


def check_hiding_bound(
    state: qsim.SparseState,
    pairs,
    l: int,
    query_spec,
    tol: float = 1e-9,
) -> HidingReport:
    """Apply one parallel query layer to `state` under each sampled
    (oracle, hidden-sets) pair, and its shadow, then check:

    per sample:  || psi_real - psi_shadow ||^2 <= 2 * p_find
    pooled:      Bures(avg real, avg shadow) <= sqrt(2 * E[p_find])
    """
    reals, shadows, pfs = [], [], []
    holds = 0
    max_slack = 0.0
    for oracle, hidden in pairs:
        psi_f = qsim.apply_oracle_xor(state, oracle, query_spec)
        psi_g = qsim.apply_oracle_xor(state, ShadowOracle(oracle, hidden, l), query_spec)
        pf = find_probability(state, oracle, query_spec, hidden, l)
        diff = _diff_norm_sq(psi_f, psi_g)
        slack = diff - 2.0 * pf
        max_slack = max(max_slack, slack)
        if slack <= tol:
            holds += 1
        reals.append(psi_f)
        shadows.append(psi_g)
        pfs.append(pf)
    if not pfs:
        raise ValueError("hiding bound needs at least one (oracle, hidden sets) pair")
    mean_pf = float(np.mean(pfs))
    lhs = qsim.bures_distance(qsim.MixedEnsemble.uniform(reals), qsim.MixedEnsemble.uniform(shadows))
    rhs = float(np.sqrt(2.0 * mean_pf))
    return HidingReport(
        samples=len(pfs),
        l=l,
        per_sample_holds=holds,
        max_per_sample_slack=max_slack,
        mean_p_find=mean_pf,
        lhs_bures=lhs,
        rhs=rhs,
        pooled_holds=lhs <= rhs + tol,
    )


@dataclass(frozen=True)
class FindBoundReport:
    query_slots: int
    resamples: int
    mean_p_find: float
    bound: float
    sigma: float
    holds: bool
    precondition_respected: bool


def check_find_bound(
    state: qsim.SparseState,
    oracle: ShufflingOracle,
    query_spec,
    l: int,
    rng: np.random.Generator,
    resamples: int = 200,
    hidden_sets=None,
) -> FindBoundReport:
    """E[p_find] <= q / 2^n for query states fixed before the hidden sets.

    With hidden_sets=None the sets are drawn fresh here, after the state, so
    the lemma's independence precondition holds by construction. Passing
    pre-existing sets marks the precondition as not respected: a state built
    after seeing them can concentrate on hidden points, and a failed bound
    then indicts the precondition, not the lemma.
    """
    q = sum(1 for level, _, _ in query_spec if level >= l)
    fresh = hidden_sets is None
    if fresh:
        hidden_sets = [sample_hidden_sets(oracle, rng) for _ in range(resamples)]
    pfs = [find_probability(state, oracle, query_spec, h, l) for h in hidden_sets]
    if not pfs:
        raise ValueError("find bound needs at least one hidden-set sample")
    mean_pf = float(np.mean(pfs))
    sigma = float(np.std(pfs, ddof=1) / np.sqrt(len(pfs))) if len(pfs) > 1 else 0.0
    bound = q / (1 << oracle.n)
    return FindBoundReport(
        query_slots=q,
        resamples=len(pfs),
        mean_p_find=mean_pf,
        bound=bound,
        sigma=sigma,
        holds=mean_pf <= bound + 3.0 * sigma + 1e-12,
        precondition_respected=fresh,
    )


@dataclass(frozen=True)
class MembershipReport:
    level_j: int
    round_l: int
    parent_draws: int
    hits: int
    estimate: float
    expected: float
    sigma: float
    within_3sigma: bool


def estimate_membership(
    oracle_sampler, j: int, l: int, trials: int, rng: np.random.Generator
) -> MembershipReport:
    """Monte Carlo estimate of Pr[0 in S_j^(l) | 0 in S_j^(l-1)] over fresh
    oracle and hidden-set draws; the identity value is 2^-n.

    The probe is the fixed point 0 of the full domain, chosen before any
    draw. Raises ValueError when no draw lands 0 in the round-(l-1) superset.
    """
    parent_draws = 0
    hits = 0
    n = None
    for _ in range(trials):
        oracle = oracle_sampler(rng)
        n = oracle.n
        hidden = sample_hidden_sets(oracle, rng)
        if l > 1 and not hidden.contains(j, l - 1, 0):
            continue
        parent_draws += 1
        if hidden.contains(j, l, 0):
            hits += 1
    if parent_draws == 0:
        raise ValueError("no draws satisfied the conditioning event; increase trials")
    estimate = hits / parent_draws
    expected = 1.0 / (1 << n)
    sigma = float(np.sqrt(max(estimate * (1 - estimate), 1e-12) / parent_draws))
    return MembershipReport(
        level_j=j,
        round_l=l,
        parent_draws=parent_draws,
        hits=hits,
        estimate=estimate,
        expected=expected,
        sigma=sigma,
        within_3sigma=abs(estimate - expected) <= 3.0 * sigma,
    )
