"""The d-shuffling oracle: d uniform injections stacked on top of a hidden
function, with materialized and lazily-sampled backends.

A depth-d shuffling of an instance f on n bits acts on the domain Z_2^((d+2)n).
Levels 0..d-1 are uniform random permutations f_0..f_{d-1}. Level d is the
core function: on the image S_d of the embedded Z_2^n under f_{d-1} o ... o f_0
it returns the instance value of the originating root, elsewhere bot. Points
x in Z_2^n embed as zero-padded integers, so the embedding is the identity on
ints. Answers carry a bot flag bit above the value bits at every level, which
keeps base and shadowed applications on one register layout.

Both backends expose the same query surface and the same answer distribution
on identical query sequences. The lazy backend reveals injections on demand
and keeps every committed fact consistent: revealed pairs f_i(x) = y, from
which the chain prefixes of embedded roots are read, and membership
refutations recorded when a core query off the revealed chains is answered
bot. Query patterns whose exact conditional law would require reweighting
against those refutations (off-chain reveals or interleaved mid-level probes
after a refutation) raise OracleError instead of answering from a biased
distribution; no supported algorithm produces them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .ledger import DepthLedger
from .simon import SimonInstance


class OracleError(Exception):
    pass


class _BotType:
    _instance = None

    def __new__(cls) -> "_BotType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "bot"


BOT = _BotType()

MATERIALIZED_CAP_BITS = 20


@dataclass(frozen=True)
class Path:
    """One full chase x_0 -> f_0(x_0) -> ... -> f(x_0); points[0] is the
    embedded start, points[-1] the n-bit instance value."""

    points: tuple[int, ...]

    @property
    def final(self) -> int:
        return self.points[-1]


class IncrementalInjection:
    """Uniform random injection on [0, size), revealed on demand.

    Unrevealed images are drawn uniformly from the unused codomain (rejection
    sampling, exact), so any reveal order yields the distribution of a
    fully-sampled uniform injection restricted to the queried points.

    `fwd` and `rev` are the revealed links, x -> y and y -> x: the lazy
    oracle's record of them, which it reads directly. `reveal` and `force`
    add each link to both, so they stay inverse.
    """

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        if size < 1:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._rng = rng
        self.fwd: dict[int, int] = {}
        self.rev: dict[int, int] = {}

    def reveal(self, xs: list[int], reject=None) -> list[int]:
        """Reveal distinct unrevealed points in order; each image is uniform
        over the unused images that `reject` (if given) does not refuse.

        Each pass draws one image for every point still open: one `integers`
        call for several points on sizes up to 2^62, one `bytes` call for
        several points on wider sizes, cut into strides of whole 32-bit words
        of which each draw keeps its first b bytes, and one `_draw_uniform`
        for a single point (a scalar draw, three times cheaper than a batch
        of one). The draws are accepted in order; one whose image is used or
        refused is skipped, so the open point takes the next draw. numpy gives
        k batched draws the values and generator state of k scalar draws
        (`bytes` fills whole 32-bit words and drops the rest of the last), so
        the stream is that of revealing the points one after another, one
        draw at a time. A pass with no `reject` whose draws are distinct and
        unused accepts them all, so it commits them with one update of each
        link dict. Ends a.s.: a completion of the committed facts maps every
        open point to an unused image that `reject` accepts, so every draw is
        accepted with positive probability.
        """
        out: list[int] = []
        while len(out) < len(xs):
            k = len(xs) - len(out)
            if k == 1:
                ys = [_draw_uniform(self._rng, self.size)]
            elif self.size <= 1 << 62:
                ys = self._rng.integers(self.size, size=k).tolist()
            else:
                nbytes = _wide_bytes(self.size)
                stride = -(-nbytes // 4) * 4
                raw = self._rng.bytes(k * stride)
                ys = [int.from_bytes(raw[i : i + nbytes], "little") & (self.size - 1)
                      for i in range(0, k * stride, stride)]
            if reject is None and len(set(ys)) == k and self.rev.keys().isdisjoint(ys):
                open_points = xs[len(out) :]
                self.fwd.update(zip(open_points, ys))
                self.rev.update(zip(ys, open_points))
                out += ys
                continue
            for y in ys:
                if y not in self.rev and (reject is None or not reject(y)):
                    x = xs[len(out)]
                    self.fwd[x] = y
                    self.rev[y] = x
                    out.append(y)
        return out

    def force(self, x: int, y: int) -> None:
        # Commit a pair decided by an external conditional-sampling step.
        if x in self.fwd or y in self.rev:
            raise OracleError("pair conflicts with revealed injection state")
        self.fwd[x] = y
        self.rev[y] = x


def _wide_bytes(size: int) -> int:
    # Wide domains exceed the generator's integer range; sizes here are powers
    # of two, so masked random bytes stay exactly uniform.
    if size & (size - 1):
        raise OracleError(f"wide domain size {size} must be a power of two")
    return ((size - 1).bit_length() + 7) // 8


def _draw_uniform(rng: np.random.Generator, size: int) -> int:
    if size <= 1 << 62:
        return int(rng.integers(size))
    return int.from_bytes(rng.bytes(_wide_bytes(size)), "little") & (size - 1)


class ShufflingOracle:
    """Shared query surface; a backend answers through `_encoded_answers`."""

    def __init__(self, instance: SimonInstance, d: int) -> None:
        if d < 0:
            raise ValueError(f"depth must be nonnegative, got {d}")
        self.instance = instance
        self.n = instance.n
        self.d = d
        self.domain_bits = (d + 2) * instance.n
        self.domain_size = 1 << self.domain_bits

    def value_bits(self, level: int) -> int:
        self._check_level(level)
        return self.domain_bits if level < self.d else self.n

    def answer_bits(self, level: int) -> int:
        return self.value_bits(level) + 1

    def encode_answer(self, level: int, value) -> int:
        if value is BOT:
            return 1 << self.value_bits(level)
        return int(value)

    def decode_answer(self, level: int, encoded: int):
        if encoded >> self.value_bits(level):
            return BOT
        return encoded

    def query_point(self, level: int, x: int, ledger: DepthLedger | None = None):
        """Classical query: the level's function value, BOT off the core's
        domain at level d. It is a one-point `values_at`, decoded, and the
        ledger is charged one classical query before the oracle answers."""
        self._check_level(level)
        self._check_point(x)
        if ledger is not None:
            ledger.record_classical()
        return self.decode_answer(level, self.values_at(level, [x], ledger)[0])

    def values_at(self, level: int, xs, ledger: DepthLedger | None = None) -> list[int]:
        """Bulk answers for superposed application, already flag-encoded.

        Does not count classical queries; the caller accounts for the oracle
        layer. Core evaluations are tallied per distinct point. A lazy oracle
        reads each answer it has committed from its revealed links and
        refutations and samples only fresh points, in first-seen order of
        `xs` (a circuit layer's state order, which picks the fresh point each
        image goes to, not their law); committed answers are final and draw
        nothing, so the generator stream is that of answering each point in
        turn. It draws a layer's fresh level-<d images in one batch
        (`IncrementalInjection.reveal`), refusing the whole layer before any
        draw if a refutation makes one point's reveal inexact, and answers
        core points that walk back to a root from the instance table, which
        keeps that stream and every answer. A layer at any level is refused
        before it draws, whatever its points' order, and leaves nothing behind.

        Every answer given is final, on every backend: asking for the same
        points again returns the same answers, draws nothing and commits
        nothing. qsim.Interpreter depends on it to keep a register group's
        states before its first measurement instead of asking again.
        """
        self._check_level(level)
        for x in (min(xs), max(xs)) if len(xs) else ():
            self._check_point(x)
        answers = self._encoded_answers(level, xs)
        if ledger is not None and level == self.d:
            bot = 1 << self.n
            core_hits = len({x for x, a in zip(xs, answers) if a != bot})
            if core_hits:
                ledger.record_core(core_hits)
        return answers

    def query_path(self, x0: int, ledger: DepthLedger | None = None) -> Path:
        """Chase the full chain from an embedded root to its instance value."""
        if not 0 <= x0 < (1 << self.n):
            raise OracleError(f"path queries start in the embedded domain, got {x0}")
        if ledger is not None:
            ledger.record_classical()
        points = [x0]
        for level in range(self.d + 1):
            answer = self._answer(level, points[-1])
            if answer is BOT:
                raise AssertionError("path left the core's domain; backend state is inconsistent")
            points.append(int(answer))
        if ledger is not None:
            ledger.record_core()
        return Path(tuple(points))

    def level_points(self, j: int) -> np.ndarray:
        """S_j, the image of the embedded domain after j injections, as a
        sorted int64 array."""
        raise OracleError("level sets require the materialized backend")

    def _answer(self, level: int, x: int):
        # one point through the backend's bulk hook
        return self.decode_answer(level, self._encoded_answers(level, [x])[0])

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.d:
            raise OracleError(f"level {level} outside 0..{self.d}")

    def _check_point(self, x: int) -> None:
        if not 0 <= x < self.domain_size:
            raise OracleError(f"point {x} outside the {self.domain_bits}-bit domain")


def check_materialized_cap(domain_bits: int) -> None:
    """Refuse a domain too wide for the materialized backend's tables."""
    if domain_bits > MATERIALIZED_CAP_BITS:
        raise OracleError(
            f"(d+2)n = {domain_bits} bits exceeds the materialized cap "
            f"of {MATERIALIZED_CAP_BITS}; use the lazy backend"
        )


class MaterializedShufflingOracle(ShufflingOracle):
    """Backend with fully sampled permutation tables; domain capped to keep
    the tables in memory."""

    def __init__(self, instance: SimonInstance, d: int, rng: np.random.Generator) -> None:
        super().__init__(instance, d)
        check_materialized_cap(self.domain_bits)
        size = self.domain_size
        self.tables = [rng.permutation(size).astype(np.int64, copy=False) for _ in range(d)]
        points = np.arange(1 << self.n, dtype=np.int64)
        self._level_points = [points]
        for table in self.tables:
            points = table[points]
            self._level_points.append(points)
        self._core_table = np.full(size, -1, dtype=np.int64)
        self._core_table[self._level_points[-1]] = instance.table

    def _encoded_answers(self, level: int, xs) -> list[int]:
        idx = np.asarray(xs, dtype=np.int64)
        if level < self.d:
            return self.tables[level][idx].tolist()
        v = self._core_table[idx]
        return np.where(v < 0, 1 << self.n, v).tolist()

    def level_points(self, j: int) -> np.ndarray:
        return np.sort(self._level_points[j])  # a fresh copy


class LazyShufflingOracle(ShufflingOracle):
    """Backend that reveals the injections on demand. Its revealed links and
    refutations are its whole record, and every answer is read from them.
    The record only grows: a layer is refused before it draws, and a link is
    never undone nor a refutation lifted."""

    def __init__(self, instance: SimonInstance, d: int, rng: np.random.Generator) -> None:
        super().__init__(instance, d)
        self._rng = rng
        # The revealed pairs are the only record of the chains: a point lies
        # on root r's chain iff revealed links lead from r to it.
        self._levels = [IncrementalInjection(self.domain_size, rng) for _ in range(d)]
        # Points committed to lie outside S_j, keyed by level j >= 1. A
        # refuted point is where a walk back stopped, so it has no preimage,
        # and reveals refuse it as an image, so it never gains one.
        self._banned: dict[int, set[int]] = {j: set() for j in range(1, d + 1)}

    # -- shared plumbing ---------------------------------------------------

    def _answer(self, level: int, x: int):
        # per point: a path query through the bulk hook costs three times more
        if level == self.d:
            return self._resolve_core(x)
        y = self._levels[level].fwd.get(x)
        return self._reveal(level, [x])[0] if y is None else y

    def _encoded_answers(self, level: int, xs) -> list[int]:
        # distinct points in first-seen order: a repeat reads what the first drew
        if level == self.d:
            return self._core_answers(xs)
        answers = list(map(self._levels[level].fwd.get, xs))
        if None not in answers:
            return answers
        if answers.count(None) == len(xs) == len(set(xs)):  # all fresh and distinct
            return self._reveal(level, xs)
        fresh = list(dict.fromkeys(x for x, a in zip(xs, answers) if a is None))
        given = dict(zip(fresh, self._reveal(level, fresh)))
        return [given[x] if a is None else a for x, a in zip(xs, answers)]

    def _core_answers(self, xs) -> list[int]:
        # A point whose revealed links walk back to a root has that root's
        # value and draws nothing (a refuted point never gains a preimage, so
        # no such walk meets one); the others are resolved in first-seen
        # order, and one already answered is refuted or walks back off the
        # roots, so it too is answered bot without a draw. Resolving one never
        # changes a walked point's answer: it only adds links and refutations
        # off the revealed chains.
        reached = xs
        for t in reversed(range(self.d)):
            reached = list(map(self._levels[t].rev.get, reached))
        roots = 1 << self.n
        if None not in reached and max(reached, default=0) < roots:  # a chase: every point walks back
            return self.instance.table[np.fromiter(reached, dtype=np.intp, count=len(reached))].tolist()
        walked = {x: r for x, r in zip(xs, reached) if r is not None and r < roots}
        at = np.fromiter(walked.values(), dtype=np.intp, count=len(walked))
        given = dict(zip(walked, self.instance.table[at].tolist()))
        rest = list(dict.fromkeys(x for x in xs if x not in given))
        # Refuse the layer once, before any draw: resolving a point only grows
        # the images, and a link it adds at a level t >= 1 leaves a level-t image,
        # so the check at the highest stop of a fresh, unrefuted walk holds for all.
        stops = [self._walk_back(self.d, x) for x in rest]
        open_levels = [t for t, p in stops if t and p not in self._banned[t]]
        self._check_unweaved(max(open_levels, default=0))
        open_roots: dict[int, list[int]] = {}  # per stop level, shared by the layer's points
        for x in rest:
            given[x] = self.encode_answer(self.d, self._resolve_core(x, open_roots))
        return [given[x] for x in xs]

    def _walk_back(self, level: int, point: int) -> tuple[int, int]:
        # Follow revealed links back from `point` at `level` to level 0 or to
        # a point with no revealed preimage, and return where the walk stops.
        while level:
            prev = self._levels[level - 1].rev.get(point)
            if prev is None:
                break
            point, level = prev, level - 1
        return level, point

    def _root_at(self, level: int, point: int) -> int | None:
        # The root whose chain passes through `point`.
        level, point = self._walk_back(level, point)
        return point if level == 0 and point < (1 << self.n) else None

    def _bans_active(self) -> bool:
        return any(self._banned[j] for j in self._banned)

    # -- forward reveals ---------------------------------------------------

    def _reveal(self, level: int, xs: list[int]) -> list[int]:
        # Reveal distinct unrevealed level-`level` points, all or none. The
        # off-chain test reads lower levels and the reject callback the next
        # level's refutations, so drawing a level's images in one batch keeps
        # the stream.
        inj = self._levels[level]
        if not self._bans_active():
            return inj.reveal(xs)
        if any(self._root_at(level, x) is None for x in xs):
            # An off-chain reveal competes with refuted slots whose exact
            # conditional weights depend on every open chain; answering
            # uniformly here would skew the joint law.
            raise OracleError(
                "off-chain reveal after a membership refutation is outside the "
                "lazy backend's exact domain; use the materialized backend"
            )
        # with refutations active, an on-chain image must not be refuted; a
        # refuted point has no preimage, so none lies further along its links
        return inj.reveal(xs, reject=self._banned[level + 1].__contains__)

    # -- core resolution ---------------------------------------------------

    def _resolve_core(self, x: int, open_roots: dict[int, list[int]] | None = None):
        # Walk back through revealed links. The walk ends at level 0 (exact
        # answer), at a refuted point (bot; only where it stops, as a refuted
        # point has no preimage), or at an unrevealed link, where membership
        # is sampled at its exact conditional probability. `open_roots` keeps
        # each stop level's open roots for a layer's next point: a routed
        # chain's links touch no other chain, so only its root closes.
        level, point = self._walk_back(self.d, x)
        if level == 0:
            return self.instance.value(point) if point < (1 << self.n) else BOT
        if point in self._banned[level]:
            return BOT
        # Callers have checked exchangeability: _core_answers per layer before
        # it draws, and _answer reaches only a path query's walked points.
        open_roots = {} if open_roots is None else open_roots
        if level not in open_roots:
            # each root's chain point at `level`, None past its first unrevealed link
            reached = list(range(1 << self.n))
            for t in range(level):
                reached = list(map(self._levels[t].fwd.get, reached))
            open_roots[level] = [r for r, pt in enumerate(reached) if pt is None]
        candidates = open_roots[level]
        # open chains land on an unused image that is not refuted
        available = self.domain_size - len(self._levels[level - 1].rev) - len(self._banned[level])
        if candidates and self._rng.random() * available < len(candidates):
            chosen = candidates[int(self._rng.integers(len(candidates)))]
            for roots in open_roots.values():  # ascending, so a bisection finds it
                at = bisect.bisect_left(roots, chosen)
                if at < len(roots) and roots[at] == chosen:
                    del roots[at]
            # Route the chosen chain through `point`: fresh uniform links up
            # to level-1, then the forced link. The walk back from x just
            # followed the links from `point` on to the core.
            end = chosen
            for t in range(level - 1):
                end = self._answer(t, end)
            self._levels[level - 1].force(end, point)
            return self.instance.value(chosen)
        self._banned[level].add(point)
        return BOT

    def _check_unweaved(self, level: int) -> None:
        # The sampled membership probability treats the open chains' arrival
        # points at `level` as exchangeable over the unused images, which
        # holds only while no unrevealed prefix can merge into a mid-level
        # revealed link. Stray probes at non-image points break that.
        for t in range(1, level):
            if not self._levels[t].fwd.keys() <= self._levels[t - 1].rev.keys():
                raise OracleError(
                    "core membership at this point is entangled with "
                    "mid-level probe reveals; use the materialized backend"
                )


def sample_shuffling(
    instance: SimonInstance,
    d: int,
    rng: np.random.Generator,
    backend: str = "materialized",
) -> ShufflingOracle:
    """Sample a depth-d shuffling of the instance, choosing the backend."""
    if backend == "materialized":
        return MaterializedShufflingOracle(instance, d, rng)
    if backend == "lazy":
        return LazyShufflingOracle(instance, d, rng)
    raise ValueError(f"unknown backend {backend!r}")
