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
    """

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        if size < 1:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._rng = rng
        self._fwd: dict[int, int] = {}
        self._rev: dict[int, int] = {}

    def image(self, x: int) -> int | None:
        return self._fwd.get(x)

    def preimage(self, y: int) -> int | None:
        return self._rev.get(y)

    def lookup(self, xs) -> list[int | None]:
        """The revealed image of each point, None where still unrevealed."""
        return list(map(self._fwd.get, xs))

    def preimages(self, ys) -> list[int | None]:
        """The revealed preimage of each point, None where it has none (and
        for a None entry)."""
        return list(map(self._rev.get, ys))

    def reveal(self, xs: list[int], reject=None) -> list[int]:
        """Reveal distinct unrevealed points in order; each image is uniform
        over the unused images that `reject` (if given) does not refuse.

        Each pass draws one image for every point still open: one `integers`
        call for several points on sizes up to 2^62, else one `_draw_uniform`
        per point (a scalar draw, three times cheaper than a batch of one).
        The draws are accepted in order; one whose image is used or refused
        is skipped, so the open point takes the next draw. numpy gives k
        batched draws the values and generator state of k scalar draws, so
        the stream is that of revealing the points one after another, one
        draw at a time. Ends a.s.: a completion of the committed facts maps
        every open point to an unused image that `reject` accepts, so every
        draw is accepted with positive probability.
        """
        out = []
        while len(out) < len(xs):
            k = len(xs) - len(out)
            if k > 1 and self.size <= 1 << 62:
                ys = self._rng.integers(self.size, size=k).tolist()
            else:
                ys = [_draw_uniform(self._rng, self.size) for _ in range(k)]
            for y in ys:
                if y not in self._rev and (reject is None or not reject(y)):
                    x = xs[len(out)]
                    self._fwd[x] = y
                    self._rev[y] = x
                    out.append(y)
        return out

    def force(self, x: int, y: int) -> None:
        # Commit a pair decided by an external conditional-sampling step.
        if x in self._fwd or y in self._rev:
            raise OracleError("pair conflicts with revealed injection state")
        self._fwd[x] = y
        self._rev[y] = x

    def image_count(self) -> int:
        return len(self._rev)

    def revealed_sources(self):
        return self._fwd.keys()


def _draw_uniform(rng: np.random.Generator, size: int) -> int:
    if size <= 1 << 62:
        return int(rng.integers(size))
    # Wide domains exceed the generator's integer range; sizes here are powers
    # of two, so masked random bytes stay exactly uniform.
    if size & (size - 1):
        raise OracleError(f"wide domain size {size} must be a power of two")
    nbytes = ((size - 1).bit_length() + 7) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") & (size - 1)


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
        domain at level d. The ledger is charged before the oracle answers."""
        self._check_level(level)
        self._check_point(x)
        if ledger is not None:
            ledger.record_classical()
        answer = self._answer(level, x)
        if ledger is not None and level == self.d and answer is not BOT:
            ledger.record_core()
        return answer

    def values_at(self, level: int, xs, ledger: DepthLedger | None = None) -> list[int]:
        """Bulk answers for superposed application, already flag-encoded.

        Does not count classical queries; the caller accounts for the oracle
        layer. Core evaluations are still tallied per answered point. A lazy
        oracle reads the points it has committed (revealed links, core answers
        given) and samples only fresh points, in the order of `xs` (ascending
        in a circuit layer); committed answers are final and draw nothing, so
        the generator stream is that of answering each point in turn. It
        draws a layer's fresh level-<d images in one batch
        (`IncrementalInjection.reveal`), refusing the whole layer before any
        draw if a refutation makes one point's reveal inexact, and answers
        fresh core points that walk back to a root from the instance table,
        which keeps that stream and every answer. A refused layer, at any
        level, leaves no link, refutation or draw behind.
        """
        self._check_level(level)
        for x in (min(xs), max(xs)) if len(xs) else ():
            self._check_point(x)
        answers = self._encoded_answers(level, xs)
        if ledger is not None and level == self.d:
            core_hits = len(answers) - answers.count(1 << self.n)
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
                raise OracleError("path left the core's domain; backend state is inconsistent")
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
        self.tables = [rng.permutation(size).astype(np.int64) for _ in range(d)]
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
    """Backend that reveals the injections on demand."""

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
        # Core answers given in bulk, encoded; each is final, as its point is
        # then chained, banned, or walks back to a fixed level-0 point.
        self._core_given: dict[int, int] = {}

    # -- shared plumbing ---------------------------------------------------

    def _answer(self, level: int, x: int):
        # per point: a path query through the bulk hook costs three times more
        if level == self.d:
            return self._resolve_core(x)
        y = self._levels[level].image(x)
        return self._reveal(level, [x])[0] if y is None else y

    def _encoded_answers(self, level: int, xs) -> list[int]:
        core = level == self.d
        answers = list(map(self._core_given.get, xs)) if core else self._levels[level].lookup(xs)
        if None not in answers:
            return answers
        # fresh points in first-seen order: a repeat reads what the first drew
        fresh = list(dict.fromkeys(x for x, a in zip(xs, answers) if a is None))
        if core:
            given = self._fresh_core_answers(fresh)
            self._core_given.update(given)
        else:
            given = dict(zip(fresh, self._reveal(level, fresh)))
        return [given[x] if a is None else a for x, a in zip(xs, answers)]

    def _fresh_core_answers(self, points: list[int]) -> dict[int, int]:
        # A point whose revealed links walk back to a root has that root's
        # value and draws nothing (a refuted point never gains a preimage, so
        # no such walk meets one); the others are resolved in order.
        # Resolving one never changes a walked point's answer: it only adds
        # links and refutations off the revealed chains.
        reached = points
        for t in reversed(range(self.d)):
            reached = self._levels[t].preimages(reached)
        walked = {x: r for x, r in zip(points, reached) if r is not None and r < 1 << self.n}
        given = dict(zip(walked, self.instance.table[list(walked.values())].tolist()))
        rest = [x for x in points if x not in given]
        # A refused point refuses the layer: undo the links, refutations and
        # draws of the points before it (a lone point is refused before any).
        saved = None
        if len(rest) > 1:
            links = [(dict(inj._fwd), dict(inj._rev)) for inj in self._levels]
            saved = links, {j: set(b) for j, b in self._banned.items()}, self._rng.bit_generator.state
        try:
            for x in rest:
                given[x] = self.encode_answer(self.d, self._resolve_core(x))
        except OracleError:
            if saved is not None:
                links, self._banned, self._rng.bit_generator.state = saved
                for inj, (fwd, rev) in zip(self._levels, links):
                    inj._fwd, inj._rev = fwd, rev
            raise
        return given

    def _walk_back(self, level: int, point: int) -> tuple[int, int]:
        # Follow revealed links back from `point` at `level` to level 0 or to
        # a point with no revealed preimage, and return where the walk stops.
        while level:
            prev = self._levels[level - 1].preimage(point)
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

    def _resolve_core(self, x: int):
        # Walk back through revealed links. The walk ends at level 0 (exact
        # answer), at a refuted point (bot; only where it stops, as a refuted
        # point has no preimage), or at an unrevealed link, where membership
        # is sampled at its exact conditional probability.
        level, point = self._walk_back(self.d, x)
        if level == 0:
            return self.instance.value(point) if point < (1 << self.n) else BOT
        if point in self._banned[level]:
            return BOT
        self._check_unweaved(level)
        # Each root's chain point at `level`, None past its first unrevealed link.
        reached = list(range(1 << self.n))
        for t in range(level):
            reached = self._levels[t].lookup(reached)
        open_roots = [r for r, pt in enumerate(reached) if pt is None]
        # open chains land on an unused image that is not refuted
        available = self.domain_size - self._levels[level - 1].image_count() - len(self._banned[level])
        if open_roots and self._rng.random() * available < len(open_roots):
            chosen = open_roots[int(self._rng.integers(len(open_roots)))]
            # Route the chosen chain through `point`: fresh uniform links up
            # to level-1, the forced link, then on to the core.
            self._levels[level - 1].force(self._reveal_chain(chosen, level - 1), point)
            self._reveal_chain(chosen, self.d)
            return self.instance.value(chosen)
        self._banned[level].add(point)
        return BOT

    def _check_unweaved(self, level: int) -> None:
        # The sampled membership probability treats the open chains' arrival
        # points at `level` as exchangeable over the unused images, which
        # holds only while no unrevealed prefix can merge into a mid-level
        # revealed link. Stray probes at non-image points break that.
        for t in range(1, level):
            if None in self._levels[t - 1].preimages(self._levels[t].revealed_sources()):
                raise OracleError(
                    "core membership at this point is entangled with "
                    "mid-level probe reveals; use the materialized backend"
                )

    def _reveal_chain(self, root: int, level: int) -> int:
        # `root`'s chain point at `level`, revealing its missing links in order.
        point = root
        for t in range(level):
            point = self._answer(t, point)
        return point


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
