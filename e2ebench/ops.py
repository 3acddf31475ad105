"""Seeded operation sequences: the inputs of every workload.

All randomness comes from ``numpy.random.default_rng((seed, stream))``
with one stream per purpose, so the same seed always yields the same
reads, warm-up and updates.  The mixes are *stratified*: family,
estimator and damping counts are exact shares of the run, BFS
fractions are spread evenly over their log range, and fleet-hot
popularity follows a fixed rank pattern.  A different seed therefore
changes which pages, domains and terms are used and in what order,
but not how much work a run does — the run-to-run spread measures
the system, not the luck of the draw.

Warm-up operations come from key ranges the measured reads never
use (other crawl seeds, larger BFS fractions, other terms), so
warm-up cannot pre-fill a cache with a measured answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from e2ebench import spec

_READS, _WARMUP, _DELTAS, _HOT = 1, 2, 3, 4

#: Offline BFS fractions (of N) are spread over this range ...
BFS_FRACTIONS = (0.0005, 0.03)
#: ... and its warm-up BFS fractions over this one, disjoint from it.
WARMUP_BFS_FRACTIONS = (0.032, 0.036)
#: The serve workloads crawl smaller subgraphs, so request cost is
#: per-request overhead more than payload (and the fleet-hot set fits
#: every store), with warm-up again just outside the measured range.
SMALL_BFS_FRACTIONS = (0.0005, 0.01)
WARMUP_SMALL_BFS_FRACTIONS = (0.011, 0.015)

#: Measured semantic queries draw terms below this id, warm-up at or
#: above it (term ids are popularity ranks of the lexicon's Zipf law).
MEASURED_TERMS = 400
WARMUP_TERMS = (400, 500)

HOT_SET_SIZE = 64
#: Size strata of two items each: the seed only swaps the popularity of
#: two subgraphs of neighbouring size, so the tail percentiles of the
#: read latency repeat across seeds.
HOT_STRATA = 32
ZIPF_EXPONENT = 0.6

OFFLINE_FAMILIES = (
    ("bfs", 0.50), ("domain", 0.25), ("semantic", 0.20), ("frontier", 0.05)
)
OFFLINE_ESTIMATORS = (
    ("exact", 0.7), (spec.PUSH_SPEC, 0.2), (spec.MONTECARLO_SPEC, 0.1)
)
SERVE_DAMPINGS = (0.80, 0.85, 0.90)
DEFAULT_DAMPING = 0.85


@dataclass(frozen=True)
class Op:
    """One read: which subgraph, how to rank it, at which damping."""

    index: int
    family: str
    estimator: str = "exact"
    damping: float = DEFAULT_DAMPING
    seed_page: int = -1
    fraction: float = 0.0
    domain: str = ""
    halo: int = 0
    terms: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.family == "bfs":
            key = f"seed={self.seed_page},f={self.fraction:.6f}"
        elif self.family == "domain":
            key = self.domain
        elif self.family == "frontier":
            key = f"halo={self.halo}"
        else:
            key = "terms=" + "+".join(str(t) for t in self.terms)
        return f"{self.family}:{key}|{self.estimator}|{self.damping!r}"


@dataclass(frozen=True)
class GraphInfo:
    """What op planning needs to know about the graph."""

    num_pages: int
    domains: tuple[str, ...]
    domain_sizes: tuple[int, ...]
    crawl_seeds: np.ndarray
    warm_seeds: np.ndarray

    @classmethod
    def from_dataset(cls, dataset) -> "GraphInfo":
        graph = dataset.graph
        labels = np.asarray(dataset.labels["domain"])
        names = tuple(dataset.label_names["domain"])
        sizes = np.bincount(labels, minlength=len(names))
        # Crawl seeds are portal-like pages (several out-links), split
        # into disjoint measured and warm-up pools.
        portals = np.flatnonzero(graph.out_degrees >= 4).astype(np.int64)
        return cls(
            num_pages=graph.num_nodes,
            domains=names,
            domain_sizes=tuple(int(s) for s in sizes),
            crawl_seeds=portals[0::2],
            warm_seeds=portals[1::2],
        )


def exact_counts(total: int, shares) -> list[tuple[object, int]]:
    """Split ``total`` by ``shares`` into integers that sum to it
    (largest remainder, ties to the earlier share)."""
    raw = [(key, total * share) for key, share in shares]
    counts = [(key, int(np.floor(value))) for key, value in raw]
    left = total - sum(count for __, count in counts)
    order = sorted(
        range(len(raw)),
        key=lambda i: (-(raw[i][1] - counts[i][1]), i),
    )
    for i in order[:left]:
        counts[i] = (counts[i][0], counts[i][1] + 1)
    return counts


def stratified_loguniform(rng, count: int, low: float, high: float):
    """``count`` values, one per equal slice of [log low, log high),
    in random order."""
    slots = (rng.permutation(count) + rng.random(count)) / max(count, 1)
    return low * (high / low) ** slots


def _shuffled_labels(rng, count: int, shares) -> list:
    labels = []
    for key, n in exact_counts(count, shares):
        labels += [key] * n
    return [labels[i] for i in rng.permutation(len(labels))]


def spread_labels(count: int, shares) -> list:
    """``count`` labels interleaved evenly: after any prefix of ``i``
    items each label has been used ``i * share`` times, give or take
    one."""
    used = [0] * len(shares)
    labels = []
    for i in range(1, count + 1):
        j = max(
            range(len(shares)),
            key=lambda j: (shares[j][1] * i - used[j], -j),
        )
        used[j] += 1
        labels.append(shares[j][0])
    return labels


def _size(op: Op, info: GraphInfo) -> float:
    """How big an op's subgraph will be, for spreading costs evenly."""
    if op.family == "bfs":
        return op.fraction * info.num_pages
    if op.family == "domain":
        return info.domain_sizes[info.domains.index(op.domain)]
    if op.family == "frontier":
        return op.halo
    return 0.0


def _by_size(block: list[Op], info: GraphInfo, field_name: str, shares):
    """Give ``block`` the values of ``shares`` evenly across its size
    order, so every size class gets the same mix whatever the seed."""
    order = np.argsort([_size(op, info) for op in block], kind="stable")
    block = list(block)
    for i, label in zip(order, spread_labels(len(block), shares)):
        block[i] = replace(block[i], **{field_name: label})
    return block


def _term_sets(rng, count: int, low: int, high: int) -> list[tuple[int, ...]]:
    """``count`` distinct sorted term sets of 1–3 terms in [low, high)."""
    sizes = _shuffled_labels(rng, count, ((1, 1 / 3), (2, 1 / 3), (3, 1 / 3)))
    seen: set[tuple[int, ...]] = set()
    sets = []
    for size in sizes:
        while True:
            terms = tuple(
                sorted(int(t) for t in rng.choice(
                    np.arange(low, high), size, replace=False
                ))
            )
            if terms not in seen:
                break
        seen.add(terms)
        sets.append(terms)
    return sets


def _crawl_seeds(rng, pool: np.ndarray, count: int) -> np.ndarray:
    if count > pool.size:
        raise ValueError(
            f"need {count} distinct crawl seeds, the graph has {pool.size}"
        )
    return rng.choice(pool, count, replace=False)


def _bfs_ops(rng, info: GraphInfo, count: int, fractions, pool=None):
    pool = info.crawl_seeds if pool is None else pool
    seeds = _crawl_seeds(rng, pool, count)
    values = stratified_loguniform(rng, count, *fractions)
    return [
        Op(0, "bfs", seed_page=int(s), fraction=float(f))
        for s, f in zip(seeds, values)
    ]


def _domain_ops(rng, info: GraphInfo, count: int):
    order: list[int] = []
    while len(order) < count:
        order += rng.permutation(len(info.domains)).tolist()
    return [Op(0, "domain", domain=info.domains[i]) for i in order[:count]]


def phase_sizes(count: int, phases: int) -> list[int]:
    """How many of ``count`` reads each of ``phases`` phases gets."""
    return [count // phases + (i < count % phases) for i in range(phases)]


def _dealt(rng, items: list, keys: list, phases: int) -> list:
    """``items`` laid out phase after phase, every phase dealt the same
    mix: sorted by ``keys``, dealt round-robin, shuffled within each
    phase.  Caches and stores then hold alike contents at every
    update, whatever the seed."""
    order = sorted(range(len(items)), key=keys.__getitem__)
    hands: list[list] = [[] for __ in range(phases)]
    for position, i in enumerate(order):
        hands[position % phases].append(items[i])
    return [hand[j] for hand in hands for j in rng.permutation(len(hand))]


def _indexed(rng, ops: list[Op], info: GraphInfo, phases: int) -> list[Op]:
    keys = [
        (op.family, op.estimator, _size(op, info), op.damping, op.label)
        for op in ops
    ]
    dealt = _dealt(rng, ops, keys, phases)
    return [replace(op, index=i) for i, op in enumerate(dealt)]


def plan_offline(seed: int, reads: int, info: GraphInfo) -> list[Op]:
    """Select-then-rank ops over four families, each family carrying
    the 70/20/10 exact/push/montecarlo split."""
    rng = np.random.default_rng((seed, _READS))
    ops: list[Op] = []
    for family, count in exact_counts(reads, OFFLINE_FAMILIES):
        if family == "bfs":
            block = _bfs_ops(rng, info, count, BFS_FRACTIONS)
        elif family == "domain":
            block = _domain_ops(rng, info, count)
        elif family == "semantic":
            block = [
                Op(0, "semantic", terms=t)
                for t in _term_sets(rng, count, 0, MEASURED_TERMS)
            ]
        else:
            first = int(rng.integers(2))
            block = [
                Op(0, "frontier", halo=(first + i) % 2) for i in range(count)
            ]
        ops += _by_size(block, info, "estimator", OFFLINE_ESTIMATORS)
    return _indexed(rng, ops, info, spec.WORKLOADS["offline"].phases)


def plan_serve_cold(seed: int, reads: int, info: GraphInfo) -> list[Op]:
    """Store misses only: every /rank subgraph and every
    /semantic-search term set occurs once in the run."""
    rng = np.random.default_rng((seed, _READS))
    semantic = int(round(0.2 * reads))
    rank = reads - semantic
    push = int(round(0.1 * reads))
    domains = min(len(info.domains), int(round(0.04 * reads)))
    block = _domain_ops(rng, info, domains)
    block += _bfs_ops(rng, info, rank - domains, SMALL_BFS_FRACTIONS)
    block = _by_size(
        block, info, "damping",
        [(d, 1 / len(SERVE_DAMPINGS)) for d in SERVE_DAMPINGS],
    )
    ops = _by_size(
        block, info, "estimator",
        (("exact", 1 - push / rank), (spec.PUSH_SPEC, push / rank)),
    )
    ops += [
        Op(0, "semantic", terms=t)
        for t in _term_sets(rng, semantic, 0, MEASURED_TERMS)
    ]
    return _indexed(rng, ops, info, spec.WORKLOADS["serve-cold"].phases)


def hot_set(seed: int, info: GraphInfo) -> list[Op]:
    """The fleet-hot working set: every domain plus small BFS crawls,
    ordered by Zipf popularity rank (index 0 is the most read).

    Items are sorted by size into ``HOT_STRATA`` strata and rank ``r``
    always falls in stratum ``r % HOT_STRATA``; the seed only chooses
    which item of a stratum takes which of its ranks.  Every seed thus
    reads each size class equally often.
    """
    rng = np.random.default_rng((seed, _HOT))
    items = [Op(0, "domain", domain=d) for d in info.domains]
    items += _bfs_ops(
        rng, info, HOT_SET_SIZE - len(items), SMALL_BFS_FRACTIONS
    )
    sizes = [
        info.domain_sizes[info.domains.index(op.domain)]
        if op.family == "domain"
        else op.fraction * info.num_pages
        for op in items
    ]
    by_size = [items[i] for i in np.argsort(sizes, kind="stable")]
    width = len(by_size) // HOT_STRATA
    strata = [
        [by_size[s * width + i] for i in rng.permutation(width)]
        for s in range(HOT_STRATA)
    ]
    ranked = [
        strata[r % HOT_STRATA][r // HOT_STRATA]
        for r in range(HOT_STRATA * width)
    ]
    return [replace(op, index=i) for i, op in enumerate(ranked)]


def plan_fleet_hot(seed: int, reads: int, hot_size: int) -> list[int]:
    """Zipf reads over a hot set, as popularity ranks.

    Each read's rank is the Zipf quantile of its own slice of [0, 1),
    so the count per rank is fixed, and every read phase is dealt the
    same ranks; the seed decides only the order.
    """
    rng = np.random.default_rng((seed, _READS))
    weights = 1.0 / np.arange(1, hot_size + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights) / weights.sum()
    quantiles = (np.arange(reads) + rng.random(reads)) / reads
    ranks = np.minimum(np.searchsorted(cdf, quantiles), hot_size - 1)
    ranks = [int(r) for r in ranks]
    return _dealt(rng, ranks, ranks, spec.WORKLOADS["fleet-hot"].phases)


def plan_reads(workload: str, seed: int, reads: int, info: GraphInfo):
    if workload == "offline":
        return plan_offline(seed, reads, info)
    if workload == "serve-cold":
        return plan_serve_cold(seed, reads, info)
    hot = hot_set(seed, info)
    return [
        replace(hot[r], index=i)
        for i, r in enumerate(plan_fleet_hot(seed, reads, len(hot)))
    ]


def plan_warmup(workload: str, seed: int, info: GraphInfo) -> list[Op]:
    """A few ops of every kind the workload runs, from unmeasured keys."""
    rng = np.random.default_rng((seed, _WARMUP))
    if workload == "fleet-hot":
        return _bfs_ops(
            rng, info, 8, WARMUP_SMALL_BFS_FRACTIONS, pool=info.warm_seeds
        )
    fractions = (
        WARMUP_BFS_FRACTIONS if workload == "offline"
        else WARMUP_SMALL_BFS_FRACTIONS
    )
    bfs = _bfs_ops(rng, info, 6, fractions, pool=info.warm_seeds)
    estimators = ["exact", spec.PUSH_SPEC, "exact"] * 2
    if workload == "offline":
        estimators[2] = spec.MONTECARLO_SPEC
    ops = [replace(op, estimator=e) for op, e in zip(bfs, estimators)]
    ops += [
        Op(0, "semantic", terms=t)
        for t in _term_sets(rng, 6, *WARMUP_TERMS)
    ]
    return [replace(op, index=i) for i, op in enumerate(ops)]


def split_phases(ops: list, phases: int) -> list[list]:
    """``ops`` cut into its read phases (sizes from :func:`phase_sizes`)."""
    bounds = np.cumsum([0] + phase_sizes(len(ops), phases))
    return [ops[bounds[i]:bounds[i + 1]] for i in range(phases)]


def plan_deltas(seed: int, count: int, graph, dataset) -> list:
    """``count`` updates, each confined to one seeded domain.

    Every delta is valid on the base graph and on every graph after
    the deltas before it: added edges are absent from the base graph
    and never added twice, removed edges exist in it and are never
    removed twice.
    """
    from repro.updates.delta import GraphDelta

    rng = np.random.default_rng((seed, _DELTAS))
    labels = np.asarray(dataset.labels["domain"])
    sizes = np.bincount(labels)
    regions = np.flatnonzero(sizes >= 1000)
    added_all: set[tuple[int, int]] = set()
    removed_all: set[tuple[int, int]] = set()
    deltas = []
    for __ in range(count):
        region = np.flatnonzero(labels == rng.choice(regions))
        added: list[tuple[int, int]] = []
        while len(added) < spec.UPDATE_ADDED_EDGES:
            s, t = (int(x) for x in rng.choice(region, 2, replace=False))
            if (s, t) not in added_all and not graph.has_edge(s, t):
                added_all.add((s, t))
                added.append((s, t))
        in_region = np.zeros(graph.num_nodes, dtype=bool)
        in_region[region] = True
        removed: list[tuple[int, int]] = []
        for s in rng.permutation(region):
            targets = graph.out_neighbors(int(s))
            targets = targets[in_region[targets]]
            if targets.size:
                edge = (int(s), int(rng.choice(targets)))
                if edge not in removed_all:
                    removed_all.add(edge)
                    removed.append(edge)
            if len(removed) == spec.UPDATE_REMOVED_EDGES:
                break
        deltas.append(
            GraphDelta(added_edges=tuple(added), removed_edges=tuple(removed))
        )
    return deltas


def subgraph_nodes(op: Op, dataset, graph) -> np.ndarray:
    """The node set of a non-semantic op on ``graph``."""
    from repro.subgraphs import (
        bfs_subgraph,
        dangling_frontier_subgraph,
        domain_subgraph,
    )

    if op.family == "bfs":
        return bfs_subgraph(graph, op.seed_page, op.fraction)
    if op.family == "domain":
        return domain_subgraph(dataset, op.domain)
    if op.family == "frontier":
        return dangling_frontier_subgraph(graph, halo_hops=op.halo)
    raise ValueError(f"{op.family} ops select their nodes from terms")
