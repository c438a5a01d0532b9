"""Dominated flooding: the highest flooding lying below a ceiling.

Five independent routes to the same function, cross-checked in the tests
(acceptance criterion 3); each keeps its own loop for that reason:

* ``berge_flood``: fixpoint sweeps of tau_p <- tau_p ^ min_q(tau_q v e_pq);
  each drop pushes its candidate to the neighbors it lowers, and a sweep
  evaluates only the nodes so queued, in its node order (a scan of their
  flags when they are many, a heap when few), so each evaluation is a drop.
* ``dijkstra_flood``: best-first growth from the finite-ceiling nodes; the
  ceiling acts like a virtual reservoir node joined to every node p by a
  pipe at height omega_p, so this is the flooding distance from that
  reservoir, computed by the min-max kernel of ``ultrametric``.
* ``prim_flood``: grows a tree over the lowest boundary edge; a running
  water level turns edge priorities into flooding levels.
* ``core_expanding_flood``: node-weighted variant that introduces whole
  neighborhoods at once and settles dry neighbors without queue traffic.
* ``oracle_flood``: brute force over the all-pairs flooding distance,
  tau_q = min_i(omega_i v d(i, q)); slow and obviously right.

``marker_segmentation`` keeps one loop of its own for both engines: its
priorities are (level, marker rank) pairs, and a kernel keyed by tuples
would make every other caller build and compare pairs too.
``ceiling_minima`` finds a cheap superset of the ceiling's regional minima.

All but berge and the oracle push into the ``Funnel`` by subscript.  The
kernel and ``marker_segmentation`` never push below the priority they
extract, so they drain whole buckets; prim (edge weights below its level)
and core (new cores below the least priority) pop per item inline.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import lt

from .errors import PreconditionError
from .graphs import Graph, NodeValues, ceiling_by_index, index_graph, node_indices, values_by_index
from .ultrametric import Funnel, _best_first_flood, distance_rows
from .weights import BOTTOM, TOP, Weight

__all__ = [
    "SolverResult",
    "SolverStats",
    "augment_with_dummy",
    "berge_flood",
    "ceiling_minima",
    "core_expanding_flood",
    "dijkstra_flood",
    "marker_segmentation",
    "oracle_flood",
    "prim_flood",
]


@dataclass
class SolverStats:
    """One solve's counters; only dijkstra and segmentation fill ``extraction_levels``."""

    extractions: int = 0
    relaxations: int = 0
    sweeps: int = 0
    extraction_levels: tuple[Weight, ...] = ()


# Not frozen: every route builds one, and a frozen __init__ costs about twice as much.
@dataclass(slots=True)
class SolverResult:
    tau: NodeValues
    labels: NodeValues | None = None
    stats: SolverStats = field(default_factory=SolverStats)


def augment_with_dummy(graph: Graph, omega: Mapping[str, Weight]) -> tuple[Graph, str]:
    """Add a reservoir node joined to each finite-ceiling node p at omega_p.

    The dominated flooding of the original graph is the flooding distance
    from the reservoir in the augmented graph.  Returns the augmented graph
    and the reservoir's node id.
    """
    weights = graph.require_edge_weights("augment_with_dummy")
    ceiling = ceiling_by_index(graph, omega)
    dummy = "@omega"
    while dummy in graph.nodes:  # a scan: no name index for one probe
        dummy += "+"
    fed = [node for node, level in enumerate(ceiling) if level < TOP]
    reservoir = len(ceiling)
    augmented = index_graph(
        (*graph.nodes, dummy),
        [*graph.edge_u, *[reservoir] * len(fed)],
        [*graph.edge_v, *fed],
        edge_weights=(*weights, *(ceiling[node] for node in fed)),
    )
    return augmented, dummy


def oracle_flood(graph: Graph, omega: Mapping[str, Weight]) -> NodeValues:
    """tau_q = min over nodes i of omega_i v d(i, q), via the full matrix."""
    graph.require_edge_weights("oracle_flood")
    ceiling = ceiling_by_index(graph, omega)
    rows = distance_rows(graph)
    tau = [TOP] * len(rows)
    for level, row in zip(ceiling, rows):
        if level != TOP:  # a top ceiling lowers nothing
            tau = list(map(min, tau, map(max, repeat(level), row)))
    return NodeValues(graph, tau)


def _push(nodes, tau, queued, offsets, adj_node, adj_edge, weights) -> list[int]:
    """Jacobi's push: ``nodes`` offer their entry levels; returns the newly queued."""
    lowered: list[int] = []
    for p, value in zip(nodes, [tau[p] for p in nodes]):
        for slot in range(offsets[p], offsets[p + 1]):
            q = adj_node[slot]
            level = weights[adj_edge[slot]]
            if level < value:
                level = value
            if level < tau[q]:
                tau[q] = level
                if not queued[q]:
                    queued[q] = True
                    lowered.append(q)
    return lowered


def berge_flood(
    graph: Graph,
    omega: Mapping[str, Weight],
    schedule: str = "gauss_seidel",
) -> SolverResult:
    """Relaxation sweeps from tau = omega down to the fixpoint.

    ``jacobi`` reads the previous sweep's values; ``gauss_seidel`` updates
    in place, alternating forward and backward node order.  After node p's
    last evaluation, tau_p <= tau_q v e_pq holds for every neighbor q, and
    only a drop of q can break it.  So each drop of q pushes tau_q v e_pq to
    the neighbors it lowers and queues each of them once, and a sweep
    evaluates only queued nodes, in its own node order: every evaluation is
    a drop.  The first sweep's candidates come from jacobi's push from the
    finite-ceiling nodes alone (a top ceiling lowers nothing), in push
    order, which no schedule sees.  A node queued behind the cursor joins
    the next sweep; jacobi pushes only after its sweep.  A gauss_seidel
    sweep that starts with over a quarter of the nodes queued scans the live
    flags in its order, so a node queued ahead of the cursor only sets its
    flag; a sparser one pops a heap of keys (index, negated backward), so
    many short sweeps stay linear.  Jacobi's push, the scan and the heap
    keep a loop each: one loop fed by the scan or the heap was 3-4% slower
    on rasters.  The same nodes thus drop in the same sweeps, in the same
    order, to the same values as under full sweeps, so tau and both counters
    match: ``stats.sweeps`` counts the sweeps, including the final one that
    finds no drop, and ``stats.relaxations`` counts the drops.  Each sweep
    drops a node at most once and there are at most n sweeps, so the worst
    case is O(n*m); the other four routes are O(m log m).
    """
    weights = graph.require_edge_weights("berge_flood")
    tau = ceiling_by_index(graph, omega)  # a fresh list; a queued node's entry is its pending level
    if schedule not in ("jacobi", "gauss_seidel"):
        raise PreconditionError(f"unknown berge schedule: {schedule!r}")
    offsets, adj_node, adj_edge = graph.incidences()
    jacobi = schedule == "jacobi"
    count = len(tau)
    queued = [False] * count
    arrays = tau, queued, offsets, adj_node, adj_edge, weights
    heap = _push([u for u, level in enumerate(tau) if level < TOP], *arrays)  # sweep 1's keys
    later: list[int] = []  # the next sweep's keys
    sweeps = relaxations = 0
    while heap:
        sweeps += 1
        if jacobi:  # the whole sweep drops before any of it pushes
            relaxations += len(heap)
            for p in heap:
                queued[p] = False
            heap = _push(heap, *arrays)
            continue
        sign = 1 if sweeps % 2 else -1  # this sweep's keys are sign * index
        if 4 * len(heap) > count:  # dense: scan the live flags, so a push ahead only sets one
            scan = (compress(range(count), queued) if sign > 0
                    else compress(range(count - 1, -1, -1), reversed(queued)))
            for p in scan:
                queued[p] = False
                value = tau[p]
                relaxations += 1
                cursor = sign * p
                for slot in range(offsets[p], offsets[p + 1]):
                    q = adj_node[slot]
                    level = weights[adj_edge[slot]]
                    if level < value:
                        level = value
                    if level < tau[q]:
                        tau[q] = level
                        if not queued[q]:
                            queued[q] = True
                            if sign * q < cursor:  # behind the cursor
                                later.append(-sign * q)
            heap, later = later, []
            continue
        heapify(heap)
        while heap:  # each pop is a drop, in this sweep's node order
            key = heappop(heap)
            p = sign * key
            queued[p] = False
            value = tau[p]
            relaxations += 1
            for slot in range(offsets[p], offsets[p + 1]):
                q = adj_node[slot]
                level = weights[adj_edge[slot]]
                if level < value:
                    level = value
                if level < tau[q]:
                    tau[q] = level
                    if not queued[q]:
                        queued[q] = True
                        if sign * q > key:  # ahead of the cursor
                            heappush(heap, sign * q)
                        else:
                            later.append(-sign * q)
        heap, later = later, heap
    stats = SolverStats(relaxations=relaxations, sweeps=sweeps + 1)  # and one that finds no drop
    return SolverResult(tau=NodeValues(graph, tau), stats=stats)


def dijkstra_flood(graph: Graph, omega: Mapping[str, Weight]) -> SolverResult:
    """Best-first flooding: the min-max kernel seeded at the ceiling.

    Every finite-ceiling node is a seed at its ceiling, and the ceiling
    listed by index is the kernel's start list.  To start from fewer seeds,
    pass the reduced ceiling that is top outside them: on a node-derived
    graph it gives the same flooding when the seeds touch every regional
    minimum of omega (``ceiling_minima`` finds such a set).
    """
    weights = graph.require_edge_weights("dijkstra_flood")
    tau = ceiling_by_index(graph, omega)  # a fresh list, never the caller's
    fed = [seed for seed, level in enumerate(tau) if level < TOP]
    extractions, relaxations, levels = _best_first_flood(graph, weights, tau, fed)
    stats = SolverStats(extractions, relaxations, 0, tuple(levels))
    return SolverResult(tau=NodeValues(graph, tau), stats=stats)


def prim_flood(graph: Graph, sources: Mapping[str, Weight]) -> SolverResult:
    """Tree growth over the lowest boundary edge, scheduled by a funnel.

    The finite entries of the ceiling ``sources`` (top at a node it leaves
    out) are the seeds, in node order.  Edges enter the funnel at their own
    weight; a running level lam, raised whenever a higher priority is
    extracted, turns edge priorities into flooding levels (the level of a
    popped node is lam itself).  This reproduces dijkstra_flood; with no
    finite source, every node stays at top.
    """
    weights = graph.require_edge_weights("prim_flood")
    tau = ceiling_by_index(graph, sources, default=TOP)  # top at a node sources leaves out
    funnel = Funnel()
    for node, level in enumerate(tau):  # each seed gets settled: an unsettled node stays top
        if level < TOP:
            funnel[level].append(node)
    heap = funnel.heap
    offsets, adj_node, adj_edge = graph.incidences()
    settled = [False] * len(tau)
    extractions = relaxations = 0
    lam: Weight = BOTTOM  # the first pop lifts it to the lowest seed
    while heap:  # pushes may go below mu: pop per item
        mu = heap[0]
        bucket = funnel[mu]
        node = bucket.popleft()
        if not bucket:
            del funnel[mu]
            heappop(heap)
        extractions += 1
        if mu > lam:
            lam = mu
        if settled[node]:
            continue
        settled[node] = True
        tau[node] = lam
        for slot in range(offsets[node], offsets[node + 1]):
            neighbor = adj_node[slot]
            if not settled[neighbor]:
                funnel[weights[adj_edge[slot]]].append(neighbor)
                relaxations += 1
    stats = SolverStats(extractions, relaxations)
    return SolverResult(tau=NodeValues(graph, tau), stats=stats)


def core_expanding_flood(graph: Graph, omega: Mapping[str, Weight]) -> SolverResult:
    """Node-weighted flooding that floods whole neighborhoods at once.

    Alternates between opening a new core (the lowest-ceiling unflooded
    node) and expanding the flooded region through its lowest boundary.
    Two shortcuts keep queue traffic low: a neighbor standing at or above
    the water (f_q >= level) is settled at its own ground immediately, and
    its neighbors are examined in the same batch.
    """
    ground = graph.require_ground_values("core_expanding_flood")
    ceiling = ceiling_by_index(graph, omega)
    total = len(ceiling)
    # only a finite ceiling opens a core: once they are spent, lam is top
    fed = compress(range(total), map(lt, ceiling, repeat(TOP)))
    order = sorted(fed, key=ceiling.__getitem__)  # stable: ties by index
    offsets, adj_node, _ = graph.incidences()
    tau: list[Weight] = [TOP] * total
    flooded = [False] * total
    wet = 0
    funnel = Funnel()
    heap = funnel.heap
    batch: deque[tuple[int, Weight]] = deque()
    extractions = relaxations = pointer = 0
    while wet < total:
        while pointer < len(order) and flooded[order[pointer]]:
            pointer += 1
        lam = ceiling[order[pointer]] if pointer < len(order) else TOP
        mu = heap[0] if heap else TOP
        if lam == TOP and mu == TOP:
            break  # the rest stays dry under an open sky: tau is top there
        extractions += 1
        if lam < mu:
            batch.append((order[pointer], lam))
        else:  # pushes may go below mu: pop per item
            bucket = funnel[mu]
            node = bucket.popleft()
            if not bucket:
                del funnel[mu]
                heappop(heap)
            if not flooded[node]:
                batch.append((node, mu))
        while batch:  # settle the new core and the dry land it reaches
            p, at = batch.popleft()
            if flooded[p]:
                continue
            flooded[p] = True
            wet += 1
            tau[p] = at
            for slot in range(offsets[p], offsets[p + 1]):
                q = adj_node[slot]
                if flooded[q]:
                    continue
                if ground[q] >= at:
                    batch.append((q, ground[q]))
                else:
                    funnel[at].append(q)
                    relaxations += 1
    return SolverResult(NodeValues(graph, tau), stats=SolverStats(extractions, relaxations))


def ceiling_minima(graph: Graph, omega: Mapping[str, Weight]) -> tuple[str, ...]:
    """A cheap superset of one-entry-per-regional-minimum of the ceiling.

    One forward scan keeps the nodes strictly below every earlier neighbor
    and not above any later one, so every regional minimum of omega meets
    the result.  omega may be any node function here, also one below the
    ground.
    """
    levels = values_by_index(graph, omega, "omega")
    offsets, adj_node, _ = graph.incidences()
    return tuple(
        graph.nodes[p]
        for p, level in enumerate(levels)
        if all(
            level < levels[q] if q < p else level <= levels[q]
            for q in adj_node[offsets[p] : offsets[p + 1]]
        )
    )


def marker_segmentation(
    graph: Graph, markers: Mapping[str, Weight], engine: str = "dijkstra"
) -> SolverResult:
    """Label every reachable node with its closest marker's label.

    Closeness is the flooding distance.  Labels grow from the markers
    along edges, and each node takes the least (distance, marker rank) pair
    that its labelled neighbors offer, so a tie goes to the earliest-listed
    marker whose region reaches the node at that distance: not always the
    earliest-listed closest marker, whose best path may cross another
    marker's region.  Every marker is strictly closest to itself (its seed
    enters at bottom), so each marker always keeps its own label.  Both
    engines settle each node with the least such pair, so they produce
    identical partitions: ``dijkstra`` keeps one improving candidate per
    node, as a level and a rank in two lists (top and the marker count for
    none), ``prim`` grows a forest over boundary edges with multi-occupancy.
    tau is the distance to the winning marker, floored at zero; a node
    unreachable from every marker keeps label ``None`` and tau top.  The
    markers are found by ``node_indices``, which builds no name index.
    """
    weights = graph.require_edge_weights("marker_segmentation")
    if not markers:
        raise PreconditionError("marker_segmentation needs at least one marker")
    ranked = node_indices(graph, markers)
    label_of = list(markers.values())
    if len(set(label_of)) != len(label_of):
        raise PreconditionError("marker labels must be distinct")
    if engine not in ("dijkstra", "prim"):
        raise PreconditionError(f"unknown segmentation engine: {engine!r}")
    prim = engine == "prim"
    count = len(graph.nodes)
    tau: list[Weight] = [TOP] * count
    labels: list[Weight | None] = [None] * count  # the winning marker's label, once settled
    best_level: list[Weight] = [TOP] * count  # dijkstra's best candidate, level and rank
    best_rank = [len(ranked)] * count
    funnel = Funnel()
    for rank, node in enumerate(ranked):
        best_level[node], best_rank[node] = BOTTOM, rank
        funnel[BOTTOM, rank].append(node)
    offsets, adj_node, adj_edge = graph.incidences()
    extractions = relaxations = 0
    levels: list[Weight] = []
    # A candidate (w v level, rank) is never below the pair it came from.
    for (level, rank), bucket in funnel.buckets():
        extractions += len(bucket)
        for node in bucket:
            if labels[node] is not None:
                continue
            labels[node] = label_of[rank]
            tau[node] = level if level > 0 else 0
            levels.append(level)
            for slot in range(offsets[node], offsets[node + 1]):
                neighbor = adj_node[slot]
                if labels[neighbor] is not None:
                    continue
                w = weights[adj_edge[slot]]
                if w < level:
                    w = level
                if not prim:  # dijkstra keeps only an improving candidate
                    held = best_level[neighbor]
                    if w > held or w == held and rank >= best_rank[neighbor]:
                        continue
                    best_level[neighbor], best_rank[neighbor] = w, rank
                funnel[w, rank].append(neighbor)
                relaxations += 1
    stats = SolverStats(extractions, relaxations, 0, tuple(levels))
    return SolverResult(NodeValues(graph, tau), NodeValues(graph, labels), stats)
