"""Dominated flooding: the highest flooding lying below a ceiling.

Five independent routes to the same function, cross-checked in the tests
(acceptance criterion 3); each keeps its own loop for that reason:

* ``berge_flood``: fixpoint sweeps of tau_p <- tau_p ^ min_q(tau_q v e_pq);
  a sweep re-evaluates only the nodes with a neighbor that dropped since
  their last evaluation.
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
``ceiling_minima`` finds cheap seed supersets for reduced starts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import PreconditionError
from .graphs import Graph, NodeFunction, check_ceiling, index_graph, values_by_index
from .hydro import regional_minima
from .ultrametric import Funnel, _best_first_flood, distance_rows
from .weights import BOTTOM, TOP, Weight, weight_succ


@dataclass
class SolverStats:
    extractions: int = 0
    relaxations: int = 0
    sweeps: int = 0
    extraction_levels: tuple[Weight, ...] = ()


@dataclass(frozen=True)
class SolverResult:
    tau: NodeFunction
    labels: NodeFunction | None = None
    stats: SolverStats = field(default_factory=SolverStats)


def augment_with_dummy(graph: Graph, omega: Mapping[str, Weight]) -> tuple[Graph, str]:
    """Add a reservoir node joined to each finite-ceiling node p at omega_p.

    The dominated flooding of the original graph is the flooding distance
    from the reservoir in the augmented graph.  Returns the augmented graph
    and the reservoir's node id.
    """
    weights = graph.require_edge_weights("augment_with_dummy")
    ceiling = values_by_index(graph, omega, "omega")
    check_ceiling(graph, ceiling)
    dummy = "@omega"
    while dummy in graph:
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


def oracle_flood(graph: Graph, omega: Mapping[str, Weight]) -> NodeFunction:
    """tau_q = min over nodes i of omega_i v d(i, q), via the full matrix."""
    ceiling = values_by_index(graph, omega, "omega")
    check_ceiling(graph, ceiling)
    rows = distance_rows(graph)
    return {
        name: min(max(level, row[q]) for level, row in zip(ceiling, rows))
        for q, name in enumerate(graph.nodes)
    }


def berge_flood(
    graph: Graph,
    omega: Mapping[str, Weight],
    schedule: str = "gauss_seidel_alternating",
) -> SolverResult:
    """Relaxation sweeps from tau = omega down to the fixpoint.

    ``jacobi`` reads the previous sweep's values; ``gauss_seidel_alternating``
    updates in place, alternating forward and backward node order.  A sweep
    re-evaluates only the nodes with a neighbor whose level dropped since
    they were last evaluated (every node, in the first sweep); the update
    would give the others their own value back, so the tau states match
    those of full sweeps.  ``stats.sweeps`` counts the sweeps, including the
    final one that finds no drop; ``stats.relaxations`` counts the drops.
    """
    weights = graph.require_edge_weights("berge_flood")
    tau = values_by_index(graph, omega, "omega")
    check_ceiling(graph, tau)
    if schedule not in ("jacobi", "gauss_seidel_alternating"):
        raise PreconditionError(f"unknown berge schedule: {schedule!r}")
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    jacobi = schedule == "jacobi"
    forward = range(len(tau))
    backward = forward[::-1]
    stale = [True] * len(tau)  # a neighbor dropped since the node was evaluated
    stats = SolverStats()
    while True:
        stats.sweeps += 1
        dropped: list[tuple[int, Weight]] = []  # jacobi: written after the sweep
        changed = False
        for p in forward if jacobi or stats.sweeps % 2 else backward:
            if not stale[p]:
                continue
            stale[p] = False
            value = tau[p]
            for slot in range(offsets[p], offsets[p + 1]):
                level = tau[adj_node[slot]]
                w = weights[adj_edge[slot]]
                if w > level:
                    level = w
                if level < value:
                    value = level
            if value != tau[p]:
                changed = True
                stats.relaxations += 1
                if jacobi:
                    dropped.append((p, value))
                else:
                    tau[p] = value
                    for q in adj_node[offsets[p] : offsets[p + 1]]:
                        stale[q] = True
        for p, value in dropped:
            tau[p] = value
            for q in adj_node[offsets[p] : offsets[p + 1]]:
                stale[q] = True
        if not changed:
            break
    return SolverResult(tau=dict(zip(graph.nodes, tau)), stats=stats)


def dijkstra_flood(
    graph: Graph,
    omega: Mapping[str, Weight],
    init: str | Iterable[str] = "all",
) -> SolverResult:
    """Best-first flooding: the min-max kernel seeded at the ceiling.

    ``init="all"`` seeds every finite-ceiling node at its ceiling.  Passing
    a node set instead seeds only those nodes, which computes the flooding
    for the reduced ceiling that is top outside the set; the set must still
    touch every regional minimum of omega (checked), which is what makes
    the reduction exact on node-derived graphs.
    """
    weights = graph.require_edge_weights("dijkstra_flood")
    ceiling = values_by_index(graph, omega, "omega")
    check_ceiling(graph, ceiling)
    seeds: Iterable[int]
    if isinstance(init, str):
        if init != "all":
            raise PreconditionError(f"unknown init mode: {init!r}")
        seeds = range(len(ceiling))
    else:
        names = list(dict.fromkeys(init))
        seeds = [graph.node_index(name) for name in names]
        chosen = set(names)
        for zone in regional_minima(graph, omega):
            if chosen.isdisjoint(zone):
                raise PreconditionError(f"init set misses the ceiling minimum at {zone[0]!r}")
    fed = [seed for seed in seeds if ceiling[seed] < TOP]
    tau: list[Weight] = [TOP] * len(ceiling)
    for seed in fed:
        tau[seed] = ceiling[seed]
    extractions, relaxations, levels = _best_first_flood(graph, weights, tau, fed)
    stats = SolverStats(extractions, relaxations, 0, tuple(levels))
    return SolverResult(tau=dict(zip(graph.nodes, tau)), stats=stats)


def prim_flood(graph: Graph, sources: Mapping[str, Weight]) -> SolverResult:
    """Tree growth over the lowest boundary edge, scheduled by a funnel.

    Edges enter the funnel at their own weight; a running level lam, raised
    whenever a higher priority is extracted, turns edge priorities into
    flooding levels (the level of a popped node is lam itself).  Seeding
    every finite-ceiling node at its ceiling reproduces dijkstra_flood.
    """
    weights = graph.require_edge_weights("prim_flood")
    if not sources:
        raise PreconditionError("prim_flood needs at least one source")
    seeds = [(level, graph.node_index(node)) for node, level in sources.items()]
    ceiling: list[Weight] = [TOP] * len(graph.nodes)
    for level, node in seeds:
        ceiling[node] = level
    check_ceiling(graph, ceiling)
    tau: list[Weight] = [TOP] * len(graph.nodes)
    funnel = Funnel()
    for level, node in seeds:
        funnel.push(level, node)
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    settled = [False] * len(tau)
    extractions = relaxations = 0
    levels: list[Weight] = []
    lam: Weight = min(sources.values())
    while funnel:
        mu, node = funnel.pop()
        extractions += 1
        if mu > lam:
            lam = mu
        if settled[node]:
            continue
        settled[node] = True
        tau[node] = lam
        levels.append(lam)
        for slot in range(offsets[node], offsets[node + 1]):
            neighbor = adj_node[slot]
            if not settled[neighbor]:
                funnel.push(weights[adj_edge[slot]], neighbor)
                relaxations += 1
    stats = SolverStats(extractions, relaxations, 0, tuple(levels))
    return SolverResult(tau=dict(zip(graph.nodes, tau)), stats=stats)


def core_expanding_flood(graph: Graph, omega: Mapping[str, Weight]) -> SolverResult:
    """Node-weighted flooding that floods whole neighborhoods at once.

    Alternates between opening a new core (the lowest-ceiling unflooded
    node) and expanding the flooded region through its lowest boundary.
    Two shortcuts keep queue traffic low: a neighbor standing at or above
    the water (f_q >= level) is settled at its own ground immediately, and
    its neighbors are examined in the same batch.
    """
    ground = graph.require_ground_values("core_expanding_flood")
    ceiling = values_by_index(graph, omega, "omega")
    check_ceiling(graph, ceiling)
    total = len(ceiling)
    order = sorted(range(total), key=ceiling.__getitem__)  # stable: ties by index
    offsets, adj_node = graph.offsets, graph.adj_node
    tau: list[Weight] = [TOP] * total
    flooded = [False] * total
    wet = 0
    funnel = Funnel()
    stats = SolverStats()

    def settle(start: int, level: Weight) -> None:
        nonlocal wet
        batch = deque([(start, level)])
        while batch:
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
                    funnel.push(at, q)
                    stats.relaxations += 1

    pointer = 0
    while wet < total:
        while pointer < total and flooded[order[pointer]]:
            pointer += 1
        lam = ceiling[order[pointer]] if pointer < total else TOP
        mu = funnel.min_priority() if funnel else TOP
        if lam == TOP and mu == TOP:
            break  # the rest stays dry under an open sky: tau is top there
        if lam < mu:
            stats.extractions += 1
            settle(order[pointer], lam)
        else:
            mu, node = funnel.pop()
            stats.extractions += 1
            if flooded[node]:
                continue
            settle(node, mu)
    return SolverResult(tau=dict(zip(graph.nodes, tau)), stats=stats)


def ceiling_minima(
    graph: Graph,
    omega: Mapping[str, Weight],
    method: str = "scan_x",
    iterations: int = 2,
) -> tuple[str, ...]:
    """A cheap superset of one-entry-per-regional-minimum of the ceiling.

    ``scan_x``: one forward scan keeps nodes strictly below every earlier
    neighbor and not above any later one.  ``scan_x_and_y`` intersects with
    the survivors of ``iterations`` parallel geodesic erosions of omega+1
    above omega; ``scan_x_and_z`` uses one in-place backward erosion pass
    instead.  Every regional minimum of omega meets the result.  omega may
    be any node function here, also one below the ground.
    """
    levels = values_by_index(graph, omega, "omega")
    offsets, adj_node = graph.offsets, graph.adj_node
    count = len(levels)

    def neighbors(node: int) -> Iterable[int]:
        return adj_node[offsets[node] : offsets[node + 1]]

    scan = [
        p
        for p in range(count)
        if all(levels[p] < levels[q] if q < p else levels[p] <= levels[q] for q in neighbors(p))
    ]
    if method == "scan_x":
        return tuple(graph.nodes[p] for p in scan)
    if method not in ("scan_x_and_y", "scan_x_and_z"):
        raise PreconditionError(f"unknown ceiling_minima method: {method!r}")
    lifted = [weight_succ(level) for level in levels]
    if method == "scan_x_and_y":
        for _ in range(iterations):
            eroded = [min(lifted[p], *(lifted[q] for q in neighbors(p))) for p in range(count)]
            lifted = [max(low, level) for low, level in zip(eroded, levels)]
    else:
        for p in reversed(range(count)):
            lifted[p] = max(levels[p], min(lifted[p], *(lifted[q] for q in neighbors(p))))
    # A top ceiling cannot rise under erosion (succ(top) == top), yet an
    # all-top component is still a regional minimum, so top nodes stay.
    return tuple(
        graph.nodes[p] for p in scan if lifted[p] > levels[p] or levels[p] == TOP
    )


def marker_segmentation(
    graph: Graph,
    markers: Mapping[str, Weight],
    engine: str = "dijkstra",
    want_tau: bool = False,
) -> SolverResult:
    """Label every reachable node with its closest marker's label.

    Closeness is the flooding distance; ties go to the earliest-listed
    marker.  Every marker is strictly closest to itself (its seed enters
    at bottom), so each marker always keeps its own label.  Both engines
    settle each node with the least (distance, marker rank) pair, so they
    produce identical partitions: ``dijkstra`` keeps one improving
    candidate per node, ``prim`` grows a forest over boundary edges with
    multi-occupancy.  Nodes unreachable from every marker stay unlabeled.
    tau (the distance to the winning marker, floored at zero) is filled
    only when ``want_tau`` is set.
    """
    weights = graph.require_edge_weights("marker_segmentation")
    if not markers:
        raise PreconditionError("marker_segmentation needs at least one marker")
    ranked = [graph.node_index(node) for node in markers]
    label_of = list(markers.values())
    if len(set(label_of)) != len(label_of):
        raise PreconditionError("marker labels must be distinct")
    if engine not in ("dijkstra", "prim"):
        raise PreconditionError(f"unknown segmentation engine: {engine!r}")
    prim = engine == "prim"
    count = len(graph.nodes)
    tau: list[Weight] = [BOTTOM] * count
    rank_of: list[int | None] = [None] * count  # the winning marker, once settled
    best: list[tuple[Weight, int] | None] = [None] * count
    funnel = Funnel()
    for rank, node in enumerate(ranked):
        best[node] = (BOTTOM, rank)
        funnel.push((BOTTOM, rank), node)
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    extractions = relaxations = 0
    levels: list[Weight] = []
    while funnel:
        (level, rank), node = funnel.pop()
        extractions += 1
        if rank_of[node] is not None:
            continue
        rank_of[node] = rank
        tau[node] = level
        levels.append(level)
        for slot in range(offsets[node], offsets[node + 1]):
            neighbor = adj_node[slot]
            if rank_of[neighbor] is not None:
                continue
            w = weights[adj_edge[slot]]
            candidate = (w if w > level else level, rank)
            if prim or best[neighbor] is None or candidate < best[neighbor]:
                best[neighbor] = candidate
                funnel.push(candidate, neighbor)
                relaxations += 1
    stats = SolverStats(extractions, relaxations, 0, tuple(levels))
    reached = [node for node in range(count) if rank_of[node] is not None]
    names = graph.nodes
    return SolverResult(
        tau={names[node]: max(0, tau[node]) for node in reached} if want_tau else {},
        labels={names[node]: label_of[rank_of[node]] for node in reached},
        stats=stats,
    )
