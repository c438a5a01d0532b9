"""The hierarchical queue and the best-first loops that run on it.

The loops push by subscript and pop inline or by whole buckets.  The
per-item loops below, one ``push`` and one ``pop`` call per queued node on
the ``PerItemFunnel`` defined here, are the references they are compared
with: tau (or labels and tau) and all counters, ``extraction_levels`` in
order where the loop fills them.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    Funnel,
    contract_close_flood,
    core_expanding_flood,
    derive_edge_graph,
    dijkstra_flood,
    flooding_distance_all,
    grid_graph,
    marker_segmentation,
    prim_flood,
)
from floodgraph.ultrametric import _best_first_flood

from strategies import rough_edge_graphs, rough_flood_instances, rough_node_flood_instances


class PerItemFunnel(Funnel):
    """A ``Funnel`` with the per-item operations the reference loops call."""

    __slots__ = ()

    def __len__(self) -> int:
        return sum(map(len, self.values()))

    def push(self, priority, item) -> None:
        self[priority].append(item)

    def min_priority(self):
        return self.heap[0]

    def pop(self):
        priority = self.heap[0]
        bucket = self[priority]
        item = bucket.popleft()
        if not bucket:
            del self[priority]
            heapq.heappop(self.heap)
        return priority, item


# -- queue contract ------------------------------------------------------------


def test_funnel_push_is_a_subscript():
    funnel = PerItemFunnel()
    funnel[3].append("a")
    funnel.push(1, "b")
    funnel[3].append("c")
    assert funnel.heap == [1, 3] and len(funnel) == 3
    assert [funnel.pop() for _ in range(3)] == [(1, "b"), (3, "a"), (3, "c")]
    assert not funnel and funnel.heap == [] and dict(funnel) == {}
    bare = Funnel()
    bare[3].extend("ac")
    assert len(bare) == 1  # dict.__len__: a bare Funnel counts priorities, not items


def _monotone_run(priorities, script, drain):
    """Extract everything, pushing ``script``'s items on each extraction.

    ``script`` maps an item to the (level, item) pairs pushed when it is
    extracted, each at the join of the extracted priority and the level,
    so never below it (a level at or below it pushes at the priority being
    drained; a tuple priority joins its first component and keeps the
    rest).  Returns the (priority, item) extraction sequence.
    """
    funnel = PerItemFunnel()
    for priority, item in priorities:
        funnel.push(priority, item)
    out = []

    def extracted(priority, item):
        out.append((priority, item))
        for level, fresh in script.get(item, ()):
            if isinstance(priority, tuple):
                funnel.push((max(priority[0], level), *priority[1:]), fresh)
            else:
                funnel.push(max(priority, level), fresh)

    if drain:
        for priority, bucket in funnel.buckets():
            for item in bucket:
                extracted(priority, item)
    else:
        while funnel:
            extracted(*funnel.pop())
    assert not funnel and not funnel.heap
    return out


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_buckets_drain_in_pop_order_under_monotone_pushes(seed, tuples):
    rng = random.Random(seed)
    levels = [BOTTOM, TOP, *range(4)]

    def priority():
        level = rng.choice(levels)
        return (level, rng.randrange(3)) if tuples else level

    priorities = [(priority(), f"s{i}") for i in range(rng.randint(0, 6))]
    script = {}
    queue = [item for _, item in priorities]
    fresh = 0
    while queue and fresh < 40:
        item = queue.pop(rng.randrange(len(queue)))
        pushes = [(rng.choice(levels), f"x{fresh + k}") for k in range(rng.randint(0, 3))]
        fresh += len(pushes)
        script[item] = pushes
        queue.extend(name for _, name in pushes)
    assert _monotone_run(priorities, script, True) == _monotone_run(priorities, script, False)


def test_buckets_take_pushes_at_the_drained_priority_next():
    funnel = PerItemFunnel()
    funnel.push(1, "a")
    funnel.push(1, "b")
    funnel.push(2, "z")
    seen = []
    for priority, bucket in funnel.buckets():
        for item in bucket:
            seen.append((priority, item))
            if item == "a":
                funnel.push(1, "c")  # a fresh bucket at 1, after "b"
                funnel.push(1, "d")
    assert seen == [(1, "a"), (1, "b"), (1, "c"), (1, "d"), (2, "z")]


def test_buckets_with_tuple_priorities():
    funnel = PerItemFunnel()
    funnel.push((1, 0), "late")
    funnel.push((0, 9), "early")
    funnel.push((0, 9), "second")
    drained = [(p, list(bucket)) for p, bucket in funnel.buckets()]
    assert drained == [((0, 9), ["early", "second"]), ((1, 0), ["late"])]


# -- reference loops: one push and one pop call per queued node ----------------


def per_item_best_first_flood(graph, weights, level, seeds):
    """The former ``_best_first_flood``: lowers ``level``; (extractions, relaxations, useful)."""
    funnel = PerItemFunnel()
    for seed in seeds:
        funnel.push(level[seed], seed)
    offsets, adj_node, adj_edge = graph.incidences()
    extractions = relaxations = 0
    useful = []
    while funnel:
        lam, node = funnel.pop()
        extractions += 1
        if level[node] != lam:
            continue
        useful.append(lam)
        for slot in range(offsets[node], offsets[node + 1]):
            w = weights[adj_edge[slot]]
            candidate = w if w > lam else lam
            neighbor = adj_node[slot]
            if candidate < level[neighbor]:
                level[neighbor] = candidate
                funnel.push(candidate, neighbor)
                relaxations += 1
    return extractions, relaxations, useful


def per_item_prim_flood(graph, sources):
    """The former ``prim_flood`` loop: (tau, extractions, relaxations)."""
    weights = graph.edge_weights
    tau = [TOP] * len(graph.nodes)
    funnel = PerItemFunnel()
    for node, level in sources.items():
        funnel.push(level, graph.node_index(node))
    offsets, adj_node, adj_edge = graph.incidences()
    settled = [False] * len(tau)
    extractions = relaxations = 0
    lam = min(sources.values())
    while funnel:
        mu, node = funnel.pop()
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
                funnel.push(weights[adj_edge[slot]], neighbor)
                relaxations += 1
    return dict(zip(graph.nodes, tau)), extractions, relaxations


def per_item_core_expanding_flood(graph, omega):
    """The former ``core_expanding_flood`` loop, with its ``settle`` closure."""
    ground = graph.ground_values
    ceiling = [omega[node] for node in graph.nodes]
    total = len(ceiling)
    order = sorted(range(total), key=ceiling.__getitem__)
    offsets, adj_node, _ = graph.incidences()
    tau = [TOP] * total
    flooded = [False] * total
    wet = extractions = relaxations = 0
    funnel = PerItemFunnel()

    def settle(start, level):
        nonlocal wet, relaxations
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
                    relaxations += 1

    pointer = 0
    while wet < total:
        while pointer < total and flooded[order[pointer]]:
            pointer += 1
        lam = ceiling[order[pointer]] if pointer < total else TOP
        mu = funnel.min_priority() if funnel else TOP
        if lam == TOP and mu == TOP:
            break
        if lam < mu:
            extractions += 1
            settle(order[pointer], lam)
        else:
            mu, node = funnel.pop()
            extractions += 1
            if flooded[node]:
                continue
            settle(node, mu)
    return dict(zip(graph.nodes, tau)), extractions, relaxations, ()


def per_item_marker_segmentation(graph, markers, engine):
    """The former ``marker_segmentation`` loop: (labels, tau, extractions, relaxations, levels)."""
    weights = graph.edge_weights
    ranked = [graph.node_index(node) for node in markers]
    label_of = list(markers.values())
    prim = engine == "prim"
    count = len(graph.nodes)
    tau = [BOTTOM] * count
    rank_of = [None] * count
    best = [None] * count
    funnel = PerItemFunnel()
    for rank, node in enumerate(ranked):
        best[node] = (BOTTOM, rank)
        funnel.push((BOTTOM, rank), node)
    offsets, adj_node, adj_edge = graph.incidences()
    extractions = relaxations = 0
    levels = []
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
    reached = [node for node in range(count) if rank_of[node] is not None]
    names = graph.nodes
    labels = {names[node]: label_of[rank_of[node]] for node in reached}
    levels_out = {names[node]: max(0, tau[node]) for node in reached}
    return labels, levels_out, extractions, relaxations, levels


def _counters(result):
    stats = result.stats
    return stats.extractions, stats.relaxations, stats.extraction_levels


@settings(max_examples=300)
@given(rough_edge_graphs(), st.data())
def test_kernel_matches_the_per_item_loop(graph, data):
    count = len(graph.nodes)
    seeds = data.draw(st.lists(st.integers(0, count - 1), max_size=count + 2))
    starts = data.draw(
        st.lists(st.sampled_from([BOTTOM, TOP, 0, 1, 2, 3, 6]), min_size=count, max_size=count)
    )
    level = [starts[node] if node in seeds else TOP for node in range(count)]
    expected = list(level)
    reference = per_item_best_first_flood(graph, graph.edge_weights, expected, seeds)
    extractions, relaxations, useful = _best_first_flood(graph, graph.edge_weights, level, seeds)
    assert level == expected
    assert (extractions, relaxations, useful) == reference


@settings(max_examples=300)
@given(rough_flood_instances(), st.data())
def test_prim_flood_matches_the_per_item_loop(instance, data):
    """prim seeds the finite entries of its ceiling in node order: the loop's
    counters on those seeds, and the loop's tau on the sources as drawn."""
    graph, omega = instance
    chosen = data.draw(st.lists(st.sampled_from(graph.nodes), min_size=1, unique=True))
    for sources in ({node: omega[node] for node in chosen}, omega):
        result = prim_flood(graph, sources)
        stats = result.stats
        finite = {node: sources[node] for node in graph.nodes if sources.get(node, TOP) < TOP}
        if finite:
            expected = per_item_prim_flood(graph, finite)
        else:
            expected = dict.fromkeys(graph.nodes, TOP), 0, 0
        assert (result.tau, stats.extractions, stats.relaxations) == expected
        assert result.tau == per_item_prim_flood(graph, sources)[0]
        assert stats.sweeps == 0 and stats.extraction_levels == ()


@settings(max_examples=300)
@given(rough_node_flood_instances())
def test_core_expanding_flood_matches_the_per_item_loop(instance):
    graph, omega = instance
    result = core_expanding_flood(graph, omega)
    assert (result.tau, *_counters(result)) == per_item_core_expanding_flood(graph, omega)
    assert result.stats.sweeps == 0


@settings(max_examples=300)
@given(rough_edge_graphs(), st.data())
def test_marker_segmentation_matches_the_per_item_loop(graph, data):
    chosen = data.draw(st.lists(st.sampled_from(graph.nodes), min_size=1, unique=True))
    labels = data.draw(st.lists(st.integers(0, 50), min_size=len(chosen), max_size=len(chosen), unique=True))
    markers = dict(zip(chosen, labels))
    for engine in ("dijkstra", "prim"):
        result = marker_segmentation(graph, markers, engine=engine)
        labels, tau, *counters = per_item_marker_segmentation(graph, markers, engine)
        # The reference lists the reached nodes only; the others hold None and top.
        assert result.labels == {**dict.fromkeys(graph.nodes), **labels}
        assert result.tau == {**dict.fromkeys(graph.nodes, TOP), **tau}
        assert [*_counters(result)] == counters


# -- structural guard: no Funnel method call per queued node -------------------


def _queue_routes():
    relief = [[(3 * r + 5 * c) % 7 for c in range(9)] for r in range(8)]
    graph = grid_graph(relief)
    edges = derive_edge_graph(graph)
    nodes = graph.nodes
    omega = {node: TOP for node in nodes}
    omega[nodes[0]], omega[nodes[40]], omega[nodes[-1]] = 3, 4, 6
    markers = {nodes[0]: 1, nodes[33]: 2, nodes[-1]: 3}
    return {
        "dijkstra_flood": lambda: dijkstra_flood(edges, omega),
        "flooding_distance_all": lambda: flooding_distance_all(edges, nodes[5]),
        "prim_flood": lambda: prim_flood(edges, {nodes[0]: 3, nodes[40]: 4}),
        "core_expanding_flood": lambda: core_expanding_flood(graph, omega),
        "segment_dijkstra": lambda: marker_segmentation(edges, markers),
        "segment_prim": lambda: marker_segmentation(edges, markers, engine="prim"),
        "contract_close_flood": lambda: contract_close_flood(graph, omega),
    }


def test_best_first_loops_call_no_funnel_method():
    """The per-item operations live on the test side; every loop runs without them."""
    assert not {"push", "pop", "min_priority", "__len__"} & vars(Funnel).keys()
    for route in _queue_routes().values():
        route()
