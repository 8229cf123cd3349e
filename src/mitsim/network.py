"""Multilayer multimodal transport network model.

A city is modeled as a set of transport modes (walk, cycle, car, CAV/taxi,
bus, tram, metro, train) operating over a set of infrastructure networks
(pedestrian, cycling, road, tram rail, metro rail, train rail).  A mode may
only use a network when the (mode, network) pair appears in the usage
matrix.  Segments carry per-mode usage entries because shared infrastructure
behaves differently per mode: a reserved bus lane on a road segment has its
own capacity, a one-way street may allow two-way cycling, and so on.
Multimodal nodes are the only places where a traveler can change modes.

Networks are built once from a plain-dict description and are immutable
afterwards; disturbance effects live in a separate overlay (see
:mod:`mitsim.state`).  What is a pure function of the network and some
further inputs is computed once and kept on it, so every run over one
network shares it: one arc table per mode (its adjacency by from-node),
per-mode free-flow times, free-flow paths, distance tables from fixed
source sets, the route search's landmark tables, and route search results
per overlay content.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, NamedTuple, Optional

from .errors import (ValidationError, as_bool, as_float, as_list, as_object, entries, id_pair,
                     known, require)

MODE_CATEGORIES = frozenset(
    {"walk", "cycle", "private-car", "cav-taxi", "bus", "tram", "metro", "train"}
)
AGILE_CATEGORIES = frozenset({"walk", "cycle"})
ROAD_CATEGORIES = frozenset({"private-car", "cav-taxi", "bus"})
RAIL_CATEGORIES = frozenset({"tram", "metro", "train"})
PT_CATEGORIES = frozenset({"bus", "tram", "metro", "train"})
SEGMENT_CLASSES = ("critical", "major", "inferior", "minor")
DIRECTIONS = frozenset({"forward", "backward", "both"})
NODE_SERVICES = frozenset({"pt-stop", "bike-nest", "cav-pickup", "rail-station"})
# Landmarks behind the route search's lower bounds (see landmark_tables).
LANDMARKS = 4


@dataclass(frozen=True)
class ModeSpec:
    """One transport mode (a category may stand for several similar modes)."""

    mode_id: str
    category: str
    maas_member: bool


@dataclass(frozen=True)
class UsageEntry:
    """How one mode uses one segment.

    ``reserved`` marks a dedicated lane or track (e.g. a bus lane) that is
    spared by blockages unless the disturbance explicitly hits it.
    """

    mode_id: str
    direction: str = "both"
    free_flow_time: float = 60.0
    reserved: bool = False


@dataclass(frozen=True)
class Segment:
    segment_id: str
    network_id: str
    from_node: str
    to_node: str
    length: float
    usage: tuple[UsageEntry, ...]
    seg_class: str = "minor"
    shared_group: Optional[str] = None

    def usage_for(self, mode_id: str) -> Optional[UsageEntry]:
        for entry in self.usage:
            if entry.mode_id == mode_id:
                return entry
        return None


@dataclass(frozen=True)
class MultimodalNode:
    """A node where mode transitions are possible.

    ``transfer_time`` must cover every ordered pair of distinct attached
    modes; same-mode transfer time is implicitly zero.
    """

    node_id: str
    modes: tuple[str, ...]  # the attached modes, sorted
    transfer_time: Mapping[tuple[str, str], float]
    services: frozenset[str] = frozenset()

    def transfer(self, from_mode: str, to_mode: str) -> float:
        if from_mode == to_mode:
            return 0.0
        return self.transfer_time[(from_mode, to_mode)]


class Arc(NamedTuple):
    """Directed traversable arc derived from a segment for one mode."""

    from_node: str
    to_node: str
    segment_id: str
    free_flow_time: float
    length: float


class MultiLayerNetwork:
    """Immutable container for modes, the usage matrix, nodes and segments.

    :func:`build_network` checks a description as it reads it; the
    container itself only checks that every MaaS mode can be served.
    """

    def __init__(
        self,
        modes: Iterable[ModeSpec],
        usage_matrix: Iterable[tuple[str, str]],
        nodes: Iterable[str],
        segments: Iterable[Segment],
        multimodal_nodes: Iterable[MultimodalNode],
    ):
        self.modes = {m.mode_id: m for m in modes}
        self.usage_matrix = frozenset(tuple(p) for p in usage_matrix)
        self.nodes = frozenset(nodes)
        self.segments = {s.segment_id: s for s in segments}
        self.multimodal_nodes = {mn.node_id: mn for mn in multimodal_nodes}
        self._out_arcs: dict[str, dict[str, tuple[Arc, ...]]] = {}
        self._free_flow_times: dict[str, Mapping[str, float]] = {}
        self._undirected: Optional[dict[str, tuple[tuple[str, float], ...]]] = None
        self._free_flow_paths: dict[tuple[str, str, str], Optional[tuple[str, ...]]] = {}
        self._landmark_tables: Optional[tuple[Mapping[str, float], ...]] = None
        self._distance_tables: dict[tuple[tuple[str, float], ...], Mapping[str, float]] = {}
        self._searches: dict[Hashable, dict] = {}
        self._check_maas_connectivity()
        self._shared_groups = self._index_shared_groups()

    # -- validation ---------------------------------------------------------

    def _check_maas_connectivity(self) -> None:
        # Every MaaS mode must be reachable as a service: some connected
        # component of the segments it uses, taken undirected, must contain
        # >= 2 multimodal nodes.
        for mode in self.modes.values():
            if not mode.maas_member:
                continue
            adj: dict[str, set[str]] = {}
            for seg in self.segments.values():
                if seg.usage_for(mode.mode_id) is not None:
                    adj.setdefault(seg.from_node, set()).add(seg.to_node)
                    adj.setdefault(seg.to_node, set()).add(seg.from_node)
            seen: set[str] = set()
            ok = False
            for start in sorted(adj):
                if start in seen:
                    continue
                stack, comp = [start], set()
                while stack:
                    n = stack.pop()
                    if n in comp:
                        continue
                    comp.add(n)
                    stack.extend(adj.get(n, ()))
                seen |= comp
                if len(comp & set(self.multimodal_nodes)) >= 2:
                    ok = True
                    break
            if not ok:
                raise ValidationError(
                    f"mode {mode.mode_id}: MaaS member has no usable component "
                    f"containing 2 multimodal nodes"
                )

    def _index_shared_groups(self) -> dict[str, frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for seg in self.segments.values():
            if seg.shared_group is not None:
                groups.setdefault(seg.shared_group, set()).add(seg.segment_id)
        return {k: frozenset(v) for k, v in groups.items()}

    # -- queries ------------------------------------------------------------

    def out_arcs(self, mode_id: str) -> dict[str, tuple[Arc, ...]]:
        """Directed arcs usable by ``mode_id``, respecting segment direction,
        by from-node: each node's arcs in segment id order, forward before
        backward.  Built once per mode; the mode's one arc table."""
        grouped = self._out_arcs.get(mode_id)
        if grouped is None:
            if mode_id not in self.modes:
                raise ValidationError(f"unknown mode {mode_id}")
            built: dict[str, list[Arc]] = {}
            for seg_id in sorted(self.segments):
                seg = self.segments[seg_id]
                entry = seg.usage_for(mode_id)
                if entry is None:
                    continue
                if entry.direction in ("forward", "both"):
                    built.setdefault(seg.from_node, []).append(Arc(
                        seg.from_node, seg.to_node, seg_id, entry.free_flow_time, seg.length))
                if entry.direction in ("backward", "both"):
                    built.setdefault(seg.to_node, []).append(Arc(
                        seg.to_node, seg.from_node, seg_id, entry.free_flow_time, seg.length))
            grouped = self._out_arcs[mode_id] = {n: tuple(arcs) for n, arcs in built.items()}
        return grouped

    def free_flow_times(self, mode_id: str) -> Mapping[str, float]:
        """Free-flow time of every segment ``mode_id`` uses, by segment id,
        from its first usage entry for the mode, as ``usage_for`` reads it.
        Built once per mode and returned read-only."""
        times = self._free_flow_times.get(mode_id)
        if times is None:
            built: dict[str, float] = {}
            for seg_id, seg in self.segments.items():
                for entry in seg.usage:
                    if entry.mode_id == mode_id:
                        built.setdefault(seg_id, entry.free_flow_time)
            times = self._free_flow_times[mode_id] = MappingProxyType(built)
        return times

    def undirected_adjacency(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """(neighbour, length) of every segment at each node, both ways, in
        segment id order; every node has an entry.  Built once."""
        if self._undirected is None:
            adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
            for seg_id in sorted(self.segments):
                seg = self.segments[seg_id]
                adj[seg.from_node].append((seg.to_node, seg.length))
                adj[seg.to_node].append((seg.from_node, seg.length))
            self._undirected = {n: tuple(out) for n, out in adj.items()}
        return self._undirected

    def free_flow_path(self, mode_id: str, origin: str, dest: str) -> Optional[tuple[str, ...]]:
        """Segment ids of the least free-flow-time path within one mode.

        Ties break on the segment id sequence.  ``None`` when ``dest`` is
        unreachable.  Each (mode, origin, dest) is searched once per network,
        by the route search on a pristine overlay without boarding waits.
        """
        key = (mode_id, origin, dest)
        if key not in self._free_flow_paths:
            # Imported here: routing and state build on this module.
            from .routing import RoutingPreferences, _search
            from .state import NetworkState

            path: Optional[tuple[str, ...]] = ()
            if origin != dest:
                found = _search(origin, dest, RoutingPreferences(frozenset({mode_id})),
                                NetworkState(self))
                path = None if found is None else tuple(m[1] for m in found[1:])
            self._free_flow_paths[key] = path
        return self._free_flow_paths[key]

    def landmark_tables(self) -> tuple[Mapping[str, float], ...]:
        """Free-flow times from up to ``LANDMARKS`` landmarks to every node,
        the route search's lower bounds.

        Each table is a Dijkstra over the undirected graph whose segment
        weight is the least free-flow time among the segment's usage
        entries; a node the landmark cannot reach reads infinity.  The
        first landmark is the smallest node id, each next one the node
        farthest from all chosen so far (ties to the smallest id).  Built
        on the first search, once per network, and returned read-only.
        """
        if self._landmark_tables is None:
            adj: dict[str, list[tuple[str, float]]] = {n: [] for n in self.nodes}
            for seg_id in sorted(self.segments):
                seg = self.segments[seg_id]
                weight = min(entry.free_flow_time for entry in seg.usage)
                adj[seg.from_node].append((seg.to_node, weight))
                adj[seg.to_node].append((seg.from_node, weight))
            inf = float("inf")
            nodes = sorted(self.nodes)
            nearest = dict.fromkeys(nodes, inf)
            landmark = nodes[0]
            tables = []
            while len(tables) < LANDMARKS and nearest[landmark] > 0.0:
                dist = _dijkstra(adj, {landmark: 0.0})
                tables.append(MappingProxyType({n: dist.get(n, inf) for n in nodes}))
                for n in nodes:
                    nearest[n] = min(nearest[n], tables[-1][n])
                landmark = max(nodes, key=nearest.__getitem__)
            self._landmark_tables = tuple(tables)
        return self._landmark_tables

    def distance_table(self, sources: Mapping[str, float]) -> Mapping[str, float]:
        """``node_distances`` from ``sources``, computed once per distinct
        source map on this network and returned read-only."""
        key = tuple(sorted(sources.items()))
        table = self._distance_tables.get(key)
        if table is None:
            table = self._distance_tables[key] = MappingProxyType(node_distances(self, sources))
        return table

    def searches(self, metric: Hashable) -> dict:
        """Route search results for one overlay content (``metric``).

        Every overlay on this network whose content equals ``metric`` reads
        and fills the same dict (see :meth:`NetworkState.searches`).
        """
        return self._searches.setdefault(metric, {})

    def shared_group_members(self, segment_id: str) -> set[str]:
        """All segments on the same physical infrastructure, input included."""
        if segment_id not in self.segments:
            raise ValidationError(f"unknown segment {segment_id}")
        group = self.segments[segment_id].shared_group
        if group is None:
            return {segment_id}
        return set(self._shared_groups[group])

    def expand_shared(self, segment_ids: Iterable[str]) -> set[str]:
        """Close a segment set under shared physical infrastructure."""
        out: set[str] = set()
        for seg_id in segment_ids:
            out |= self.shared_group_members(seg_id)
        return out


# -- construction from plain data -------------------------------------------


def build_network(spec: Mapping) -> MultiLayerNetwork:
    """Build and validate a network from a scenario ``network`` section.

    Every entry is checked as it is read, in document order, and the first
    fault raises a :class:`ValidationError` naming the offending identifier
    (dangling nodes, duplicate ids, usage outside the matrix, empty usage
    lists, ...).
    """
    if not isinstance(spec, dict):
        raise ValidationError("scenario: network must be an object")
    modes: dict[str, ModeSpec] = {}
    for mode_id, raw in entries(require(spec, "network", "modes"), "network.modes", "mode",
                                "mode_id"):
        where = f"mode {mode_id}"
        category = known(require(raw, where, "category"), MODE_CATEGORIES, where, "category")
        if not as_bool(raw.get("agile", True), where, "agile") and category in AGILE_CATEGORIES:
            raise ValidationError(f"{where}: category {category} must be agile")
        modes[mode_id] = ModeSpec(mode_id, category,
                                  as_bool(raw.get("maas_member", False), where, "maas_member"))
    networks = {network_id for network_id, _ in entries(
        require(spec, "network", "networks"), "network.networks", "network", "network_id")}
    # The container gets the pair and node lists in document order: the
    # iteration order of the sets it builds from them follows that order.
    usage_pairs = []
    for i, pair in enumerate(as_list(require(spec, "network", "usage_matrix"), "network",
                                     "usage_matrix")):
        mode_id, network_id = id_pair(pair, "usage matrix", f"entry {i}")
        known(mode_id, modes, "usage matrix", "mode")
        known(network_id, networks, "usage matrix", "network")
        usage_pairs.append((mode_id, network_id))
    usage_matrix = frozenset(usage_pairs)
    node_list = [node for node, _ in entries(require(spec, "network", "nodes"), "network.nodes",
                                             "node", "")]
    nodes = frozenset(node_list)
    segments = []
    for seg_id, raw in entries(require(spec, "network", "segments"), "network.segments",
                               "segment", "segment_id"):
        where = f"segment {seg_id}"
        network_id = known(require(raw, where, "network_id"), networks, where, "network")
        from_node = known(require(raw, where, "from_node"), nodes, where, "node")
        to_node = known(require(raw, where, "to_node"), nodes, where, "node")
        length = as_float(require(raw, where, "length"), where, "length")
        if not length > 0:
            raise ValidationError(f"{where}: length must be > 0")
        usage = []
        noun = f"{where} usage"
        for mode_id, u in entries(require(raw, where, "usage"), noun, noun, "mode_id"):
            known(mode_id, modes, where, "mode")
            direction = known(u.get("direction", "both"), DIRECTIONS, where, "direction")
            base_capacity = as_float(u.get("base_capacity", 1000.0), where, "usage base_capacity")
            free_flow_time = as_float(u.get("free_flow_time", 60.0), where, "usage free_flow_time")
            if not (base_capacity > 0 and free_flow_time > 0):
                raise ValidationError(f"{where}: capacity and free-flow time must be > 0 "
                                      f"for mode {mode_id}")
            if (mode_id, network_id) not in usage_matrix:
                raise ValidationError(f"{where}: pair ({mode_id}, {network_id}) not in the "
                                      f"usage matrix")
            # Positional arguments: these frozen records are built once per
            # entry, and keywords make that measurably slower.
            usage.append(UsageEntry(mode_id, direction, free_flow_time,
                                    as_bool(u.get("reserved", False), where, "usage reserved")))
        if not usage:
            raise ValidationError(f"{where}: empty usage list")
        seg_class = known(raw.get("class", "minor"), SEGMENT_CLASSES, where, "class")
        shared_group = raw.get("shared_group")
        if not (shared_group is None or isinstance(shared_group, str)):
            raise ValidationError(f"{where}: shared_group must be a string")
        segments.append(Segment(seg_id, network_id, from_node, to_node, length, tuple(usage),
                                seg_class, shared_group))
    multimodal_nodes = []
    default_transfer = as_float(spec.get("transfer_time_default", 120.0), "network",
                                "transfer_time_default")
    if not default_transfer >= 0:
        raise ValidationError("network: transfer_time_default must be >= 0")
    for node_id, raw in entries(spec.get("multimodal_nodes", []), "network.multimodal_nodes",
                                "multimodal node", "node_id"):
        where = f"multimodal node {node_id}"
        known(node_id, nodes, where, "node")
        attached = set()
        for pair in as_list(require(raw, where, "attachments"), where, "attachments"):
            attachment = id_pair(pair, where, "attachment")
            if attachment not in usage_matrix:
                raise ValidationError(f"{where}: attachment ({attachment[0]}, "
                                      f"{attachment[1]}) not in the usage matrix")
            attached.add(attachment[0])
        attached_modes = tuple(sorted(attached))
        raw_transfer = as_object(raw.get("transfer_time"), where, "transfer_time")
        transfer: dict[tuple[str, str], float] = {}
        for a in attached_modes:
            for b in attached_modes:
                if a == b:
                    continue
                duration = as_float(raw_transfer.get(f"{a},{b}", default_transfer),
                                    f"node {node_id}", "transfer_time")
                if not duration >= 0:
                    raise ValidationError(f"{where}: transfer time ({a} -> {b}) must be >= 0")
                transfer[(a, b)] = duration
        multimodal_nodes.append(MultimodalNode(
            node_id=node_id,
            modes=attached_modes,
            transfer_time=transfer,
            services=frozenset(known(service, NODE_SERVICES, where, "service") for service
                               in as_list(raw.get("services", []), where, "services")),
        ))
    return MultiLayerNetwork(
        modes=modes.values(),
        usage_matrix=usage_pairs,
        nodes=node_list,
        segments=segments,
        multimodal_nodes=multimodal_nodes,
    )


def node_distances(net: MultiLayerNetwork, sources: Mapping[str, float]) -> dict[str, float]:
    """Shortest along-segment distance (meters) from a source set to all nodes.

    Distances are over the undirected union of all segments regardless of
    mode, matching how warning areas are scoped.  ``sources`` maps each
    source node to its initial distance (nonzero for positions in a
    segment's interior).
    """
    return _dijkstra(net.undirected_adjacency(), sources)


def _dijkstra(adj: Mapping[str, Iterable[tuple[str, float]]],
              initial: Mapping[str, float]) -> dict[str, float]:
    """Least distance from the ``initial`` nodes, at their initial
    distances, to every node reachable over the weighted ``adj``."""
    inf = float("inf")
    dist: dict[str, float] = {}
    get = dist.get
    heap: list[tuple[float, str]] = []
    for s in sorted(initial):
        dist[s] = initial[s]
        heapq.heappush(heap, (initial[s], s))
    while heap:
        d, node = heapq.heappop(heap)
        if d > get(node, inf):
            continue
        for nxt, w in adj[node]:
            nd = d + w
            if nd < get(nxt, inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist
