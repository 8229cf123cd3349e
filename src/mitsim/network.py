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
network shares it: per-mode adjacency and free-flow times, free-flow paths,
distance tables from fixed source sets, the route search's landmark tables,
and route search results per overlay content.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Union

from .errors import ValidationError, as_float

MODE_CATEGORIES = frozenset(
    {"walk", "cycle", "private-car", "cav-taxi", "bus", "tram", "metro", "train"}
)
AGILE_CATEGORIES = frozenset({"walk", "cycle"})
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
    agile: bool
    maas_member: bool


@dataclass(frozen=True)
class UsageEntry:
    """How one mode uses one segment.

    ``reserved`` marks a dedicated lane or track (e.g. a bus lane) that is
    spared by blockages unless the disturbance explicitly hits it.
    """

    mode_id: str
    direction: str = "both"
    base_capacity: float = 1000.0
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
    attachments: frozenset[tuple[str, str]]  # (mode_id, network_id)
    transfer_time: Mapping[tuple[str, str], float]
    services: frozenset[str] = frozenset()
    # the attached modes, sorted; derived from ``attachments``
    modes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(sorted({m for m, _ in self.attachments})))

    def transfer(self, from_mode: str, to_mode: str) -> float:
        if from_mode == to_mode:
            return 0.0
        return self.transfer_time[(from_mode, to_mode)]


@dataclass(frozen=True)
class Arc:
    """Directed traversable arc derived from a segment for one mode."""

    from_node: str
    to_node: str
    segment_id: str
    free_flow_time: float
    length: float


class MultiLayerNetwork:
    """Validated, immutable container for modes, networks, nodes and segments."""

    def __init__(
        self,
        modes: Iterable[ModeSpec],
        networks: Iterable[str],
        usage_matrix: Iterable[tuple[str, str]],
        nodes: Iterable[str],
        segments: Iterable[Segment],
        multimodal_nodes: Iterable[MultimodalNode],
    ):
        self.modes = {m.mode_id: m for m in modes}
        self.networks = frozenset(networks)
        self.usage_matrix = frozenset(tuple(p) for p in usage_matrix)
        self.nodes = frozenset(nodes)
        self.segments = {s.segment_id: s for s in segments}
        self.multimodal_nodes = {mn.node_id: mn for mn in multimodal_nodes}
        self._arcs: dict[str, tuple[Arc, ...]] = {}
        self._out_arcs: dict[str, dict[str, tuple[Arc, ...]]] = {}
        self._free_flow_times: dict[str, Mapping[str, float]] = {}
        self._undirected: Optional[dict[str, tuple[tuple[str, float], ...]]] = None
        self._free_flow_paths: dict[tuple[str, str, str], Optional[tuple[str, ...]]] = {}
        self._landmark_tables: Optional[tuple[Mapping[str, float], ...]] = None
        self._distance_tables: dict[tuple[tuple[str, float], ...], Mapping[str, float]] = {}
        self._searches: dict[Hashable, dict] = {}
        # The checks build the views of MaaS modes into the caches above.
        self._validate()
        self._shared_groups = self._index_shared_groups()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        for mode in self.modes.values():
            if mode.category not in MODE_CATEGORIES:
                raise ValidationError(
                    f"mode {mode.mode_id}: unknown category {mode.category!r}"
                )
            if mode.category in AGILE_CATEGORIES and not mode.agile:
                raise ValidationError(
                    f"mode {mode.mode_id}: category {mode.category} must be agile"
                )
        for mode_id, network_id in self.usage_matrix:
            if mode_id not in self.modes:
                raise ValidationError(f"usage matrix names unknown mode {mode_id}")
            if network_id not in self.networks:
                raise ValidationError(
                    f"usage matrix names unknown network {network_id}"
                )
        for seg in self.segments.values():
            if seg.network_id not in self.networks:
                raise ValidationError(
                    f"segment {seg.segment_id}: unknown network {seg.network_id}"
                )
            for endpoint in (seg.from_node, seg.to_node):
                if endpoint not in self.nodes:
                    raise ValidationError(
                        f"segment {seg.segment_id}: dangling node reference {endpoint}"
                    )
            if not seg.length > 0:
                raise ValidationError(f"segment {seg.segment_id}: length must be > 0")
            if not seg.usage:
                raise ValidationError(f"segment {seg.segment_id}: empty usage list")
            if seg.seg_class not in SEGMENT_CLASSES:
                raise ValidationError(
                    f"segment {seg.segment_id}: unknown class {seg.seg_class!r}"
                )
            seen_modes = set()
            for entry in seg.usage:
                if entry.mode_id in seen_modes:
                    raise ValidationError(
                        f"segment {seg.segment_id}: duplicate usage for mode {entry.mode_id}"
                    )
                seen_modes.add(entry.mode_id)
                if entry.mode_id not in self.modes:
                    raise ValidationError(
                        f"segment {seg.segment_id}: unknown mode {entry.mode_id}"
                    )
                if entry.direction not in DIRECTIONS:
                    raise ValidationError(
                        f"segment {seg.segment_id}: bad direction {entry.direction!r}"
                    )
                if not (entry.base_capacity > 0 and entry.free_flow_time > 0):
                    raise ValidationError(
                        f"segment {seg.segment_id}: capacity and free-flow time must "
                        f"be > 0 for mode {entry.mode_id}"
                    )
                if (entry.mode_id, seg.network_id) not in self.usage_matrix:
                    raise ValidationError(
                        f"segment {seg.segment_id}: pair ({entry.mode_id}, "
                        f"{seg.network_id}) not in the usage matrix"
                    )
        for mn in self.multimodal_nodes.values():
            if mn.node_id not in self.nodes:
                raise ValidationError(
                    f"multimodal node {mn.node_id}: not in the node registry"
                )
            for mode_id, network_id in mn.attachments:
                if (mode_id, network_id) not in self.usage_matrix:
                    raise ValidationError(
                        f"multimodal node {mn.node_id}: attachment ({mode_id}, "
                        f"{network_id}) not in the usage matrix"
                    )
            for a in mn.modes:
                for b in mn.modes:
                    if a != b and (a, b) not in mn.transfer_time:
                        raise ValidationError(
                            f"multimodal node {mn.node_id}: missing transfer time "
                            f"({a} -> {b})"
                        )
            for (a, b), duration in sorted(mn.transfer_time.items()):
                if not duration >= 0:
                    raise ValidationError(
                        f"multimodal node {mn.node_id}: transfer time ({a} -> {b}) "
                        f"must be >= 0"
                    )
            for service in mn.services:
                if service not in NODE_SERVICES:
                    raise ValidationError(
                        f"multimodal node {mn.node_id}: unknown service {service!r}"
                    )
        self._check_maas_connectivity()

    def _check_maas_connectivity(self) -> None:
        # Every MaaS mode must be reachable as a service: some connected
        # component of its usable subgraph must contain >= 2 multimodal nodes.
        for mode in self.modes.values():
            if not mode.maas_member:
                continue
            adj: dict[str, set[str]] = {}
            for arc in self.usable_subgraph(mode.mode_id):
                adj.setdefault(arc.from_node, set()).add(arc.to_node)
                adj.setdefault(arc.to_node, set()).add(arc.from_node)
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

    def usable_subgraph(self, mode_id: str) -> tuple[Arc, ...]:
        """Directed arcs usable by ``mode_id``, respecting segment direction;
        built once per mode."""
        if mode_id not in self.modes:
            raise ValidationError(f"unknown mode {mode_id}")
        arcs = self._arcs.get(mode_id)
        if arcs is None:
            built = []
            for seg_id in sorted(self.segments):
                seg = self.segments[seg_id]
                entry = seg.usage_for(mode_id)
                if entry is None:
                    continue
                if entry.direction in ("forward", "both"):
                    built.append(Arc(seg.from_node, seg.to_node, seg.segment_id,
                                     entry.free_flow_time, seg.length))
                if entry.direction in ("backward", "both"):
                    built.append(Arc(seg.to_node, seg.from_node, seg.segment_id,
                                     entry.free_flow_time, seg.length))
            arcs = self._arcs[mode_id] = tuple(built)
        return arcs

    def out_arcs(self, mode_id: str) -> dict[str, tuple[Arc, ...]]:
        """The ``usable_subgraph`` arcs grouped by from-node, built once per mode."""
        if mode_id not in self._out_arcs:
            self._out_arcs[mode_id] = group_by_from_node(self.usable_subgraph(mode_id))
        return self._out_arcs[mode_id]

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


def group_by_from_node(arcs: Iterable[Arc]) -> dict[str, tuple[Arc, ...]]:
    """Arcs by from-node, each node's arcs in their input order."""
    grouped: dict[str, list[Arc]] = {}
    for arc in arcs:
        grouped.setdefault(arc.from_node, []).append(arc)
    return {node: tuple(out) for node, out in grouped.items()}


# -- construction from plain data -------------------------------------------


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ValidationError(f"{context}: missing field {key!r}")
    return mapping[key]


def build_network(spec: Mapping) -> MultiLayerNetwork:
    """Build and validate a network from a scenario ``network`` section.

    Raises :class:`ValidationError` naming the offending identifier when the
    description is inconsistent (dangling nodes, duplicate ids, usage outside
    the matrix, empty usage lists, ...).
    """
    modes = []
    seen_modes: set[str] = set()
    for raw in _require(spec, "modes", "network"):
        mode_id = _require(raw, "mode_id", "mode")
        if mode_id in seen_modes:
            raise ValidationError(f"duplicate mode identifier {mode_id}")
        seen_modes.add(mode_id)
        modes.append(ModeSpec(
            mode_id=mode_id,
            category=_require(raw, "category", f"mode {mode_id}"),
            agile=bool(raw.get("agile", raw.get("category") in AGILE_CATEGORIES)),
            maas_member=bool(raw.get("maas_member", False)),
        ))
    networks: set[str] = set()
    for raw in _require(spec, "networks", "network"):
        network_id = _require(raw, "network_id", "network entry")
        if network_id in networks:
            raise ValidationError(f"duplicate network identifier {network_id}")
        networks.add(network_id)
    usage_matrix = [tuple(pair) for pair in _require(spec, "usage_matrix", "network")]
    nodes = list(_require(spec, "nodes", "network"))
    if len(nodes) != len(set(nodes)):
        dupes = sorted({n for n in nodes if nodes.count(n) > 1})
        raise ValidationError(f"duplicate node identifier {dupes[0]}")
    segments = []
    seen_segs: set[str] = set()
    for raw in _require(spec, "segments", "network"):
        seg_id = _require(raw, "segment_id", "segment")
        if seg_id in seen_segs:
            raise ValidationError(f"duplicate segment identifier {seg_id}")
        seen_segs.add(seg_id)
        where = f"segment {seg_id}"
        usage = tuple(
            UsageEntry(
                mode_id=_require(u, "mode_id", f"{where} usage"),
                direction=u.get("direction", "both"),
                base_capacity=as_float(u.get("base_capacity", 1000.0), where,
                                       "usage base_capacity"),
                free_flow_time=as_float(u.get("free_flow_time", 60.0), where,
                                        "usage free_flow_time"),
                reserved=bool(u.get("reserved", False)),
            )
            for u in _require(raw, "usage", where)
        )
        segments.append(Segment(
            segment_id=seg_id,
            network_id=_require(raw, "network_id", where),
            from_node=_require(raw, "from_node", where),
            to_node=_require(raw, "to_node", where),
            length=as_float(_require(raw, "length", where), where, "length"),
            usage=usage,
            seg_class=raw.get("class", "minor"),
            shared_group=raw.get("shared_group"),
        ))
    multimodal_nodes = []
    default_transfer = as_float(spec.get("transfer_time_default", 120.0), "network",
                                "transfer_time_default")
    if not default_transfer >= 0:
        raise ValidationError("network: transfer_time_default must be >= 0")
    for raw in spec.get("multimodal_nodes", []):
        node_id = _require(raw, "node_id", "multimodal node")
        where = f"node {node_id}"
        attachments = frozenset(tuple(a) for a in _require(raw, "attachments", where))
        attached_modes = sorted({m for m, _ in attachments})
        transfer: dict[tuple[str, str], float] = {}
        raw_transfer = raw.get("transfer_time", {})
        for a in attached_modes:
            for b in attached_modes:
                if a == b:
                    continue
                transfer[(a, b)] = as_float(raw_transfer.get(f"{a},{b}", default_transfer),
                                            where, "transfer_time")
        multimodal_nodes.append(MultimodalNode(
            node_id=node_id,
            attachments=attachments,
            transfer_time=transfer,
            services=frozenset(raw.get("services", [])),
        ))
    return MultiLayerNetwork(
        modes=modes,
        networks=networks,
        usage_matrix=usage_matrix,
        nodes=nodes,
        segments=segments,
        multimodal_nodes=multimodal_nodes,
    )


def node_distances(
    net: MultiLayerNetwork,
    sources: Union[Iterable[str], Mapping[str, float]],
) -> dict[str, float]:
    """Shortest along-segment distance (meters) from a source set to all nodes.

    Distances are over the undirected union of all segments regardless of
    mode, matching how warning areas are scoped.  ``sources`` may carry
    initial distances (for positions in a segment's interior).
    """
    if isinstance(sources, Mapping):
        initial = dict(sources)
    else:
        initial = {s: 0.0 for s in sources}
    return _dijkstra(net.undirected_adjacency(), initial)


def _dijkstra(adj: Mapping[str, Iterable[tuple[str, float]]],
              initial: Mapping[str, float]) -> dict[str, float]:
    """Least distance from the ``initial`` nodes, at their initial
    distances, to every node reachable over the weighted ``adj``."""
    dist: dict[str, float] = {}
    heap: list[tuple[float, str]] = []
    for s in sorted(initial):
        dist[s] = initial[s]
        heapq.heappush(heap, (initial[s], s))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        for nxt, w in adj[node]:
            nd = d + w
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist
