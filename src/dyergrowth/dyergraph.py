"""Dyer graph data model.

A Dyer graph is a finite labeled graph: every vertex carries an order in
{2, 3, ...} or infinity, every edge a label in {2, 3, ...}, and any edge with
label other than 2 must join two order-2 vertices.  The graph determines a
group generated by its vertices; induced subgraphs correspond to the standard
parabolic subgroups.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

#: Vertex order of an infinite cyclic generator.  Kept as a distinguished
#: non-integer value rather than a large integer.
INFINITY = math.inf


class GraphValidationError(ValueError):
    """Invalid graph description; ``violations`` lists every problem found."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _is_valid_order(order) -> bool:
    if order == INFINITY:
        return True
    return isinstance(order, int) and not isinstance(order, bool) and order >= 2


class DyerGraph:
    """Validated Dyer graph with a fixed vertex order.

    The declaration order of the vertices is kept and used for subset
    bitmasks and for deterministic tie-breaking in every algorithm downstream.
    Instances are immutable once constructed; equality is identity.  Each
    instance memoizes the finite Coxeter types of its order-2 vertex subsets
    (``finite_types``), so a subset is classified once however many routes
    ask about it.
    """

    __slots__ = ("vertices", "_orders", "_index", "_labels", "_adj", "_partition", "_types")

    def __init__(self, orders, edges=()):
        """Build and validate a graph.

        orders: mapping vertex name -> order (int >= 2 or INFINITY), or an
            iterable of (name, order) pairs; iteration order fixes the vertex
            order.
        edges: mapping (a, b) -> label, or an iterable of ((a, b), label).
        """
        order_items = list(orders.items()) if isinstance(orders, Mapping) else list(orders)
        edge_items = list(edges.items()) if isinstance(edges, Mapping) else list(edges)

        violations = []
        names: list[str] = []
        seen = set()
        for name, order in order_items:
            if not isinstance(name, str) or not name:
                violations.append(f"vertex name must be a nonempty string: {name!r}")
                continue
            if name in seen:
                violations.append(f"duplicate vertex {name!r}")
                continue
            seen.add(name)
            names.append(name)
            if not _is_valid_order(order):
                violations.append(f"vertex {name!r} has invalid order {order!r} (need an integer >= 2 or INFINITY)")

        index = {name: i for i, name in enumerate(names)}
        orders_by_name = dict(order_items)
        labels: dict[frozenset, int] = {}
        for ends, label in edge_items:
            try:
                a, b = ends
            except (TypeError, ValueError):
                violations.append(f"edge endpoints must be a pair: {ends!r}")
                continue
            missing = [v for v in (a, b) if v not in index]
            if missing:
                violations.extend(f"edge {a!r}-{b!r} uses unknown vertex {v!r}" for v in missing)
                continue
            if a == b:
                violations.append(f"self-loop at vertex {a!r}")
                continue
            key = frozenset((a, b))
            if key in labels:
                violations.append(f"duplicate edge {a!r}-{b!r}")
                continue
            if not isinstance(label, int) or isinstance(label, bool) or label < 2:
                violations.append(f"edge {a!r}-{b!r} has invalid label {label!r} (need an integer >= 2)")
                continue
            labels[key] = label
            if label != 2 and (orders_by_name.get(a) != 2 or orders_by_name.get(b) != 2):
                violations.append(
                    f"edge {a!r}-{b!r} has label {label} but its endpoints do not both have order 2"
                )
        if violations:
            raise GraphValidationError(violations)

        adj = [0] * len(names)
        int_labels = {}
        for key, label in labels.items():
            a, b = sorted(key, key=index.__getitem__)
            i, j = index[a], index[b]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            int_labels[(i, j)] = label

        vertex_orders = tuple(orders_by_name[n] for n in names)
        m2 = mp = mi = 0
        for i, order in enumerate(vertex_orders):
            if order == 2:
                m2 |= 1 << i
            elif order == INFINITY:
                mi |= 1 << i
            else:
                mp |= 1 << i

        object.__setattr__(self, "vertices", tuple(names))
        object.__setattr__(self, "_orders", vertex_orders)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_labels", int_labels)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_partition", (m2, mp, mi))
        object.__setattr__(self, "_types", {})

    def __setattr__(self, name, value):
        raise AttributeError("DyerGraph is immutable")

    def __delattr__(self, name):
        raise AttributeError("DyerGraph is immutable")

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def order(self, name: str):
        return self._orders[self.index(name)]

    def order_at(self, i: int):
        return self._orders[i]

    def edge_label(self, a: str, b: str):
        """Label of the edge a-b, or None when the vertices are not adjacent."""
        i, j = self.index(a), self.index(b)
        return self.label_at(i, j)

    def label_at(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self._labels.get((i, j))

    def adjacency_mask(self, i: int) -> int:
        return self._adj[i]

    def edges(self) -> list[tuple[tuple[str, str], int]]:
        out = []
        for (i, j), label in sorted(self._labels.items()):
            out.append(((self.vertices[i], self.vertices[j]), label))
        return out

    @property
    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    # -- subsets -----------------------------------------------------------

    def subset(self, names: Iterable[str] = ()) -> "VertexSubset":
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return VertexSubset(self, mask)

    def subset_from_mask(self, mask: int) -> "VertexSubset":
        if mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#x} has bits outside the vertex set")
        return VertexSubset(self, mask)

    def full_subset(self) -> "VertexSubset":
        return VertexSubset(self, self.full_mask)

    def empty_subset(self) -> "VertexSubset":
        return VertexSubset(self, 0)

    def link(self, name: str) -> "VertexSubset":
        """Vertices adjacent to the given one."""
        return VertexSubset(self, self._adj[self.index(name)])

    def star(self, name: str) -> "VertexSubset":
        """The link together with the vertex itself."""
        i = self.index(name)
        return VertexSubset(self, self._adj[i] | (1 << i))

    def link_star(self, name: str) -> tuple["VertexSubset", "VertexSubset"]:
        return self.link(name), self.star(name)

    def v2_subset(self) -> "VertexSubset":
        return VertexSubset(self, self._partition_masks()[0])

    def vp_subset(self) -> "VertexSubset":
        return VertexSubset(self, self._partition_masks()[1])

    def _partition_masks(self) -> tuple[int, int, int]:
        """Masks of the order-2, finite order > 2 and infinite-order vertices."""
        return self._partition

    # -- derived graphs and classification ----------------------------------

    def induced(self, subset) -> "DyerGraph":
        """Full subgraph spanned by a subset, keeping the ambient vertex order."""
        mask = self._coerce_mask(subset)
        names = [self.vertices[i] for i in _bit_indices(mask)]
        orders = [(n, self._orders[self._index[n]]) for n in names]
        edges = []
        for (i, j), label in self._labels.items():
            if (mask >> i) & 1 and (mask >> j) & 1:
                edges.append(((self.vertices[i], self.vertices[j]), label))
        return DyerGraph(orders, edges)

    def _coerce_mask(self, subset) -> int:
        if isinstance(subset, VertexSubset):
            if subset.graph is not self:
                raise ValueError("subset belongs to a different graph")
            return subset.mask
        if isinstance(subset, int):
            return self.subset_from_mask(subset).mask
        return self.subset(subset).mask

    def is_complete_mask(self, mask: int) -> bool:
        for i in _bit_indices(mask):
            if (self._adj[i] & mask) != mask & ~(1 << i):
                return False
        return True

    @property
    def is_complete(self) -> bool:
        return self.is_complete_mask(self.full_mask)

    def finite_types(self, v2mask: int):
        """Finite Coxeter types of the order-2 vertices in ``v2mask``, or None
        when they generate an infinite Coxeter group; memoized by mask."""
        memo = self._types
        if v2mask not in memo:
            from . import coxclassify  # deferred; coxclassify builds on this module

            memo[v2mask] = coxclassify.classify_finite(coxclassify.to_diagram(self.induced(v2mask)))
        return memo[v2mask]

    def classify(self) -> "StructureReport":
        """Structural report: completeness, spherical type, finiteness."""
        m2, mp, mi = self._partition
        complete = self.is_complete
        types = self.finite_types(m2)
        spherical = complete and types is not None
        finite = spherical and mi == 0
        return StructureReport(
            is_complete=complete,
            is_spherical=spherical,
            is_finite_group=finite,
            v2_size=m2.bit_count(),
            vp_size=mp.bit_count(),
            vinf_size=mi.bit_count(),
            coxeter_components=None if types is None else tuple(t.name for t in types),
        )

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data) -> "DyerGraph":
        """Parse the documented JSON object form and validate."""
        violations = []
        if not isinstance(data, dict):
            raise GraphValidationError([f"graph description must be a JSON object, got {type(data).__name__}"])
        vertices = data.get("vertices")
        edges = data.get("edges")
        if not isinstance(vertices, list):
            violations.append('missing or invalid "vertices" list')
            vertices = []
        if not isinstance(edges, list):
            violations.append('missing or invalid "edges" list')
            edges = []
        order_items = []
        for entry in vertices:
            if not isinstance(entry, dict) or "name" not in entry or "order" not in entry:
                violations.append(f'vertex entries need "name" and "order": {entry!r}')
                continue
            order = entry["order"]
            if order == "inf":
                order = INFINITY
            order_items.append((entry["name"], order))
        edge_items = []
        for entry in edges:
            if not isinstance(entry, dict) or "ends" not in entry or "label" not in entry:
                violations.append(f'edge entries need "ends" and "label": {entry!r}')
                continue
            ends = entry["ends"]
            if not isinstance(ends, list) or len(ends) != 2:
                violations.append(f'edge "ends" must list exactly two vertices: {entry!r}')
                continue
            edge_items.append((tuple(ends), entry["label"]))
        if violations:
            raise GraphValidationError(violations)
        return cls(order_items, edge_items)

    @classmethod
    def from_file(cls, path) -> "DyerGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"name": n, "order": "inf" if o == INFINITY else o}
                for n, o in zip(self.vertices, self._orders)
            ],
            "edges": [{"ends": [a, b], "label": label} for (a, b), label in self.edges()],
        }

    def __repr__(self):
        parts = []
        for n, o in zip(self.vertices, self._orders):
            parts.append(f"{n}:{'inf' if o == INFINITY else o}")
        return f"DyerGraph({', '.join(parts)}; {len(self._labels)} edges)"


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSubset:
    """Bitmask over a graph's vertex order, bound to that graph's identity."""

    graph: DyerGraph
    mask: int

    def __post_init__(self):
        if self.mask & ~self.graph.full_mask:
            raise ValueError("subset mask has bits outside the vertex set")

    def _check_host(self, other: "VertexSubset"):
        if self.graph is not other.graph:
            raise ValueError("subsets belong to different graphs")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.graph.vertices[i] for i in _bit_indices(self.mask))

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.graph.index(name) & 1)

    def __or__(self, other: "VertexSubset") -> "VertexSubset":
        self._check_host(other)
        return VertexSubset(self.graph, self.mask | other.mask)

    def __and__(self, other: "VertexSubset") -> "VertexSubset":
        self._check_host(other)
        return VertexSubset(self.graph, self.mask & other.mask)

    def __sub__(self, other: "VertexSubset") -> "VertexSubset":
        self._check_host(other)
        return VertexSubset(self.graph, self.mask & ~other.mask)

    def complement(self) -> "VertexSubset":
        return VertexSubset(self.graph, self.graph.full_mask & ~self.mask)

    def __repr__(self):
        return f"VertexSubset({{{', '.join(self.names)}}})"


@dataclass(frozen=True)
class StructureReport:
    """Shape summary of a Dyer graph and the group it presents."""

    is_complete: bool
    is_spherical: bool
    is_finite_group: bool
    v2_size: int
    vp_size: int
    vinf_size: int
    #: Canonical names of the finite components of the order-2 diagram, or
    #: None when that diagram presents an infinite Coxeter group.
    coxeter_components: tuple[str, ...] | None
