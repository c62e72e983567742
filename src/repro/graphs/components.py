"""Connected components via union-find.

Small, dependency-free disjoint-set-union implementation used to compute the
connected components of the solution graph (Section 10) and the
``q``-connected components of Proposition 10.6.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, List, TypeVar

Node = TypeVar("Node", bound=Hashable)


class UnionFind(Generic[Node]):
    """Disjoint-set union with path compression and union by size."""

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._parent: Dict[Node, Node] = {}
        self._size: Dict[Node, int] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: Node) -> None:
        """Register a node as its own singleton component (idempotent)."""
        if node not in self._parent:
            self._parent[node] = node
            self._size[node] = 1

    def find(self, node: Node) -> Node:
        """Representative of the component containing ``node``."""
        if node not in self._parent:
            raise KeyError(f"unknown node {node!r}")
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, left: Node, right: Node) -> bool:
        """Merge the two components; returns False when already merged."""
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return False
        if self._size[root_left] < self._size[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        self._size[root_left] += self._size[root_right]
        return True

    def connected(self, left: Node, right: Node) -> bool:
        return self.find(left) == self.find(right)

    def components(self) -> List[List[Node]]:
        """All components as lists of nodes, in insertion order of representatives."""
        grouped: Dict[Node, List[Node]] = {}
        for node in self._parent:
            grouped.setdefault(self.find(node), []).append(node)
        return list(grouped.values())

    def __len__(self) -> int:
        return len(self._parent)


def find_root(parent: List[int], node: int) -> int:
    """Root of ``node`` in a list-based union-find forest, halving the path."""
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


def connected_components(
    nodes: Iterable[Node], edges: Iterable[tuple]
) -> List[List[Node]]:
    """Connected components of an undirected graph given as nodes and edges."""
    union_find: UnionFind[Node] = UnionFind(nodes)
    for left, right in edges:
        union_find.add(left)
        union_find.add(right)
        union_find.union(left, right)
    return union_find.components()
