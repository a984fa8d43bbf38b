"""Generators for the graph families the verification suite works on.

Besides plain matchings lK2 and the Petersen graph, this module builds the
bipartite "prescribed gap" family: for parameters (r, theta, gamma) it
produces a connected bipartite graph whose matching Kneser chromatic number
is exactly theta while theta + gamma edge deletions are needed to destroy
all r-matchings. With gamma = r - 2 the construction degenerates to a tree
of radius 2.
"""

from __future__ import annotations

from math import comb, perm

from .errors import ParameterError, Record, VerificationError
from .graphs import Edge, LabeledGraph, is_tree, make_graph, radius


class FamilyParams(Record):
    """Parameters (r, theta, gamma) of the prescribed-gap construction.

    Derived quantities: ``t = (r - 1) - gamma`` counts the hub vertices,
    ``l = theta + 2 * gamma`` the matched pairs, and ``w_count`` the padding
    vertices attached to the hubs. Valid ranges: r >= 3, theta >= 1,
    1 <= gamma <= r - 2 (equivalently 1 <= t <= r - 2).
    """

    r: int
    theta: int
    gamma: int

    def __init__(self, r: int, theta: int, gamma: int) -> None:
        super().__init__(r, theta, gamma)
        if self.r < 3:
            raise ParameterError(f"need r >= 3, got r={self.r}")
        if self.theta < 1:
            raise ParameterError(f"need theta >= 1, got theta={self.theta}")
        if self.gamma < 1:
            raise ParameterError(f"need gamma >= 1, got gamma={self.gamma}")
        if self.gamma > self.r - 2:
            raise ParameterError(f"need gamma <= r - 2, got gamma={self.gamma}, r={self.r}")

    @property
    def t(self) -> int:
        return (self.r - 1) - self.gamma

    @property
    def l(self) -> int:
        return self.theta + 2 * self.gamma

    @property
    def w_count(self) -> int:
        return self.t * comb(self.l, self.r - self.t) + self.l

    @property
    def n_vertices(self) -> int:
        return 2 * self.l + self.t + self.w_count

    @property
    def n_matchings(self) -> int:
        """The number of r-matchings of ``gap_graph(self)``, by a closed form.

        Every edge is a pair edge x_i y_i or meets one of the t hubs. A
        matching with h hub edges picks the h hubs, its r - h pair edges, and
        then, in order, distinct partners for the hubs among the x and w
        vertices its pair edges leave free.
        """

        return sum(
            comb(self.t, h) * comb(self.l, self.r - h) * perm(self.l - (self.r - h) + self.w_count, h)
            for h in range(max(0, self.r - self.l), self.t + 1)
        )

    # Vertex numbering is fixed as x-block, w-block, y-block, z-block so that
    # certificates and file outputs are byte-for-byte reproducible. The index
    # arguments below are 1-based construction labels.

    def x_vertex(self, i: int) -> int:
        return i - 1

    def w_vertex(self, k: int) -> int:
        return self.l + (k - 1)

    def y_vertex(self, i: int) -> int:
        return self.l + self.w_count + (i - 1)

    def z_vertex(self, j: int) -> int:
        return 2 * self.l + self.w_count + (j - 1)

    def x_edge(self, i: int) -> Edge:
        return (self.x_vertex(i), self.y_vertex(i))


def matching_graph(l: int) -> LabeledGraph:
    """The graph lK2: 2l vertices and l independent edges (2i, 2i+1)."""

    if l < 1:
        raise ParameterError("need l >= 1")
    return make_graph(2 * l, [(2 * i, 2 * i + 1) for i in range(l)])


def gap_graph(params: FamilyParams) -> LabeledGraph:
    """The prescribed-gap graph for ``params``, with role labels on every vertex.

    One side holds the x-block and the w-block, the other the y-block and the
    t hub vertices z_j; the edges are the perfect pairing x_i y_i plus every
    edge between a hub and the x/w side. Connected and bipartite for all
    valid parameters.
    """

    p = params
    roles = (
        [f"x{i}" for i in range(1, p.l + 1)]
        + [f"w{k}" for k in range(1, p.w_count + 1)]
        + [f"y{i}" for i in range(1, p.l + 1)]
        + [f"z{j}" for j in range(1, p.t + 1)]
    )
    edges: list[Edge] = [p.x_edge(i) for i in range(1, p.l + 1)]
    for j in range(1, p.t + 1):
        z = p.z_vertex(j)
        edges.extend((v, z) for v in range(p.l + p.w_count))
    return make_graph(p.n_vertices, edges, roles=roles)


def gap_tree(r: int, theta: int) -> LabeledGraph:
    """The gamma = r - 2 instance of the family: a tree of radius 2.

    The tree shape is a checked postcondition, not an assumption.
    """

    G = gap_graph(FamilyParams(r=r, theta=theta, gamma=r - 2))
    if not is_tree(G) or radius(G) != 2:
        raise VerificationError("gap_tree construction is not a radius-2 tree; construction bug")
    return G


def petersen() -> LabeledGraph:
    """The Petersen graph in its standard presentation.

    Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5. 10 vertices,
    15 edges, 3-regular.
    """

    edges: list[tuple[int, int]] = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
        edges.append((i, i + 5))
    return make_graph(10, edges)
