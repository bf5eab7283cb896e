"""Containment steady states for two static leaders.

Followers evolve on a connected graph while two leaders hold fixed states
y0 < y1; the link indicator vectors b and d say which followers each leader
is attached to. The limit state is the convex combination
alpha * y0 + beta * y1, computed here with exact rational weights so the
payoff identities hold with no tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactmat import bareiss, plus_diag
from .graphs import Graph, is_connected, laplacian


@dataclass(frozen=True)
class LeaderLinks:
    """0/1 attachment indicators: b toward leader 0, d toward leader 1."""

    b: tuple
    d: tuple

    def __post_init__(self):
        for name, vec in (("b", self.b), ("d", self.d)):
            if any(x not in (0, 1) for x in vec):
                raise ValueError(f"{name} entries must be 0 or 1")
        if len(self.b) != len(self.d):
            raise ValueError("b and d must have equal length")

    @classmethod
    def from_vertices(cls, n: int, b_vertices: Iterable, d_vertices: Iterable) -> "LeaderLinks":
        b = [0] * n
        d = [0] * n
        for name, vec, verts in (("b", b, b_vertices), ("d", d, d_vertices)):
            for v in verts:
                if not 1 <= v <= n:
                    raise ValueError(f"{name} vertex {v} out of range 1..{n}")
                vec[v - 1] = 1
        return cls(b=tuple(b), d=tuple(d))

    def b_vertices(self) -> list:
        return [i + 1 for i, x in enumerate(self.b) if x]

    def d_vertices(self) -> list:
        return [i + 1 for i, x in enumerate(self.d) if x]


@dataclass(frozen=True)
class LeaderStates:
    """Static leader states with y0 < y1, held as exact rationals."""

    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "y0", Fraction(self.y0))
        object.__setattr__(self, "y1", Fraction(self.y1))
        if self.y0 >= self.y1:
            raise ValueError("leader states must satisfy y0 < y1")

    @property
    def span(self) -> Fraction:
        return self.y1 - self.y0


@dataclass(frozen=True)
class ConvexWeights:
    """Per-follower weights with alpha + beta == 1 entrywise, all positive."""

    alpha: tuple
    beta: tuple


def grounded(g: Graph, links: LeaderLinks) -> list:
    """State matrix of the follower flow: L + diag(b + d).

    b and d may overlap; a follower linked to both leaders contributes 2 to
    its diagonal entry.
    """
    if len(links.b) != g.n:
        raise ValueError("link vectors do not match the vertex count")
    return plus_diag(laplacian(g), [bi + di for bi, di in zip(links.b, links.d)])


def _check_steady_inputs(g: Graph, links: LeaderLinks) -> None:
    if len(links.b) != g.n:
        raise ValueError("link vectors do not match the vertex count")
    if not is_connected(g):
        raise ValueError("graph not connected")
    if not any(links.b):
        raise ValueError("leader 0 has no links (b is all zeros)")
    if not any(links.d):
        raise ValueError("leader 1 has no links (d is all zeros)")


def convex_weights(g: Graph, links: LeaderLinks) -> ConvexWeights:
    """Exact weights alpha = M^-1 b and beta = M^-1 d for M = L + diag(b+d),
    both from one elimination of [M | b d]."""
    _check_steady_inputs(g, links)
    det, x = bareiss(grounded(g, links), list(zip(links.b, links.d)))
    alpha = tuple(Fraction(a, det) for a, _ in x)
    beta = tuple(Fraction(b, det) for _, b in x)
    return ConvexWeights(alpha=alpha, beta=beta)


def steady_state(g: Graph, links: LeaderLinks, ys: LeaderStates) -> tuple:
    """Limit of the follower states: alpha * y0 + beta * y1 entrywise."""
    w = convex_weights(g, links)
    return tuple(a * ys.y0 + b * ys.y1 for a, b in zip(w.alpha, w.beta))


def payoffs(g: Graph, links: LeaderLinks, ys: LeaderStates) -> tuple:
    """Average-distance payoffs (U0, U1); U0 + U1 == y1 - y0 exactly."""
    w = convex_weights(g, links)
    u0 = ys.span * sum(w.beta, start=Fraction(0)) / g.n
    u1 = ys.span * sum(w.alpha, start=Fraction(0)) / g.n
    return u0, u1
