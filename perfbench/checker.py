"""Output checker written independently of the program under test.

Everything here re-derives the paper's quantities from plain data: the
parent vector, the clients, the mode capacities and the price tables.
No solver, pricing or load code of ``repro`` is called, so a fault in
the program's own verification cannot hide a wrong answer here.

* :func:`closest_loads` — the Closest policy (§2.1): every client is
  served by the first server on its path to the root, so a server
  absorbs every request of its subtree that no lower server took.
* :meth:`Pricing.price` — a placement's modes must be the smallest mode
  covering each server's load (§2.2); power is Equation 3 and cost is
  Equation 4 against the pre-existing servers and their old modes.
* :func:`check_frontier` — every point re-priced, every request served,
  and the points in strict Pareto order (cost up, power down).
* :func:`compare_pairs` — two ``(cost, power)`` series must agree point
  for point; this is what catches a dropped frontier point.
* :class:`TreeCopy` — the benchmark's own copy of a live session's
  tree, advanced by its own delta rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Re-pricing tolerance: the program prices in the same float64 space.
PRICE_TOL = 1e-6


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


@dataclass(frozen=True)
class Pricing:
    """Plain-data pricing of one instance (Equations 3 and 4)."""

    capacities: tuple[int, ...]
    static_power: float
    alpha: float
    capacity_scale: float
    create: tuple[float, ...]
    delete: tuple[float, ...]
    changed: tuple[tuple[float, ...], ...]
    pre_modes: dict[int, int]

    @classmethod
    def of(cls, power_model: Any, cost_model: Any, pre_modes: dict[int, int]) -> Pricing:
        """Copy the numbers out of the program's model objects."""
        return cls(
            capacities=tuple(int(c) for c in power_model.modes.capacities),
            static_power=float(power_model.static_power),
            alpha=float(power_model.alpha),
            capacity_scale=float(power_model.capacity_scale),
            create=tuple(float(c) for c in cost_model.create),
            delete=tuple(float(d) for d in cost_model.delete),
            changed=tuple(tuple(float(c) for c in row) for row in cost_model.changed),
            pre_modes={int(v): int(m) for v, m in pre_modes.items()},
        )

    def mode_power(self, mode: int) -> float:
        return self.static_power + (self.capacities[mode] / self.capacity_scale) ** self.alpha

    def covering_mode(self, load: int) -> int:
        """Smallest mode whose capacity covers ``load`` (idle -> mode 0)."""
        for mode, cap in enumerate(self.capacities):
            if load <= cap:
                return mode
        raise CheckError(f"load {load} exceeds the largest capacity {self.capacities[-1]}")

    def price(
        self, parents: list[int | None], clients: list[tuple[int, int]], modes: dict[int, int]
    ) -> tuple[float, float]:
        """Re-price a ``{server: mode}`` placement; raises on any violation."""
        loads, unserved = closest_loads(parents, clients, modes)
        if unserved:
            raise CheckError(f"{unserved} requests reach the root unserved")
        power = 0.0
        cost = 0.0
        for server, mode in modes.items():
            expected = self.covering_mode(loads[server])
            if mode != expected:
                raise CheckError(
                    f"server {server} with load {loads[server]} runs mode {mode}, "
                    f"the smallest covering mode is {expected}"
                )
            power += self.mode_power(mode)
            cost += 1.0
            old = self.pre_modes.get(server)
            cost += self.create[mode] if old is None else self.changed[old][mode]
        for server, old in self.pre_modes.items():
            if server not in modes:
                cost += self.delete[old]
        return cost, power


def closest_loads(
    parents: list[int | None], clients: list[tuple[int, int]], servers: Any
) -> tuple[dict[int, int], int]:
    """Per-server load under the Closest policy, and the unserved rest."""
    n = len(parents)
    flow = [0] * n
    for node, requests in clients:
        flow[node] += requests
    children: list[list[int]] = [[] for _ in range(n)]
    root = -1
    for v, p in enumerate(parents):
        if p is None:
            root = v
        else:
            children[p].append(v)
    order = [root]
    for v in order:  # breadth-first; reversed, children come before parents
        order.extend(children[v])
    if len(order) != n:
        raise CheckError("parent vector is not a single rooted tree")
    server_set = set(servers)
    loads: dict[int, int] = {}
    for v in reversed(order):
        if v in server_set:
            loads[v] = flow[v]
            flow[v] = 0
        p = parents[v]
        if p is not None:
            flow[p] += flow[v]
    return loads, flow[root]


def tree_data(tree: Any) -> tuple[list[int | None], list[tuple[int, int]]]:
    """The parent vector and ``(node, requests)`` clients of a tree."""
    return list(tree.parents), [(c.node, c.requests) for c in tree.clients]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= PRICE_TOL * max(1.0, abs(a), abs(b))


def check_point(
    pricing: Pricing,
    parents: list[int | None],
    clients: list[tuple[int, int]],
    cost: float,
    power: float,
    modes: Any,
) -> None:
    """Re-price one returned point (``modes`` as ``[[node, mode], ...]``)."""
    placement = {int(v): int(m) for v, m in modes}
    if len(placement) != len(modes):
        raise CheckError("a point lists one server twice")
    got_cost, got_power = pricing.price(parents, clients, placement)
    if not close(got_cost, cost):
        raise CheckError(f"point reports cost {cost}, re-priced {got_cost}")
    if not close(got_power, power):
        raise CheckError(f"point reports power {power}, re-priced {got_power}")


def check_pareto_order(pairs: list[tuple[float, float]]) -> None:
    """Strict Pareto order: cost strictly up, power strictly down."""
    if not pairs:
        raise CheckError("empty frontier")
    for (c0, p0), (c1, p1) in zip(pairs, pairs[1:]):
        if not (c1 > c0 and p1 < p0):
            raise CheckError(f"points {(c0, p0)} and {(c1, p1)} are not in strict Pareto order")


def check_frontier(
    pricing: Pricing,
    parents: list[int | None],
    clients: list[tuple[int, int]],
    records: list[dict[str, Any]],
) -> list[tuple[float, float]]:
    """Check ``[{cost, power, modes}, ...]``; returns the ``(cost, power)`` pairs."""
    for rec in records:
        check_point(pricing, parents, clients, float(rec["cost"]), float(rec["power"]), rec["modes"])
    pairs = [(float(r["cost"]), float(r["power"])) for r in records]
    check_pareto_order(pairs)
    return pairs


def compare_pairs(
    got: list[tuple[float, float]], expected: list[tuple[float, float]], *, exact: bool = False
) -> None:
    """The two frontiers must hold the same points (to ``PRICE_TOL``, or bit for bit)."""
    if len(got) != len(expected):
        raise CheckError(f"frontier has {len(got)} points, expected {len(expected)}")
    for (c0, p0), (c1, p1) in zip(got, expected):
        same = (c0 == c1 and p0 == p1) if exact else (close(c0, c1) and close(p0, p1))
        if not same:
            raise CheckError(f"point {(c0, p0)} differs from expected {(c1, p1)}")


class TreeCopy:
    """The benchmark's own copy of a session tree, advanced by its own rules.

    Mirrors the session delta grammar: ``add`` appends a client, ``remove``
    and ``set`` address clients by their index in the current list, and
    ``migrate`` re-hangs a subtree under a node outside it.
    """

    def __init__(self, parents: list[int | None], clients: list[tuple[int, int]]) -> None:
        self.parents = list(parents)
        self.clients = list(clients)

    def own_load(self, node: int) -> int:
        return sum(r for v, r in self.clients if v == node)

    def in_subtree(self, node: int, top: int) -> bool:
        v: int | None = node
        while v is not None:
            if v == top:
                return True
            v = self.parents[v]
        return False

    def add(self, node: int, requests: int) -> None:
        self.clients.append((node, requests))

    def remove(self, index: int) -> None:
        del self.clients[index]

    def set(self, index: int, requests: int) -> None:
        self.clients[index] = (self.clients[index][0], requests)

    def migrate(self, node: int, new_parent: int) -> None:
        if self.parents[node] is None or self.in_subtree(new_parent, node):
            raise CheckError(f"migrating {node} under {new_parent} is not a valid move")
        self.parents[node] = new_parent

    def matches(self, tree: Any) -> bool:
        parents, clients = tree_data(tree)
        return parents == self.parents and clients == self.clients
