"""The independent checker: the paper's worked examples and the faults it must catch."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.checker import (
    CheckError,
    Pricing,
    TreeCopy,
    check_frontier,
    compare_pairs,
    tree_data,
)
from repro.batch import random_batch, solve_batch
from repro.core.costs import ModalCostModel
from repro.dynamics import AddClient, MigrateSubtree, RemoveClient, SetRequests, apply_deltas
from repro.experiments.worked_examples import figure1_example, figure2_example
from repro.power import ModeSet, PowerModel, power_frontier_counts
from repro.tree import paper_tree

TWO_MODES = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)


def _figure1_pricing(ex):
    # Figure 1 is a MinCost example: one mode of capacity W = 10, and
    # Equation 2's create/delete prices 0.1 / 0.01 as a one-mode Equation 4.
    power = PowerModel(ModeSet((ex.capacity,)), static_power=0.0, alpha=1.0)
    cost = ModalCostModel.uniform(1, create=0.1, delete=0.01)
    return Pricing.of(power, cost, {v: 0 for v in ex.preexisting})


class TestWorkedExamples:
    def test_figure1_two_root_requests_keeps_b(self):
        ex = figure1_example(2)
        parents, clients = tree_data(ex.tree)
        cost, _ = _figure1_pricing(ex).price(parents, clients, {ex.root: 0, ex.node_b: 0})
        assert cost == pytest.approx(2.1)

    def test_figure1_four_root_requests_deletes_b(self):
        ex = figure1_example(4)
        parents, clients = tree_data(ex.tree)
        pricing = _figure1_pricing(ex)
        cost, _ = pricing.price(parents, clients, {ex.root: 0, ex.node_c: 0})
        assert cost == pytest.approx(2 + 2 * 0.1 + 0.01)
        with pytest.raises(CheckError, match="exceeds"):  # the root would serve 7 + 4
            pricing.price(parents, clients, {ex.root: 0, ex.node_b: 0})

    def test_figure1_unserved_requests_are_rejected(self):
        ex = figure1_example(2)
        parents, clients = tree_data(ex.tree)
        with pytest.raises(CheckError, match="unserved"):
            _figure1_pricing(ex).price(parents, clients, {ex.node_b: 0})

    @pytest.mark.parametrize(
        ("root_requests", "placement", "power"),
        [(4, "C0 r0", 118.0), (10, "A1 r1", 220.0)],
    )
    def test_figure2_power(self, root_requests, placement, power):
        ex = figure2_example(root_requests)
        nodes = {"r": ex.root, "A": ex.node_a, "C": ex.node_c}
        modes = {nodes[tok[0]]: int(tok[1]) for tok in placement.split()}
        parents, clients = tree_data(ex.tree)
        pricing = Pricing.of(ex.power_model, ex.cost_model, {})
        cost, got = pricing.price(parents, clients, modes)
        assert got == pytest.approx(power)
        assert cost == pytest.approx(2.0)  # Equation 4's R term alone: all prices are 0

    def test_figure2_wrong_mode_is_rejected(self):
        ex = figure2_example(4)
        parents, clients = tree_data(ex.tree)
        pricing = Pricing.of(ex.power_model, ex.cost_model, {})
        with pytest.raises(CheckError, match="smallest covering mode"):
            pricing.price(parents, clients, {ex.node_c: 1, ex.root: 0})


@pytest.fixture(scope="module")
def solved():
    instance = random_batch(1, n_nodes=30, power_model=TWO_MODES, rng=np.random.default_rng(7))[0]
    frontier = solve_batch([instance], solver="power_frontier")[0]
    pricing = Pricing.of(TWO_MODES, instance.effective_modal_cost(), instance.pre_modes())
    parents, clients = tree_data(instance.tree)
    oracle = power_frontier_counts(
        instance.tree, TWO_MODES, instance.effective_modal_cost(), instance.pre_modes()
    )
    return pricing, parents, clients, frontier.to_records(), oracle


class TestFrontierChecks:
    def test_program_frontier_passes(self, solved):
        pricing, parents, clients, records, oracle = solved
        assert len(records) >= 3
        compare_pairs(check_frontier(pricing, parents, clients, records), oracle)

    def test_perturbed_cost_is_rejected(self, solved):
        pricing, parents, clients, records, _ = solved
        bad = [dict(r) for r in records]
        bad[1]["cost"] += 1e-3
        with pytest.raises(CheckError, match="re-priced"):
            check_frontier(pricing, parents, clients, bad)

    def test_dropped_point_is_rejected(self, solved):
        pricing, parents, clients, records, oracle = solved
        kept = records[:1] + records[2:]
        with pytest.raises(CheckError, match="points"):
            compare_pairs(check_frontier(pricing, parents, clients, kept), oracle)

    def test_wrong_mode_is_rejected(self, solved):
        pricing, parents, clients, records, _ = solved
        bad = [dict(r) for r in records]
        bad[0]["modes"] = [[v, 1 - m] if i == 0 else [v, m] for i, (v, m) in enumerate(bad[0]["modes"])]
        with pytest.raises(CheckError):
            check_frontier(pricing, parents, clients, bad)

    def test_out_of_order_frontier_is_rejected(self, solved):
        pricing, parents, clients, records, _ = solved
        with pytest.raises(CheckError, match="Pareto order"):
            check_frontier(pricing, parents, clients, records[::-1])


def test_tree_copy_follows_the_program_delta_rules():
    tree = paper_tree(40, rng=3)
    copy = TreeCopy(*tree_data(tree))
    deltas = [AddClient(5, 2), SetRequests(0, 3), RemoveClient(1), MigrateSubtree(7, 2)]
    copy.add(5, 2)
    copy.set(0, 3)
    copy.remove(1)
    copy.migrate(7, 2)
    new_tree, _ = apply_deltas(tree, deltas)
    assert copy.matches(new_tree)
    assert not copy.matches(tree)
