import re

import pytest

from forceps import (
    ColoringState,
    Force,
    Rule,
    VertexSet,
    closure,
    distinct_forcers,
    edge_deletion_scan,
    expected_value,
    family_table,
    force_candidates,
    hitting_number,
    is_ell_leaky_forcing_set,
    is_forcing_set,
    is_leaky_psd_fort,
    leaky_number,
    minimal_forts,
    monotonicity_audit,
    one_leaky_criterion,
    possible_forces,
)
from forceps.families import FamilySpec, complete, cycle, fig3_spider, hypercube, path

from oracles import naive_possible_forces


def vs(n, *vertices):
    return VertexSet(n, vertices)


def state(n, blue=(), leaks=()):
    return ColoringState(VertexSet(n, blue), VertexSet(n, leaks))


class TestForceCandidates:
    def test_psd_splits_components(self):
        got = force_candidates(path(3), state(3, [1]), Rule.psd)
        assert got == {Force(1, 0), Force(1, 2)}

    def test_standard_needs_unique_global_neighbor(self):
        assert force_candidates(path(3), state(3, [1]), Rule.standard) == frozenset()

    def test_clique_component_blocks(self):
        assert force_candidates(complete(3), state(3, [0]), Rule.psd) == frozenset()

    def test_leak_cannot_force(self):
        assert force_candidates(path(3), state(3, [1], [1]), Rule.psd) == frozenset()


class TestClosure:
    def test_path_chain_chronology(self):
        final, chron = closure(path(5), state(5, [0]), Rule.psd)
        assert list(final) == [0, 1, 2, 3, 4]
        assert chron == ((1, Force(0, 1)), (2, Force(1, 2)), (3, Force(2, 3)), (4, Force(3, 4)))

    def test_leaked_endpoint_stalls(self):
        final, chron = closure(path(3), state(3, [0, 1], [1]), Rule.psd)
        assert list(final) == [0, 1]
        assert len(chron) == 0

    def test_leaky_clique_still_forces(self):
        final, _ = closure(complete(4), state(4, [0, 1, 2], [0, 1]), Rule.psd)
        assert len(final) == 4

    def test_simultaneous_round_dedupes_targets(self):
        # both endpoints can force the middle; the smaller source is recorded
        _, chron = closure(path(3), state(3, [0, 2]), Rule.psd)
        assert chron == ((1, Force(0, 1)),)


class TestClosureAgainstKernel:
    def test_chronology_path_matches_kernel_masks(self):
        import random

        from forceps import _core
        from corpus import random_graph

        rng = random.Random(0xC10)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            blue = rng.getrandbits(g.n)
            leaks = rng.getrandbits(g.n)
            st = ColoringState(
                VertexSet.from_mask(g.n, blue), VertexSet.from_mask(g.n, leaks)
            )
            for rule, std in ((Rule.psd, False), (Rule.standard, True)):
                final, chron = closure(g, st, rule)
                assert final.mask == _core.closure_mask(g.adj, blue, leaks, std)
                # each target exactly once, never initially blue
                targets = [f.target for _, f in chron]
                assert len(targets) == len(set(targets))
                assert final.mask == blue | sum(1 << t for t in set(targets))

    def test_recorded_forces_were_valid_when_applied(self):
        import random

        from corpus import random_graph

        rng = random.Random(0xC11)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 6), 0.5)
            blue = VertexSet.from_mask(g.n, rng.getrandbits(g.n))
            leaks = VertexSet.from_mask(g.n, rng.getrandbits(g.n))
            for rule in (Rule.psd, Rule.standard):
                _, chron = closure(g, ColoringState(blue, leaks), rule)
                current = blue
                rnd = 0
                pending: list = []
                for step_round, force in chron:
                    assert step_round >= rnd
                    if step_round > rnd:
                        for f in pending:  # previous round applied together
                            current = VertexSet.from_mask(g.n, current.mask | 1 << f.target)
                        pending = []
                        rnd = step_round
                        valid_now = force_candidates(g, ColoringState(current, leaks), rule)
                    assert force in valid_now
                    pending.append(force)


class TestIsForcingSet:
    def test_cycle_pair(self):
        assert is_forcing_set(cycle(4), state(4, [0, 1]), Rule.psd)

    def test_cycle_singleton_fails(self):
        assert not is_forcing_set(cycle(4), state(4, [0]), Rule.psd)

    def test_spider_center(self):
        assert is_forcing_set(fig3_spider(), state(7, [3]), Rule.psd)


class TestLeakRobustness:
    def test_path_endpoints_survive_one_leak(self):
        verdict = is_ell_leaky_forcing_set(path(4), vs(4, 0, 3), 1)
        assert verdict.ok and verdict

    def test_first_failing_placement_is_reported(self):
        verdict = is_ell_leaky_forcing_set(path(3), vs(3, 0, 1), 1)
        assert not verdict.ok and not verdict
        assert list(verdict.witness_leaks) == [1]

    def test_spider_leaves(self):
        assert is_ell_leaky_forcing_set(fig3_spider(), vs(7, 0, 4, 5, 6), 1).ok

    def test_hypercube_even_part_survives_two_leaks(self):
        q3 = hypercube(3)
        even = vs(8, 0, 3, 5, 6)
        assert is_ell_leaky_forcing_set(q3, even, 2).ok

    def test_budget_clamped_to_order(self):
        assert is_ell_leaky_forcing_set(complete(2), vs(2, 0, 1), 5).ok

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            is_ell_leaky_forcing_set(path(3), vs(3, 0), -1)


class TestPossibleForces:
    def test_center_of_path(self):
        got = possible_forces(path(3), vs(3, 1))
        assert got == {Force(1, 0), Force(1, 2)}

    def test_both_endpoints_can_force_middle(self):
        got = possible_forces(path(3), vs(3, 0, 2))
        assert got == {Force(0, 1), Force(2, 1)}
        assert got == {Force(u, v) for u, v in naive_possible_forces(path(3), frozenset([0, 2]))}

    def test_cycle_singleton_has_none(self):
        assert possible_forces(cycle(4), vs(4, 0)) == frozenset()


class TestDistinctForcers:
    def test_two_routes_to_middle(self):
        assert distinct_forcers(path(3), vs(3, 0, 2), 1) == 2

    def test_single_route(self):
        assert distinct_forcers(path(3), vs(3, 1), 0) == 1

    def test_clique_all_blue_see_target(self):
        assert distinct_forcers(complete(4), vs(4, 0, 1, 2), 3) == 3

    def test_blue_vertex_rejected(self):
        with pytest.raises(ValueError):
            distinct_forcers(path(3), vs(3, 1), 1)


class TestOneLeakyCriterion:
    def test_path_endpoints(self):
        assert one_leaky_criterion(path(4), vs(4, 0, 3))

    def test_single_forcer_insufficient(self):
        assert not one_leaky_criterion(path(3), vs(3, 1))

    def test_any_two_on_cycle(self):
        assert one_leaky_criterion(cycle(5), vs(5, 0, 2))

    def test_all_blue_trivially_robust(self):
        assert one_leaky_criterion(path(2), vs(2, 0, 1))


_FOREIGN = "vertex set on 4 vertices does not match a graph on 3"


@pytest.mark.parametrize("call, message", [
    (lambda: ColoringState(VertexSet(3), VertexSet(4)), "vertex sets live in different universes"),
    (lambda: force_candidates(path(3), state(4, [0]), Rule.psd), _FOREIGN),
    (lambda: closure(path(3), state(4, [0]), Rule.psd), _FOREIGN),
    (lambda: is_forcing_set(path(3), state(4, [0]), Rule.psd), _FOREIGN),
    (lambda: is_ell_leaky_forcing_set(path(3), vs(4, 0), 1), _FOREIGN),
    (lambda: possible_forces(path(3), vs(4, 0)), _FOREIGN),
    (lambda: distinct_forcers(path(3), vs(4, 0), 1), _FOREIGN),
    (lambda: distinct_forcers(path(3), vs(3, 0), 3), "vertex 3 outside [0, 3)"),
    (lambda: one_leaky_criterion(path(3), vs(4, 0)), _FOREIGN),
], ids=["state-universes", "force-candidates", "closure", "forcing-set", "leaky-test",
        "possible-forces", "distinct-forcers-universe", "distinct-forcers-vertex",
        "one-leaky-criterion"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("rule", ["standard", "psd", None])
@pytest.mark.parametrize("call", [
    lambda rule: leaky_number(path(3), 0, rule),
    lambda rule: closure(path(3), state(3, [0]), rule),
    lambda rule: force_candidates(path(3), state(3, [0]), rule),
    lambda rule: is_forcing_set(path(3), state(3, [0]), rule),
    lambda rule: is_ell_leaky_forcing_set(path(3), vs(3, 0), 0, rule),
], ids=["leaky-number", "closure", "force-candidates", "forcing-set", "leaky-test"])
def test_a_rule_must_be_a_rule_member(call, rule):
    with pytest.raises(TypeError, match=f"^{re.escape(f'rule must be a Rule member, got {rule!r}')}$"):
        call(rule)


@pytest.mark.parametrize("call", [
    lambda ell: leaky_number(path(3), ell),
    lambda ell: is_ell_leaky_forcing_set(path(3), vs(3, 0), ell),
    lambda ell: is_leaky_psd_fort(path(3), vs(3, 0), ell),
    lambda ell: minimal_forts(path(3), ell),
    lambda ell: hitting_number(path(3), ell),
    lambda ell: monotonicity_audit(path(3), ell),
    lambda ell: expected_value(FamilySpec("path", (3,)), ell),
    lambda ell: family_table([FamilySpec("path", (3,))], [1, ell]),
    lambda ell: list(edge_deletion_scan([], ell)),
], ids=["leaky-number", "leaky-test", "fort-test", "minimal-forts", "hitting-number", "monotonicity-audit",
        "expected-value", "family-table", "edge-deletion-scan"])
def test_a_leak_budget_must_be_a_non_negative_int(call):
    # a bool is not read as 0 or 1, so no result can report ell=True: a
    # family table does not merge True into 1, and a scan checks its
    # budget before it reads a graph
    for ell in (True, False, 1.0, "1"):
        with pytest.raises(TypeError, match=f"^{re.escape(f'leak budget must be an int, got {ell!r}')}$"):
            call(ell)
    with pytest.raises(ValueError, match="^leak budget must be non-negative$"):
        call(-1)
    call(1)
