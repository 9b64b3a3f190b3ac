import re

import pytest

from forceps import (
    AuditFailure,
    GuardError,
    VertexSet,
    fort_from_failure,
    hitting_number,
    is_connected_fort_standard,
    is_leaky_psd_fort,
    leaky_number,
    minimal_forts,
)
from forceps.families import complete, cycle, path, petersen_gp

from oracles import naive_is_fort, naive_minimal_forts


def vs(n, *vertices):
    return VertexSet(n, vertices)


class TestPredicate:
    def test_endpoint_is_one_leak_fort(self):
        assert is_leaky_psd_fort(path(3), vs(3, 0), 1)
        assert naive_is_fort(path(3), {0}, 1)

    def test_middle_vertex_has_two_threats(self):
        assert not is_leaky_psd_fort(path(3), vs(3, 1), 1)
        assert not naive_is_fort(path(3), {1}, 1)

    def test_whole_vertex_set_always_qualifies(self):
        for g in (path(4), cycle(5), complete(3)):
            assert is_leaky_psd_fort(g, g.vertex_set(), 0)

    def test_components_are_judged_separately(self):
        # {1,3} in C4 splits into two singletons, each threatened twice
        assert not is_leaky_psd_fort(cycle(4), vs(4, 1, 3), 0)
        assert not is_leaky_psd_fort(cycle(4), vs(4, 1, 3), 1)
        assert is_leaky_psd_fort(cycle(4), vs(4, 1, 3), 2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            is_leaky_psd_fort(path(3), VertexSet(3), 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^leak budget must be non-negative$"):
            is_leaky_psd_fort(path(3), vs(3, 0), -1)


class TestMinimalForts:
    def test_path3_one_leak(self):
        fam = minimal_forts(path(3), 1)
        assert [list(f) for f in fam] == [[0], [2]]

    def test_path3_leak_free_is_whole_path(self):
        # no proper subset survives: each lone endpoint is threatened once
        fam = minimal_forts(path(3), 0)
        assert [list(f) for f in fam] == [[0, 1, 2]]
        assert [sorted(f) for f in naive_minimal_forts(path(3), 0)] == [[0, 1, 2]]

    def test_triangle_pairs(self):
        fam = minimal_forts(complete(3), 0)
        assert [list(f) for f in fam] == [[0, 1], [0, 2], [1, 2]]

    def test_guard(self):
        with pytest.raises(GuardError):
            minimal_forts(path(3), 0, max_vertices=2)

    def test_matches_exhaustive_oracle_in_vertex_list_order(self):
        from corpus import atlas_graphs

        # disconnected graphs such as an edge plus a vertex list a larger
        # fort before a smaller one
        for g in atlas_graphs(6, connected=False):
            for ell in (0, 1, 2):
                want = [sorted(f) for f in naive_minimal_forts(g, ell)]
                assert [list(f) for f in minimal_forts(g, ell)] == want

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            minimal_forts(path(3), -1)
        with pytest.raises(ValueError):
            hitting_number(path(3), -1)


class TestFortFromFailure:
    def test_leaked_path_remainder(self):
        assert fort_from_failure(path(3), vs(3, 0, 1), vs(3, 1)) == vs(3, 2)

    def test_cycle_remainder(self):
        assert fort_from_failure(cycle(4), vs(4, 0), VertexSet(4)) == vs(4, 1, 2, 3)

    def test_whole_graph_when_nothing_blue(self):
        assert fort_from_failure(complete(3), VertexSet(3), VertexSet(3)) == vs(3, 0, 1, 2)

    def test_completed_closure_rejected(self):
        with pytest.raises(ValueError):
            fort_from_failure(path(3), vs(3, 0), VertexSet(3))

    def test_remainder_failing_the_predicate_is_reported(self, monkeypatch):
        import forceps._core as core

        monkeypatch.setattr(core, "is_fort_mask", lambda adj, mask, ell: False)
        with pytest.raises(AuditFailure) as info:
            fort_from_failure(path(3), vs(3, 0, 1), vs(3, 1))
        assert info.value.finding == {
            "kind": "fort-extraction", "graph6": "Bg", "blue": [0, 1],
            "leaks": [1], "remainder": [2], "ell": 1,
        }


class TestHittingNumber:
    def test_path3_one_leak(self):
        assert hitting_number(path(3), 1) == (2, vs(3, 0, 2))

    def test_triangle(self):
        assert hitting_number(complete(3), 0) == (2, vs(3, 0, 1))

    def test_cycle_matches_solver(self):
        value, _ = hitting_number(cycle(4), 1)
        assert value == leaky_number(cycle(4), 1).value == 2

    def test_clique_needs_all_but_one(self):
        value, witness = hitting_number(complete(8), 0)
        assert value == 7 and list(witness) == list(range(7))

    def test_branch_and_bound_returns_first_optimum(self):
        from corpus import atlas_graphs
        from oracles import naive_hitting_number, naive_minimal_forts

        for g in atlas_graphs(5):
            for ell in (0, 1, 2):
                forts = naive_minimal_forts(g, ell)
                want = naive_hitting_number(forts, g.n)
                got_value, got_witness = hitting_number(g, ell)
                assert (got_value, tuple(got_witness)) == want


class TestPrisms:
    # petersen_gp(n) with step 1 is the prism on 2n vertices

    def test_two_leak_prisms_have_4n_minimal_forts(self):
        for n in range(8, 17):
            assert len(minimal_forts(petersen_gp(n), 2, max_vertices=2 * n)) == 4 * n

    def test_two_leak_hitting_numbers(self):
        for n in range(8, 13):
            assert hitting_number(petersen_gp(n), 2, max_vertices=2 * n)[0] == max(4, -(-2 * n // 3))


class TestConnectedForts:
    def test_singleton_connected(self):
        assert is_connected_fort_standard(path(3), vs(3, 0))

    def test_two_endpoints_disconnected(self):
        assert not is_connected_fort_standard(path(4), vs(4, 0, 3))

    def test_cycle_arc_connected(self):
        assert is_connected_fort_standard(cycle(4), vs(4, 1, 2, 3))

    def test_empty_fort_reads_connected(self):
        assert is_connected_fort_standard(path(3), vs(3))


_FOREIGN = "vertex set on 4 vertices does not match a graph on 3"


@pytest.mark.parametrize("call, message", [
    (lambda: is_leaky_psd_fort(path(3), vs(4, 0), 0), _FOREIGN),
    (lambda: fort_from_failure(path(3), vs(4, 0), VertexSet(4)), _FOREIGN),
    (lambda: fort_from_failure(path(3), vs(3, 0), VertexSet(4)), _FOREIGN),
    (lambda: is_connected_fort_standard(path(3), vs(4, 0)), _FOREIGN),
], ids=["fort-predicate", "fort-from-failure", "fort-from-failure-leaks", "connected-fort"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda guard: minimal_forts(path(3), 1, max_vertices=guard),
    lambda guard: hitting_number(path(3), 1, max_vertices=guard),
], ids=["minimal-forts", "hitting-number"])
def test_guard_must_be_a_non_negative_int(call):
    # a bool is not read as 0 or 1, nor a float or None compared with n
    for guard in (True, False, 2.5, "3", None):
        with pytest.raises(TypeError, match=f"^{re.escape(f'max_vertices must be an int, got {guard!r}')}$"):
            call(guard)
    for guard in (-1, -3):
        with pytest.raises(ValueError, match=f"^max_vertices must be non-negative, got {guard}$"):
            call(guard)
    with pytest.raises(GuardError):
        call(2)
    call(3)
