"""The incidence-matrix cross-check, and its agreement with the mask
algebra.  This is the independent route behind the oracle-equivalence
acceptance criterion, so the tests here also pin the cross-check's own
conversions."""

import numpy as np

from softsets import algebra, oracle
from softsets.laws import enumerate_soft_sets
from softsets.model import empty_soft_set, new_context, universal_soft_set

from .conftest import all_pairs, make, random_sets


class TestConversions:
    def test_round_trip_preserves_every_small_set(self, ctx22):
        for s in enumerate_soft_sets(ctx22):
            assert oracle.to_soft_set(oracle.from_soft_set(s)) == s

    def test_grid_layout(self, ctx22):
        m = oracle.from_soft_set(make(ctx22, e2="x2"))
        assert m.defined.tolist() == [False, True]
        assert m.grid.tolist() == [[False, False], [False, True]]

    def test_undefined_rows_are_all_false(self, ctx33):
        for s in random_sets(ctx33, 50, seed=5):
            m = oracle.from_soft_set(s)
            assert not m.grid[~m.defined].any()

    def test_empty_and_universal(self, ctx22):
        m = oracle.from_soft_set(empty_soft_set(ctx22))
        assert not m.defined.any() and not m.grid.any()
        m = oracle.from_soft_set(universal_soft_set(ctx22))
        assert m.defined.all() and m.grid.all()


class TestOperationAgreement:
    """Matrix route vs mask route; conversions bracket each operation."""

    def test_all_pairs_small(self, ctx22):
        for a, b in all_pairs(ctx22):
            ma, mb = oracle.from_soft_set(a), oracle.from_soft_set(b)
            assert oracle.to_soft_set(oracle.intersection(ma, mb)) == algebra.intersection(a, b)
            assert oracle.to_soft_set(oracle.union(ma, mb)) == algebra.union(a, b)
            assert oracle.to_soft_set(oracle.difference(ma, mb)) == algebra.difference(a, b)

    def test_complement_all_small_sets(self, ctx22):
        for a in enumerate_soft_sets(ctx22):
            assert oracle.to_soft_set(oracle.complement(oracle.from_soft_set(a))) == (
                algebra.complement(a)
            )

    def test_seeded_pairs_on_wider_context(self, ctx66):
        sets = random_sets(ctx66, 400, seed=11)
        for a, b in zip(sets[::2], sets[1::2]):
            ma, mb = oracle.from_soft_set(a), oracle.from_soft_set(b)
            assert oracle.to_soft_set(oracle.intersection(ma, mb)) == algebra.intersection(a, b)
            assert oracle.to_soft_set(oracle.union(ma, mb)) == algebra.union(a, b)
            assert oracle.to_soft_set(oracle.difference(ma, mb)) == algebra.difference(a, b)
            assert oracle.to_soft_set(oracle.complement(ma)) == algebra.complement(a)


class TestNormalization:
    def test_emptied_rows_leave_the_domain(self, ctx22):
        a = oracle.from_soft_set(make(ctx22, e1="x1"))
        b = oracle.from_soft_set(make(ctx22, e1="x2"))
        r = oracle.intersection(a, b)
        assert not r.defined.any()

    def test_full_rows_vanish_under_complement(self, ctx22):
        m = oracle.from_soft_set(make(ctx22, e1="x1 x2", e2="x1"))
        r = oracle.complement(m)
        assert r.defined.tolist() == [False, True]

    def test_normalized_invariant_after_each_operation(self, ctx33):
        sets = random_sets(ctx33, 60, seed=21)
        for a, b in zip(sets[::2], sets[1::2]):
            ma, mb = oracle.from_soft_set(a), oracle.from_soft_set(b)
            for r in (
                oracle.intersection(ma, mb),
                oracle.union(ma, mb),
                oracle.difference(ma, mb),
                oracle.complement(ma),
            ):
                assert np.array_equal(r.grid.any(axis=1), r.defined)
                assert not r.grid[~r.defined].any()


def test_matrix_route_shares_no_mask_code():
    # the cross-check must keep working when the packed operations are
    # not even consulted: build matrices by hand and compare images
    ctx = new_context(("x1", "x2"), ("e1", "e2"))
    a = oracle.MatrixSoftSet(
        ctx,
        np.array([True, False]),
        np.array([[True, True], [False, False]]),
    )
    s = oracle.to_soft_set(a)
    assert s.image("e1") == {"x1", "x2"}
    assert s.image("e2") is None
