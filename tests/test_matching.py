"""Greedy cross-domain matching of subspaces by distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from msa.exceptions import DegenerateDataError
from msa.matching import Matching, greedy_match


class TestGreedyMatch:
    def test_hand_traced_square(self):
        """Smallest entry first: (0,0) at 0.1 blocks row 1 from col 0."""
        m = greedy_match([[0.1, 0.2], [0.11, 5.0]])
        assert m.pairs == ((0, 0, 0.1), (1, 1, 5.0))
        assert m.policy == "one_to_one"

    def test_diagonal_preferred(self):
        m = greedy_match([[0.0, 1.0], [1.0, 0.0]])
        assert m.pairs == ((0, 0, 0.0), (1, 1, 0.0))

    def test_tie_breaks_by_lowest_ids(self):
        # all entries equal: (0,0) first, then (1,1)
        m = greedy_match([[0.5, 0.5], [0.5, 0.5]])
        assert m.pairs == ((0, 0, 0.5), (1, 1, 0.5))

    def test_surplus_sources_reuse_nearest_target(self):
        values = [[0.1], [0.2], [0.3]]
        m = greedy_match(values)
        assert m.policy == "surplus_sources_reuse_nearest_target"
        assert m.pairs == ((0, 0, 0.1), (1, 0, 0.2), (2, 0, 0.3))

    def test_surplus_source_picks_its_own_nearest(self):
        values = [[0.1, 0.9], [0.2, 0.8], [0.7, 0.25]]
        m = greedy_match(values)
        # injective phase: (0,0) then (2,1); source 1 reuses its nearest, col 0
        assert m.pairs == ((0, 0, 0.1), (1, 0, 0.2), (2, 1, 0.25))

    def test_surplus_targets_left_unmatched(self):
        values = [[0.3, 0.1, 0.6]]
        m = greedy_match(values)
        assert m.policy == "surplus_targets_unmatched"
        assert m.pairs == ((0, 1, 0.1),)

    def test_every_source_matched_exactly_once(self, rng):
        for _ in range(30):
            ms = int(rng.integers(1, 7))
            mt = int(rng.integers(1, 7))
            values = rng.uniform(size=(ms, mt))
            m = greedy_match(values)
            sources = [p[0] for p in m.pairs]
            assert sorted(sources) == list(range(ms))
            targets = [p[1] for p in m.pairs]
            if ms <= mt:
                assert len(set(targets)) == ms

    def test_pair_distances_match_matrix(self, rng):
        values = rng.uniform(size=(4, 5))
        m = greedy_match(values)
        for i, j, dist in m.pairs:
            assert dist == values[i, j]

    def test_relabeling_consistency(self, rng):
        """Permuting rows permutes the matching accordingly."""
        values = rng.uniform(size=(4, 4))
        base = {p[0]: p[1] for p in greedy_match(values).pairs}
        perm = rng.permutation(4)
        permuted = greedy_match(values[perm])
        # row r of the permuted matrix is source perm[r] of the original
        assert {int(perm[i]): j for i, j, _ in permuted.pairs} == base

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDataError):
            greedy_match(np.zeros((0, 0)))


class TestMatching:
    def test_pairs_frozen(self):
        m = Matching(pairs=((0, 0, 0.5),), policy="one_to_one")
        assert m.pairs == ((0, 0, 0.5),)
        with pytest.raises(AttributeError):
            m.policy = "other"


# A few repeated levels among the distances make ties common.
_distances = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(values=_distances)
def test_greedy_match_properties(values):
    m_s, m_t = values.shape
    m = greedy_match(values)

    assert [i for i, _, _ in m.pairs] == list(range(m_s))
    assert all(0 <= j < m_t for _, j, _ in m.pairs)
    assert all(dist == values[i, j] for i, j, dist in m.pairs)
    targets = [j for _, j, _ in m.pairs]
    if m_s <= m_t:
        assert len(set(targets)) == m_s
    else:
        assert set(targets) == set(range(m_t))

    entries = sorted((values[i, j], i, j) for i in range(m_s) for j in range(m_t))
    _, i0, j0 = entries[0]
    assert m.pairs[i0][1] == j0

    expected_policy = (
        "one_to_one" if m_s == m_t
        else "surplus_sources_reuse_nearest_target" if m_s > m_t
        else "surplus_targets_unmatched"
    )
    assert m.policy == expected_policy

    # The sources left over once the smallest-first pass has used every
    # target each take the nearest target of their own row, lowest first.
    rows, cols = set(), set()
    for _, i, j in entries:
        if i not in rows and j not in cols:
            rows.add(i)
            cols.add(j)
    for i in set(range(m_s)) - rows:
        nearest = min(range(m_t), key=lambda j: (values[i, j], j))
        assert m.pairs[i][1:] == (nearest, values[i].min())
