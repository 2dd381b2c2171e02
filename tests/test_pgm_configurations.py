"""Unit tests for repro.pgm.configurations (exact-cover enumeration)."""

import itertools
import math

import pytest

from repro.peg.components import IdentityComponent
from repro.pgm.configurations import enumerate_exact_covers
from repro.utils.errors import ModelError
from tests.conftest import brute_force_covers, random_component


def fs(*items):
    return frozenset(items)


class TestEnumerateExactCovers:
    def test_singletons_only(self):
        covers = enumerate_exact_covers(
            ["a", "b"],
            [fs("a"), fs("b")],
            {fs("a"): 1.0, fs("b"): 1.0},
        )
        assert len(covers) == 1
        assert covers[0].chosen == fs(fs("a"), fs("b"))
        assert covers[0].probability == pytest.approx(1.0)

    def test_pair_vs_singletons(self):
        """Calibrated pair potentials give the intended merge probability."""
        p = 0.8
        covers = enumerate_exact_covers(
            ["a", "b"],
            [fs("a"), fs("b"), fs("a", "b")],
            {
                fs("a"): math.sqrt(1 - p),
                fs("b"): math.sqrt(1 - p),
                fs("a", "b"): math.sqrt(p),
            },
        )
        assert len(covers) == 2
        by_size = {len(cover.chosen): cover for cover in covers}
        assert by_size[1].probability == pytest.approx(p)
        assert by_size[2].probability == pytest.approx(1 - p)

    def test_probabilities_normalize(self):
        covers = enumerate_exact_covers(
            ["a", "b", "c"],
            [fs("a"), fs("b"), fs("c"), fs("a", "b"), fs("b", "c")],
            {
                fs("a"): 0.9,
                fs("b"): 0.5,
                fs("c"): 0.7,
                fs("a", "b"): 0.6,
                fs("b", "c"): 0.3,
            },
        )
        assert sum(c.probability for c in covers) == pytest.approx(1.0)
        # Three covers: all singletons, {ab, c}, {a, bc}.
        assert len(covers) == 3

    def test_overlapping_sets_never_cooccur(self):
        covers = enumerate_exact_covers(
            ["a", "b", "c"],
            [fs("a"), fs("b"), fs("c"), fs("a", "b"), fs("b", "c")],
            {
                fs("a"): 0.5,
                fs("b"): 0.5,
                fs("c"): 0.5,
                fs("a", "b"): 0.5,
                fs("b", "c"): 0.5,
            },
        )
        for cover in covers:
            chosen = list(cover.chosen)
            for i, left in enumerate(chosen):
                for right in chosen[i + 1:]:
                    assert not (left & right)

    def test_weight_counts_potential_per_reference(self):
        """A set of size s contributes potential^s to the cover weight."""
        covers = enumerate_exact_covers(
            ["a", "b"],
            [fs("a"), fs("b"), fs("a", "b")],
            {fs("a"): 1.0, fs("b"): 1.0, fs("a", "b"): 0.5},
        )
        by_size = {len(c.chosen): c for c in covers}
        # merged weight 0.25 vs unmerged weight 1.0
        assert by_size[1].probability == pytest.approx(0.25 / 1.25)

    def test_zero_potential_sets_skipped(self):
        covers = enumerate_exact_covers(
            ["a", "b"],
            [fs("a"), fs("b"), fs("a", "b")],
            {fs("a"): 1.0, fs("b"): 1.0, fs("a", "b"): 0.0},
        )
        assert len(covers) == 1

    def test_uncoverable_reference_rejected(self):
        with pytest.raises(ModelError):
            enumerate_exact_covers(
                ["a", "b"], [fs("a")], {fs("a"): 1.0}
            )

    def test_foreign_set_rejected(self):
        with pytest.raises(ModelError):
            enumerate_exact_covers(
                ["a"], [fs("a"), fs("a", "z")], {fs("a"): 1.0, fs("a", "z"): 1.0}
            )

    def test_no_positive_cover_rejected(self):
        with pytest.raises(ModelError):
            enumerate_exact_covers(["a"], [fs("a")], {fs("a"): 0.0})

    def test_deterministic_order(self):
        args = (
            ["a", "b", "c"],
            [fs("a"), fs("b"), fs("c"), fs("a", "b")],
            {fs("a"): 0.4, fs("b"): 0.6, fs("c"): 1.0, fs("a", "b"): 0.9},
        )
        first = enumerate_exact_covers(*args)
        second = enumerate_exact_covers(*args)
        assert first == second
        assert first[0].probability >= first[-1].probability

    def test_three_way_component(self):
        """A size-3 component with chained pairs enumerates all partitions."""
        covers = enumerate_exact_covers(
            ["a", "b", "c"],
            [
                fs("a"), fs("b"), fs("c"),
                fs("a", "b"), fs("b", "c"), fs("a", "c"),
            ],
            {
                fs("a"): 0.5, fs("b"): 0.5, fs("c"): 0.5,
                fs("a", "b"): 0.5, fs("b", "c"): 0.5, fs("a", "c"): 0.5,
            },
        )
        # partitions of {a,b,c} into singletons and one pair + singleton:
        # {a|b|c}, {ab|c}, {bc|a}, {ac|b} -> 4 covers
        assert len(covers) == 4


class TestMatchesDefinition:
    """Seeded random components against ``Pr(S.n)`` evaluated over every
    assignment of the ``s.n`` variables."""

    @pytest.mark.parametrize("seed", range(16))
    def test_covers_match_brute_force(self, seed):
        references, potentials = random_component(seed)
        expected = brute_force_covers(references, potentials)
        covers = enumerate_exact_covers(
            references, list(potentials), potentials
        )
        assert {c.chosen for c in covers} == set(expected)
        for cover in covers:
            assert cover.probability == pytest.approx(expected[cover.chosen])
        probabilities = [c.probability for c in covers]
        assert probabilities == sorted(probabilities, reverse=True)

    @pytest.mark.parametrize("seed", range(16))
    def test_component_marginals_match_brute_force(self, seed):
        references, potentials = random_component(seed)
        expected = brute_force_covers(references, potentials)
        component = IdentityComponent(
            seed, references, list(potentials), potentials
        )
        assert component.is_exact

        def marginal(entities):
            return sum(
                p for chosen, p in expected.items() if set(entities) <= chosen
            )

        for entity in potentials:
            assert component.existence_probability(entity) == pytest.approx(
                marginal([entity])
            )
        for pair in itertools.combinations(potentials, 2):
            assert component.existence_marginal(pair) == pytest.approx(
                marginal(pair)
            )
