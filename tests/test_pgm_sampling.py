"""Unit tests for the approximate component-marginal sampler."""

import pytest

from repro.peg import build_peg
from repro.peg.components import IdentityComponent
from repro.pgd import PGD
from repro.pgm.configurations import enumerate_exact_covers
from repro.pgm.sampling import ComponentSampler
from repro.utils.errors import ModelError
from tests.conftest import brute_force_covers, random_component


def fs(*items):
    return frozenset(items)


def chain_component(size):
    """References r0..r(size-1), pair sets between consecutive ones."""
    refs = [f"r{i}" for i in range(size)]
    sets = {fs(r): 0.7 for r in refs}
    for left, right in zip(refs, refs[1:]):
        sets[fs(left, right)] = 0.5
    return refs, sets


class TestSamplerAccuracy:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_matches_exact_on_small_components(self, size):
        refs, sets = chain_component(size)
        exact = enumerate_exact_covers(refs, list(sets), sets)
        sampler = ComponentSampler(
            refs, list(sets), sets, num_samples=30_000, seed=1
        )
        for entity in sets:
            exact_marginal = sum(
                cfg.probability for cfg in exact if entity in cfg.chosen
            )
            estimate = sampler.existence_probability(entity)
            assert estimate == pytest.approx(exact_marginal, abs=0.03)

    def test_joint_marginal_accuracy(self):
        refs, sets = chain_component(4)
        exact = enumerate_exact_covers(refs, list(sets), sets)
        sampler = ComponentSampler(
            refs, list(sets), sets, num_samples=30_000, seed=2
        )
        pair = [fs("r0"), fs("r3")]
        exact_joint = sum(
            cfg.probability
            for cfg in exact
            if {fs("r0"), fs("r3")} <= cfg.chosen
        )
        assert sampler.existence_marginal(pair) == pytest.approx(
            exact_joint, abs=0.03
        )

    def test_conflicting_entities_estimate_zero(self):
        refs, sets = chain_component(3)
        sampler = ComponentSampler(refs, list(sets), sets, seed=3)
        assert sampler.existence_marginal([fs("r0"), fs("r0", "r1")]) == 0.0

    def test_deterministic_given_seed(self):
        refs, sets = chain_component(4)
        a = ComponentSampler(refs, list(sets), sets, num_samples=500, seed=9)
        b = ComponentSampler(refs, list(sets), sets, num_samples=500, seed=9)
        assert a.existence_probability(fs("r0")) == \
            b.existence_probability(fs("r0"))


class TestRandomComponents:
    """Seeded random components against ``Pr(S.n)`` evaluated over every
    assignment of the ``s.n`` variables."""

    @pytest.mark.parametrize("seed", range(8))
    def test_draws_are_weighted_exact_covers(self, seed):
        references, potentials = random_component(seed)
        sampler = ComponentSampler(
            references, list(potentials), potentials,
            num_samples=200, seed=seed,
        )
        draws, weights, denominator = sampler.weighted_samples()
        assert draws
        for chosen in draws:
            assert sorted(r for s in chosen for r in s) == sorted(references)
            assert all(potentials[s] > 0.0 for s in chosen)
        assert all(weight > 0.0 for weight in weights)
        assert denominator == pytest.approx(sum(weights))

    @pytest.mark.parametrize("seed", range(8))
    def test_marginals_match_brute_force(self, seed):
        references, potentials = random_component(seed)
        expected = brute_force_covers(references, potentials)
        sampler = ComponentSampler(
            references, list(potentials), potentials,
            num_samples=10_000, seed=seed,
        )
        for entity in potentials:
            exact = sum(p for chosen, p in expected.items() if entity in chosen)
            assert sampler.existence_probability(entity) == pytest.approx(
                exact, abs=0.03
            )


class TestSamplerValidation:
    def test_unknown_entity_rejected(self):
        refs, sets = chain_component(3)
        sampler = ComponentSampler(refs, list(sets), sets, seed=0)
        with pytest.raises(ModelError):
            sampler.existence_marginal([fs("zz")])

    def test_uncoverable_reference_rejected(self):
        with pytest.raises(ModelError):
            ComponentSampler(["a", "b"], [fs("a")], {fs("a"): 1.0})

    def test_bad_sample_count(self):
        refs, sets = chain_component(2)
        with pytest.raises(ModelError):
            ComponentSampler(refs, list(sets), sets, num_samples=0)


class TestComponentFallback:
    def test_large_component_uses_sampler(self):
        refs, sets = chain_component(6)
        component = IdentityComponent(
            0, refs, list(sets), sets, exact_limit=4, approx_samples=20_000
        )
        assert not component.is_exact
        assert component.configurations is None
        exact = IdentityComponent(1, refs, list(sets), sets, exact_limit=32)
        for entity in sets:
            assert component.existence_probability(entity) == pytest.approx(
                exact.existence_probability(entity), abs=0.03
            )

    def test_build_peg_with_low_limit(self):
        pgd = PGD()
        refs = [f"x{i}" for i in range(5)]
        for ref in refs:
            pgd.add_reference(ref, "a")
        for left, right in zip(refs, refs[1:]):
            pgd.add_edge(left, right, 0.9)
            pgd.add_reference_set((left, right), 0.4)
        peg = build_peg(pgd, exact_component_limit=3, approx_samples=20_000)
        exact_peg = build_peg(pgd)
        for entity in peg.entities:
            assert peg.existence_probability(entity) == pytest.approx(
                exact_peg.existence_probability(entity), abs=0.04
            )

    def test_possible_worlds_rejected_on_approximate(self):
        from repro.peg import enumerate_worlds

        pgd = PGD()
        refs = [f"x{i}" for i in range(5)]
        for ref in refs:
            pgd.add_reference(ref, "a")
        for left, right in zip(refs, refs[1:]):
            pgd.add_reference_set((left, right), 0.4)
        peg = build_peg(pgd, exact_component_limit=3)
        with pytest.raises(ModelError):
            list(enumerate_worlds(peg))
