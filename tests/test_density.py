import numpy as np
import pytest

from rplattice import (
    Potential,
    Term,
    ZERO_POTENTIAL,
    build_lattice,
    canonicalize,
    eval_potential_batch,
    eval_potential_exact,
    is_even,
    phi4,
    potential_from_obj,
    potential_to_obj,
    reflect,
    reflect_potential,
    restrict_plus,
    split_check,
)
from rplattice.density import MIXED_SUPPORT, UNMATCHED_MIRROR


def random_potential(rng, n_sites, max_terms=5, max_factors=3, max_power=4):
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        nf = int(rng.integers(1, min(max_factors, n_sites) + 1))
        sites = rng.choice(n_sites, size=nf, replace=False)
        factors = tuple((int(s), int(rng.integers(1, max_power + 1))) for s in sites)
        terms.append(Term(float(rng.standard_normal()), factors))
    return Potential(tuple(terms), float(rng.standard_normal()))


def test_canonicalize_merges_commuting_terms():
    p = Potential((Term(2.0, ((0, 1), (1, 1))), Term(3.0, ((1, 1), (0, 1)))))
    got = canonicalize(p)
    assert got == Potential((Term(5.0, ((0, 1), (1, 1))),), 0.0)


def test_canonicalize_cancels_to_zero():
    p = Potential((Term(1.0, ((0, 2),)), Term(-1.0, ((0, 2),))))
    assert canonicalize(p) == ZERO_POTENTIAL


def test_canonicalize_folds_constant_terms():
    p = Potential((Term(2.5, ()),), 1.0)
    assert canonicalize(p) == Potential((), 3.5)


def test_canonicalize_is_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = canonicalize(random_potential(rng, 6))
        assert canonicalize(p) == p


def test_term_rejects_repeated_site_and_zero_power():
    with pytest.raises(ValueError):
        Term(1.0, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        Term(1.0, ((0, 0),))


def test_eval_phi4_by_hand():
    lat = build_lattice(1, [])
    value = eval_potential_batch(phi4(lat, 0.1), [[1.0, 2.0]])[0]
    assert value == pytest.approx(-1.7, abs=1e-12)


def test_eval_zero_and_constant():
    assert eval_potential_batch(ZERO_POTENTIAL, [[4.0, 5.0]])[0] == 0.0
    assert eval_potential_batch(Potential((), 2.25), [[0.0]])[0] == 2.25


def test_eval_rejects_out_of_range_site():
    p = Potential((Term(1.0, ((3, 1),)),))
    for configs in ([[1.0, 2.0]], np.ones((4, 2))):
        with pytest.raises(ValueError):
            eval_potential_batch(p, configs)


def test_batch_eval_matches_scalar_bitwise():
    lat = build_lattice(2, [2])
    rng = np.random.default_rng(12)
    p = canonicalize(random_potential(rng, lat.site_count))
    configs = rng.standard_normal((64, lat.site_count))
    batch = eval_potential_batch(p, configs)
    singles = np.concatenate([eval_potential_batch(p, row[np.newaxis]) for row in configs])
    assert np.array_equal(batch, singles)


def loop_eval_potential_batch(p, configs):
    """Reference: the term-order loop that allocates a fresh product per power."""
    configs = np.asarray(configs, dtype=np.float64)
    out = np.full(configs.shape[0], p.constant, dtype=np.float64)
    for t in p.terms:
        prod = np.full(configs.shape[0], t.coefficient, dtype=np.float64)
        for site, power in t.factors:
            col = configs[:, site]
            for _ in range(power):
                prod = prod * col
        out += prod
    return out


@pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided-view", "single-row"])
def test_batch_eval_matches_the_allocating_loop_bitwise(layout):
    rng = np.random.default_rng(19)
    n_sites = 8
    base = rng.standard_normal((2 * 301, 2 * n_sites))
    configs = {
        "c-order": np.ascontiguousarray(base[:301, :n_sites]),
        "fortran-order": np.asfortranarray(base[:301, :n_sites]),
        "strided-view": base[::2, ::2],
        "single-row": base[:1, :n_sites],
    }[layout]
    potentials = [canonicalize(random_potential(rng, n_sites, max_terms=8)) for _ in range(100)]
    potentials.append(Potential((), -1.75))
    assert any(len(t.factors) > 1 for p in potentials for t in p.terms)
    assert {pw for p in potentials for t in p.terms for _, pw in t.factors} == {1, 2, 3, 4}
    for p in potentials:
        assert np.array_equal(eval_potential_batch(p, configs), loop_eval_potential_batch(p, configs))


def test_reflect_potential_swaps_sites():
    lat = build_lattice(1, [])
    p = Potential((Term(1.0, ((0, 1),)),))
    assert reflect_potential(lat, p) == Potential((Term(1.0, ((1, 1),)),))


def test_reflect_potential_fixes_symmetric_density():
    lat = build_lattice(2, [3])
    p = phi4(lat, 0.7)
    assert reflect_potential(lat, p) == p


def test_reflect_potential_is_involution():
    lat = build_lattice(2, [2])
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = canonicalize(random_potential(rng, lat.site_count))
        assert reflect_potential(lat, reflect_potential(lat, p)) == p


def test_reflect_potential_matches_reflected_evaluation():
    lat = build_lattice(3, [2])
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = canonicalize(random_potential(rng, lat.site_count))
        config = rng.standard_normal(lat.site_count)
        lhs = eval_potential_exact(reflect_potential(lat, p), config)
        rhs = eval_potential_exact(p, reflect(lat, config))
        assert lhs == rhs


def test_phi4_canonical_form_and_sign():
    lat = build_lattice(1, [])
    p = phi4(lat, 1.0)
    assert p == Potential((Term(-1.0, ((0, 4),)), Term(-1.0, ((1, 4),))), 0.0)
    assert eval_potential_batch(p, [[0.0, 0.0]])[0] == 0.0
    with pytest.raises(ValueError):
        phi4(lat, 0.0)
    with pytest.raises(ValueError):
        phi4(lat, -2.0)


def test_phi4_splits_with_positive_half_witness():
    lat = build_lattice(2, [3])
    lam = 0.25
    result = split_check(lat, phi4(lat, lam))
    assert result.is_splitting
    want = Potential(tuple(Term(-lam, ((h, 4),)) for h in range(lat.n_plus)), 0.0)
    assert result.witness_g == want


def test_evenness_counts_the_total_degree_of_each_term():
    lat = build_lattice(2, [4])
    density = phi4(lat, 0.1)
    assert is_even(density) and is_even(ZERO_POTENTIAL)
    assert is_even(split_check(lat, density).witness_g)
    # the constant does not count, and a term is even by its total degree
    assert is_even(Potential((Term(-1.0, ((0, 1), (3, 1))), Term(2.0, ((1, 2),))), 5.0))
    # one odd term makes a density odd, and the G of its split too
    plus, minus = lat.index_of([1, 0]), lat.index_of([-1, 0])
    cubic = Potential((Term(1e-3, ((plus, 3),)), Term(1e-3, ((minus, 3),))))
    odd = canonicalize(Potential(density.terms + cubic.terms))
    assert not is_even(odd)
    assert not is_even(split_check(lat, odd).witness_g)
    assert not is_even(Potential((Term(2.0, ((0, 1), (1, 2))),), 1.0))


def test_even_potentials_evaluate_to_the_same_bits_at_minus_the_field():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = random_potential(rng, 6)
        even = Potential(tuple(t for t in p.terms if sum(pw for _, pw in t.factors) % 2 == 0), p.constant)
        assert is_even(even)
        x = rng.standard_normal((64, 6))
        assert np.array_equal(eval_potential_batch(even, x), eval_potential_batch(even, -x))


def test_cross_plane_coupling_is_mixed_support():
    lat = build_lattice(2, [2])
    minus_one = lat.index_of((-1, 0))
    plus_one = lat.index_of((1, 0))
    f = Potential((Term(0.3, ((minus_one, 1), (plus_one, 1))),))
    result = split_check(lat, f)
    assert not result.is_splitting
    assert result.witness_g is None
    assert [v.reason for v in result.violations] == [MIXED_SUPPORT]


def test_one_sided_quartic_is_unmatched():
    lat = build_lattice(1, [])
    f = Potential((Term(-0.5, ((int(lat.plus_sites[0]), 4),)),))
    result = split_check(lat, f)
    assert not result.is_splitting
    assert [v.reason for v in result.violations] == [UNMATCHED_MIRROR]


def test_split_invariant_under_term_reordering():
    lat = build_lattice(2, [2])
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = canonicalize(random_potential(rng, lat.site_count))
        f = canonicalize(
            Potential(p.terms + reflect_potential(lat, p).terms, p.constant)
        )
        shuffled = list(f.terms)
        rng.shuffle(shuffled)
        a = split_check(lat, f)
        b = split_check(lat, Potential(tuple(shuffled), f.constant))
        assert a.is_splitting == b.is_splitting
        assert a.witness_g == b.witness_g


def test_symmetrized_densities_always_split_exactly():
    lat = build_lattice(3, [2])
    rng = np.random.default_rng(16)
    for _ in range(100):
        plus_only = random_potential(rng, lat.site_count)
        # rebuild every term on positive-time sites only
        terms = tuple(
            Term(t.coefficient, tuple((int(lat.plus_sites[s % lat.n_plus]), p) for s, p in t.factors))
            for t in plus_only.terms
            if len({s % lat.n_plus for s, _ in t.factors}) == len(t.factors)
        )
        fp = canonicalize(Potential(terms, plus_only.constant))
        f = canonicalize(Potential(fp.terms + reflect_potential(lat, fp).terms, fp.constant * 2))
        result = split_check(lat, f)
        assert result.is_splitting
        for _ in range(3):
            config = rng.standard_normal(lat.site_count)
            total = eval_potential_exact(f, config)
            split_sum = eval_potential_exact(
                result.witness_g, restrict_plus(lat, config)
            ) + eval_potential_exact(
                result.witness_g, restrict_plus(lat, reflect(lat, config))
            )
            assert total == split_sum


def test_reflect_potential_preserves_splitting():
    lat = build_lattice(2, [2])
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = canonicalize(random_potential(rng, lat.site_count))
        f = canonicalize(Potential(p.terms + reflect_potential(lat, p).terms, p.constant))
        assert split_check(lat, f).is_splitting == split_check(lat, reflect_potential(lat, f)).is_splitting


def test_wire_format_round_trip():
    lat = build_lattice(2, [3])
    rng = np.random.default_rng(18)
    for _ in range(20):
        p = canonicalize(random_potential(rng, lat.site_count))
        obj = potential_to_obj(lat, p)
        assert potential_from_obj(lat, obj) == p


def test_wire_format_integer_coefficients_stay_integers():
    lat = build_lattice(1, [])
    p = Potential((Term(-1.0, ((0, 4),)),), 2.0)
    obj = potential_to_obj(lat, p)
    assert obj["terms"][0]["coefficient"] == -1
    assert isinstance(obj["terms"][0]["coefficient"], int)
    assert obj["constant"] == 2
