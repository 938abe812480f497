"""The term-by-term closed form of E[exp(i(a_m - b_n)) P(T)], the reference gaussian_polynomial_gram is held to.

wick_polynomial_gram walks a Potential one Term at a time: each factor
(Y_x + i v_x)^p expands binomially, and each mixed moment of Y comes from a
Wick recursion over the multiset of sites, cached by that multiset. The
library evaluates the terms of one power shape together, as arrays; this is
the plain loop it replaced, adding the terms in the library's order: grouped
by power shape, shapes in order of first appearance. product builds the
square of a density as a canonical Potential, Term by Term, for the
reference to read.
"""

import itertools
import math
from functools import cache

import numpy as np

from rplattice import Potential, Term, is_even
from rplattice.density import canonicalize


def wick_polynomial_gram(cov, phi_mat, theta_mat, p):
    """The k x k matrix E[exp(i(a_m - b_n)) P(T)] of a Potential P under the centred Gaussian of cov."""
    c = cov.matrix
    c_phi, c_theta = c @ phi_mat, c @ theta_mat
    phi_norms, theta_norms = (phi_mat * c_phi).sum(axis=0), (theta_mat * c_theta).sum(axis=0)
    g0 = np.exp(-0.5 * (phi_norms[:, np.newaxis] + theta_norms - 2.0 * (phi_mat.T @ c_theta)))

    @cache
    def moment(sites):
        # E[Y_s1 ... Y_sj] for a sorted tuple of sites: pair the first with each of the others
        if len(sites) % 2:
            return 0.0
        if not sites:
            return 1.0
        first, rest = sites[0], sites[1:]
        return sum(
            rest.count(s) * c[first, s] * moment(rest[:j] + rest[j + 1:])
            for j, s in enumerate(rest)
            if j == 0 or s != rest[j - 1]
        )

    # the even-degree terms of E[P(Y + iv)] are real, the odd-degree ones imaginary
    parts = [np.full(g0.shape, p.constant), np.zeros(g0.shape)]
    shapes = {}
    for term in p.terms:
        shapes.setdefault(tuple(power for _, power in term.factors), []).append(term)
    for term in itertools.chain.from_iterable(shapes.values()):
        sites, powers = zip(*term.factors)
        shifts = c_phi[list(sites)][:, :, np.newaxis] - c_theta[list(sites)][:, np.newaxis, :]
        for taken in itertools.product(*(range(power + 1) for power in powers)):
            m = moment(tuple(s for s, j in zip(sites, taken) for _ in range(j)))
            if m == 0.0:
                continue
            left = sum(powers) - sum(taken)  # the power of i
            x = term.coefficient * m * (-1) ** (left // 2) * math.prod(map(math.comb, powers, taken))
            for shift, power, j in zip(shifts, powers, taken):
                if power > j:
                    x = x * shift ** (power - j)
            parts[left % 2] += x
    if is_even(p):
        return g0 * parts[0]
    return g0 * (parts[0] + 1j * parts[1])


def product(p, q):
    """The canonical Potential p q, one Term per pair of terms (the constants taken as terms)."""
    left = p.terms + (Term(p.constant, ()),)
    right = q.terms + (Term(q.constant, ()),)
    terms = []
    for a, b in itertools.product(left, right):
        powers = dict(a.factors)
        for site, power in b.factors:
            powers[site] = powers.get(site, 0) + power
        terms.append(Term(a.coefficient * b.coefficient, tuple(powers.items())))
    return canonicalize(Potential(tuple(terms)))
