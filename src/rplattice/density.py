"""Polynomial interaction densities and the splitting decision.

A density is a polynomial in the field values at lattice sites, stored in a
canonical form (merged monomials, sorted factor lists, constant kept apart).
The central operation decides whether a density F can be written as

    F = G(positive half of the field) + G(positive half of the reflected field)

for a single polynomial G on the positive-time half, and produces G when it
exists. Coefficients are combined symbolically: all identities certified
here hold exactly, never up to a numerical tolerance.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import as_float, as_int


def _finite(value, what):
    """as_float(value), refusing NaN and the infinities."""
    x = as_float(value, what)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Term:
    """One monomial: coefficient times a product of site powers."""

    coefficient: float
    factors: tuple  # ((site, power), ...) sorted by site, distinct sites

    def __post_init__(self):
        factors = tuple(sorted((as_int(s, "site"), as_int(p, "power")) for s, p in self.factors))
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site in term factors: {self.factors}")
        if any(p < 1 for _, p in factors):
            raise ValueError(f"zero or negative power in term factors: {self.factors}")
        if any(s < 0 for s in sites):
            raise ValueError(f"negative site index in term factors: {self.factors}")
        object.__setattr__(self, "coefficient", _finite(self.coefficient, "coefficient"))
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class Potential:
    """Canonical sum of monomials plus a separate constant."""

    terms: tuple = ()
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "constant", _finite(self.constant, "constant"))


ZERO_POTENTIAL = Potential()


def canonicalize(p):
    """Merge like terms, drop exact zeros, sort by factor list. Idempotent."""
    merged = {}
    constant = p.constant
    for t in p.terms:
        if not t.factors:
            constant += t.coefficient
            continue
        merged[t.factors] = merged.get(t.factors, 0.0) + t.coefficient
    terms = tuple(
        Term(c, f) for f, c in sorted(merged.items()) if c != 0.0
    )
    return Potential(terms, constant)


def add_potentials(p, q):
    return canonicalize(Potential(p.terms + q.terms, p.constant + q.constant))


def negate_potential(p):
    return Potential(tuple(Term(-t.coefficient, t.factors) for t in p.terms), -p.constant)


def is_even(p):
    """True when every term of p, a Potential or a PolynomialTable, has even total degree, so p(-x) = p(x).

    The constant does not count. The identity holds bit for bit under
    eval_potential_batch too: each power negates the running product
    exactly, and rounding is symmetric under negation. A potential that is
    not canonical is judged term by term, so odd terms that would cancel
    still make it odd.
    """
    return all(sum(b.powers) % 2 == 0 for b in PolynomialTable.of(p).blocks)


def check_sites(p, count, where):
    """Raise ValueError when a factor of p, a Potential or a PolynomialTable, names a site index >= count.

    A table names the largest site of the first block that has one out of
    range, a Potential the first such site in term order.
    """
    if isinstance(p, PolynomialTable):
        sites = (int(b.sites.max()) for b in p.blocks if b.sites.size)
    else:
        sites = (site for t in p.terms for site, _ in t.factors)
    for site in sites:
        if site >= count:
            raise ValueError(f"site index {site} out of range for {where}")


@dataclass(frozen=True)
class TermBlock:
    """Terms of one power shape as arrays: term i is coefficients[i] * prod_j T[sites[i, j]] ** powers[j].

    A row may name one site twice: the product is the same.
    """

    powers: tuple
    coefficients: np.ndarray
    sites: np.ndarray


@dataclass(frozen=True)
class PolynomialTable:
    """A polynomial as TermBlocks, one block per power shape, plus a constant.

    The array form of a Potential: of(p) groups p's terms by power shape,
    shapes in order of first appearance, each block in p's term order.
    plus_squares and squared build polynomials of many terms, such as the
    square of a tilted density, without a Term object per term.
    """

    blocks: tuple = ()
    constant: float = 0.0

    @classmethod
    def of(cls, p):
        """The table of a Potential p, or p itself when it is a table."""
        if isinstance(p, PolynomialTable):
            return p
        shapes = {}
        for t in p.terms:
            shapes.setdefault(tuple(power for _, power in t.factors), []).append(t)
        blocks = tuple(
            TermBlock(
                powers,
                np.array([t.coefficient for t in terms]),
                np.array([[site for site, _ in t.factors] for t in terms], dtype=np.intp).reshape(len(terms), -1),
            )
            for powers, terms in shapes.items()
        )
        return cls(blocks, p.constant)

    def plus_squares(self, coefficient, dim):
        """This polynomial plus coefficient * sum over the dim sites x of T_x^2, as one more block."""
        squares = TermBlock((2,), np.full(dim, float(coefficient)), np.arange(dim).reshape(dim, 1))
        return PolynomialTable(self.blocks + (squares,), self.constant)

    def squared(self):
        """The square: each unordered pair of terms once, the pairs of two distinct terms twice, and 2 c P + c^2.

        A product's sites are its factors' sites side by side, unmerged, so
        a table of n terms squares into n (n + 1) / 2 terms and up to n more.
        """
        blocks = []
        for a, left in enumerate(self.blocks):
            for right in self.blocks[a:]:
                if right is left:
                    i, j = np.triu_indices(len(left.coefficients))
                    scale = np.where(i == j, 1.0, 2.0)
                else:
                    i, j = (index.ravel() for index in np.indices((len(left.coefficients), len(right.coefficients))))
                    scale = 2.0
                sites = np.concatenate([left.sites[i], right.sites[j]], axis=1)
                blocks.append((left.powers + right.powers, scale * left.coefficients[i] * right.coefficients[j], sites))
        if self.constant:
            blocks += [(b.powers, 2.0 * self.constant * b.coefficients, b.sites) for b in self.blocks]
        return PolynomialTable(tuple(TermBlock(*b) for b in blocks), self.constant * self.constant)


def eval_potential_batch(p, configs):
    """Evaluate at many configurations at once; configs has shape (n, dim).

    Factors multiply into the coefficient one power at a time, in canonical
    factor order, and terms add onto the constant in term order. Every
    product is formed in one reusable buffer against contiguous columns.
    """
    configs = np.asarray(configs, dtype=np.float64)
    check_sites(p, configs.shape[1], f"configs of width {configs.shape[1]}")
    out = np.full(configs.shape[0], p.constant, dtype=np.float64)
    columns = np.ascontiguousarray(configs.T)
    prod = np.empty_like(out)
    for t in p.terms:
        prod.fill(t.coefficient)
        for site, power in t.factors:
            for _ in range(power):
                np.multiply(prod, columns[site], out=prod)
        out += prod
    return out


def eval_potential_exact(p, values):
    """Evaluate in exact dyadic-rational arithmetic; returns a Fraction.

    Field values and coefficients are binary floats, hence dyadic rationals,
    so sums and products carry no rounding here. This is the reference
    evaluator for the identities certified by split_check: whenever the
    witness identity holds at the term level it holds exactly under this
    evaluation, independent of term order or grouping.
    """
    arr = np.asarray(values, dtype=np.float64)
    check_sites(p, arr.shape[0], f"vector of length {arr.shape[0]}")
    total = Fraction(p.constant)
    for t in p.terms:
        prod = Fraction(t.coefficient)
        for site, power in t.factors:
            prod *= Fraction(float(arr[site])) ** power
        total += prod
    return total


def _renamed(p, index):
    """p with every factor's site s renamed index[s], terms in p's order; each Term sorts its renamed factors."""
    return Potential(
        tuple(Term(t.coefficient, tuple((int(index[s]), pw) for s, pw in t.factors)) for t in p.terms), p.constant
    )


def reflect_potential(lattice, p):
    """Substitute site -> theta(site) in every factor. An exact involution."""
    check_sites(p, lattice.site_count, f"lattice of {lattice.site_count} sites")
    return canonicalize(_renamed(p, lattice.theta_perm))


MIXED_SUPPORT = "mixed-support"
UNMATCHED_MIRROR = "unmatched-mirror"


@dataclass(frozen=True)
class Violation:
    term: Term
    reason: str


@dataclass(frozen=True)
class SplitResult:
    is_splitting: bool
    witness_g: Potential | None   # over half indices 0..N/2-1 when splitting
    violations: tuple = ()


def _support_class(lattice, term):
    sites = [s for s, _ in term.factors]
    on_plus = [lattice.half_of[s] >= 0 for s in sites]
    if all(on_plus):
        return "plus"
    if not any(on_plus):
        return "minus"
    return "mixed"


def split_check(lattice, f):
    """Decide whether f splits across the reflection plane and extract a witness.

    Decision: a term touching both halves kills splitting outright; otherwise
    the positive-half terms must mirror the negative-half terms coefficient
    for coefficient. The witness G carries the positive-half terms rewritten
    over half indices, with half of f's constant, so that

        f(T) = G(restrict_plus(T)) + G(restrict_plus(reflect(T)))

    holds as an identity of polynomials. The identity is re-derived in term
    algebra before returning; failure there is an internal error.
    """
    f = canonicalize(f)

    support = {"plus": [], "minus": [], "mixed": []}
    for t in f.terms:
        support[_support_class(lattice, t)].append(t)
    if support["mixed"]:
        return SplitResult(False, None, tuple(Violation(t, MIXED_SUPPORT) for t in support["mixed"]))

    f_plus = Potential(tuple(support["plus"]), 0.0)
    mirror = reflect_potential(lattice, Potential(tuple(support["minus"]), 0.0))

    residual = add_potentials(f_plus, negate_potential(mirror))
    if residual.terms:
        return SplitResult(
            False, None, tuple(Violation(t, UNMATCHED_MIRROR) for t in residual.terms)
        )

    witness = canonicalize(_renamed(Potential(f_plus.terms, f.constant / 2.0), lattice.half_of))

    plus = lattice.plus_sites
    rebuilt = add_potentials(_renamed(witness, plus), _renamed(witness, lattice.theta_perm[plus]))
    if rebuilt != f:
        raise AssertionError("witness reconstruction failed to reproduce the density exactly")
    return SplitResult(True, witness, ())


def phi4(lattice, coupling):
    """Quartic density -coupling * sum over sites of field^4.

    Bounded above by zero, so its exponential is integrable against any
    Gaussian base measure.
    """
    lam = as_float(coupling, "coupling")
    if not (lam > 0 and math.isfinite(lam)):  # NaN fails
        raise ValueError(f"coupling must be positive and finite, got {coupling}")
    terms = tuple(Term(-lam, ((site, 4),)) for site in range(lattice.site_count))
    return canonicalize(Potential(terms, 0.0))


def _coeff_repr(c):
    # integers written as integers so round-trips preserve what the user typed
    return int(c) if float(c).is_integer() and abs(c) < 2**53 else float(c)


def potential_to_obj(lattice, p):
    """Wire form: terms with site coordinates, suitable for JSON."""
    terms = []
    for t in p.terms:
        factors = [{"site": [int(x) for x in lattice.coords[site]], "power": int(power)} for site, power in t.factors]
        terms.append({"coefficient": _coeff_repr(t.coefficient), "factors": factors})
    return {"terms": terms, "constant": _coeff_repr(p.constant)}


def potential_from_obj(lattice, obj):
    """Parse the wire form back into a canonical full-lattice potential."""
    if not isinstance(obj, dict):
        raise ValueError("potential must be an object with 'terms' and 'constant'")
    terms = []
    for entry in obj.get("terms", []):
        factors = tuple((lattice.index_of(f["site"]), f["power"]) for f in entry["factors"])
        terms.append(Term(entry["coefficient"], factors))
    return canonicalize(Potential(tuple(terms), obj.get("constant", 0.0)))
