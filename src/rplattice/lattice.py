"""Finite time-reflection-symmetric lattices.

Sites carry a nonzero integer time coordinate in -T..-1, 1..T together with
d periodic spatial coordinates. Time zero is excluded, so the reflection
(t, x) -> (-t, x) is a fixed-point-free involution that splits the site set
into the positive-time half and its mirror image. The reflection plane sits
on the link between t = -1 and t = +1 ("link reflection").

Sites are numbered in C order over the grid of shape (2T, L1, ..., Ld), time
leading: time rank r holds t = r - T for r < T and t = r - T + 1 otherwise.
So site order is lexicographic in (t, x1, ..., xd) with t ascending, the
negative half is the first N/2 sites and the positive half the last N/2, and
the reflection reverses the time axis. Every matrix and report built on top
of a lattice is reproducible byte for byte.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


def as_int(value, what):
    """int(value), refusing booleans, non-numbers and any real number that int() would change."""
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    try:
        exact = real and value == int(value)
    except (OverflowError, ValueError):  # int() of an infinity or a NaN
        exact = False
    if not exact:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_float(value, what):
    """float(value), refusing booleans and anything that is not a real number."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Lattice:
    """Lattice geometry, a value of its shape; safe for concurrent shared reads.

    Equality, hashing and dataclasses.replace go by the two fields alone.
    The arrays below are derived from them on construction and are read-only:

    coords       (N, 1+d) int64 array, row i = (t, x) of site i
    theta_perm   site index of the time-reflected partner
    plus_sites   indices with t >= 1, in canonical order
    minus_sites  indices with t <= -1, in canonical order
    half_of      position within plus_sites, -1 on the minus half
    """

    time_extent: int
    spatial_extents: tuple

    def __post_init__(self):
        T = as_int(self.time_extent, "time_extent")
        if T < 1:
            raise ValueError(f"time_extent must be >= 1, got {self.time_extent}")
        extents = tuple(as_int(L, "spatial extent") for L in self.spatial_extents)
        if any(L < 1 for L in extents):
            raise ValueError(f"spatial extents must be >= 1, got {list(self.spatial_extents)}")
        object.__setattr__(self, "time_extent", T)
        object.__setattr__(self, "spatial_extents", extents)

        n = math.prod(self.shape)
        coords = np.indices(self.shape, dtype=np.int64).reshape(len(self.shape), n).T.copy()
        coords[:, 0] += np.where(coords[:, 0] < T, -T, 1 - T)
        sites = np.arange(n)
        half = n // 2
        derived = {
            "coords": coords,
            "theta_perm": sites.reshape(2 * T, -1)[::-1].ravel(),
            "plus_sites": np.arange(half, n),
            "minus_sites": np.arange(half),
            "half_of": np.where(sites < half, -1, sites - half),
        }
        for name, array in derived.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def shape(self):
        """The site grid (2T, L1, ..., Ld); site i is its i-th entry in C order."""
        return (2 * self.time_extent, *self.spatial_extents)

    @property
    def site_count(self):
        return self.coords.shape[0]

    @property
    def n_plus(self):
        return self.plus_sites.shape[0]

    def index_of(self, coord):
        """Map a (t, x1, ..., xd) coordinate tuple to its site index."""
        if len(coord) != len(self.shape):
            raise ValueError(f"coordinate has {len(coord)} entries, lattice needs {len(self.shape)}")
        t, *x = (as_int(c, "coordinate") for c in coord)
        T = self.time_extent
        if t == 0 or t < -T or t > T:
            raise ValueError(f"time coordinate {t} outside -{T}..-1, 1..{T}")
        for xi, extent in zip(x, self.spatial_extents):
            if not 0 <= xi < extent:
                raise ValueError(f"spatial coordinate {xi} outside 0..{extent - 1}")
        time_rank = t + T if t < 0 else t + T - 1
        return int(np.ravel_multi_index((time_rank, *x), self.shape))


def build_lattice(time_extent, spatial_extents=()):
    """Construct the lattice with 2*T time slices and periodic spatial torus."""
    return Lattice(time_extent, tuple(spatial_extents))


def _as_site_vector(lattice, v):
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (lattice.site_count,):
        raise ValueError(
            f"vector has shape {arr.shape}, lattice has {lattice.site_count} sites"
        )
    return arr


def reflect(lattice, v):
    """Apply time reflection to a site vector: out[i] = v[theta(i)].

    A pure permutation, so applying it twice returns the input bit-exactly.
    """
    return _as_site_vector(lattice, v)[lattice.theta_perm]


def restrict_plus(lattice, v):
    """Entries of v on the positive-time half, in canonical half ordering."""
    return _as_site_vector(lattice, v)[lattice.plus_sites]


def embed_plus(lattice, h):
    """Zero-extend a half vector to the full lattice (section of restrict_plus)."""
    arr = np.asarray(h, dtype=np.float64)
    if arr.shape != (lattice.n_plus,):
        raise ValueError(f"half vector has shape {arr.shape}, expected ({lattice.n_plus},)")
    out = np.zeros(lattice.site_count, dtype=np.float64)
    out[lattice.plus_sites] = arr
    return out


def positive_support(lattice, v):
    """True iff every entry at a negative-time site is exactly zero.

    Exact zero, not a tolerance: test functions are user-specified inputs,
    not computed quantities.
    """
    arr = _as_site_vector(lattice, v)
    return bool(np.all(arr[lattice.minus_sites] == 0.0))
