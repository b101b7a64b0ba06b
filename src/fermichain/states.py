"""States over a ProductBasis, and the initial states of the tunneling
experiments.  A state is its amplitude array: every constructor here returns
a read-only complex (basis.dim,) array, indexed as the basis orders its
configurations.  Every initial state is a list of entries (up sites, down
sites, amplitude), sites 1-based and in any order; check_entries holds the
rules, from_entries builds one on a basis, and named_state builds a kind of
ENTRIES (doublon, singlet, ...) from its site fields, as a config names it;
its mirror image is the same kind at sites L+1-j, up to a global sign.

Singlet and triplet labels refer to the spinor ordering fixed in the basis
module: |up_i down_j> means c+_{i,up} c+_{j,down} |0>, so

    singlet(i,j) = (|up_i down_j> - |down_i up_j>) / sqrt(2)
                 = (|{i},{j}> + |{j},{i}>) / sqrt(2)   in canonical configurations,

because |down_i up_j> = -|{j},{i}> after reordering the operators.
"""

from __future__ import annotations

import cmath
import inspect
from numbers import Complex, Integral

import numpy as np

from .basis import ProductBasis, site_bit
from .errors import ParameterError

NORM_TOLERANCE = 1e-6  # allowed distance of a user-supplied state's norm from 1


def check_entries(entries, L: int | None = None) -> float:
    """The norm of entries (up sites, down sites, amplitude), the one rule for
    every initial state: a list or tuple of such triples, each species' sites a
    list or tuple of integers (not bools), none twice and on [1, L] if L is
    given; one particle-number sector, no configuration twice, finite amplitudes
    (not bools) of norm within NORM_TOLERANCE of 1 (no entries have norm 0).
    Raises ParameterError naming the first entry that breaks a rule."""
    if not isinstance(entries, (list, tuple)):
        raise ParameterError(f"entries must be a list or tuple, got {entries!r}")
    seen = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParameterError(f"entries[{k}] must be (up sites, down sites, amplitude), "
                                 f"got {entry!r}")
        up, down, amp = entry
        for species, sites in (("up", up), ("down", down)):
            if not isinstance(sites, (list, tuple)):
                raise ParameterError(f"entries[{k}].{species} must be a list of sites, "
                                     f"got {sites!r}")
            if bad := [s for s in sites if isinstance(s, bool) or not isinstance(s, Integral)]:
                raise ParameterError(f"entries[{k}].{species} site {bad[0]!r} is not an integer")
            if len(set(sites)) != len(sites):
                raise ParameterError(f"entries[{k}].{species} repeats a site: {list(sites)}")
            if L is not None and (off := [s for s in sites if not 1 <= s <= L]):
                raise ParameterError(f"entries[{k}].{species} site {off[0]} outside chain [1, {L}]")
        if isinstance(amp, bool) or not isinstance(amp, Complex) or not cmath.isfinite(amp):
            raise ParameterError(f"entries[{k}] amplitude {amp!r} is not a finite number")
        sector, first = (len(up), len(down)), tuple(map(len, entries[0][:2]))
        if sector != first:
            raise ParameterError(f"entries[{k}] lie in the {sector} sector, "
                                 f"entries[0] in the {first} sector")
        config = (frozenset(up), frozenset(down))
        if config in seen:
            raise ParameterError(f"entries[{k}] repeat the configuration of entries[{seen[config]}]")
        seen[config] = k
    norm = float(np.linalg.norm([amp for _, _, amp in entries]))
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ParameterError(f"amplitudes have norm {norm:.17g}, expected 1 within "
                             f"{NORM_TOLERANCE:g}")
    return norm


def from_entries(basis: ProductBasis, entries) -> np.ndarray:
    """The read-only amplitudes (basis.dim,) of entries (up sites, down sites,
    amplitude) on basis, checked by check_entries on the basis's chain and
    scaled to norm 1; an entry outside the basis's sector raises ParameterError."""
    norm = check_entries(entries, basis.L)
    up, down = np.array([[sum(map(site_bit, e[0])), sum(map(site_bit, e[1]))] for e in entries]).T
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(up, down)] = [e[2] for e in entries]
    amps /= norm
    amps.setflags(write=False)
    return amps


_PAIR = 1.0 / np.sqrt(2.0)  # each amplitude of a two-site spin pair

# kind -> its entries, from its site fields in this order
ENTRIES = {
    "doublon": lambda site: (((site,), (site,), 1.0),),  # both species on one site
    "singlet": lambda i, j: (((i,), (j,), _PAIR), ((j,), (i,), _PAIR)),  # S^2 eigenvalue 0
    "triplet": lambda i, j: (((i,), (j,), _PAIR), ((j,), (i,), -_PAIR)),  # S_z = 0, S^2 = 2
    "doublon_plus_up": lambda doublon_site, up_site: (  # a spin-up spectator: sector (2, 1)
        ((doublon_site, up_site), (doublon_site,), 1.0),),
    "single_particle": lambda site: (((site,), (), 1.0),),  # one spin up: sector (1, 0)
}


def named_state(basis: ProductBasis, kind: str, *sites, **fields) -> np.ndarray:
    """The state of a named kind on basis, from its site fields as a config
    names them: named_state(basis, "singlet", 1, 2) is {kind: singlet, i: 1, j: 2}.
    A missing, extra or misnamed field raises ParameterError naming the kind's fields."""
    if not isinstance(kind, str) or kind not in ENTRIES:
        raise ParameterError(f"unknown state kind {kind!r}; known: {sorted(ENTRIES)}")
    signature = inspect.signature(ENTRIES[kind])
    try:
        bound = signature.bind(*sites, **fields)
    except TypeError as exc:
        raise ParameterError(f"a {kind} takes the fields {list(signature.parameters)}: "
                             f"{exc}") from None
    return from_entries(basis, ENTRIES[kind](*bound.args, **bound.kwargs))

