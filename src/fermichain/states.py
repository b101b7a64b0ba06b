"""States over a ProductBasis, and the initial states of the tunneling
experiments.  A StateBlock holds one state (dim,) or a block of them;
every constructor here returns a one-state block whose amplitudes are
read-only.  Every initial state is a list of entries (up sites, down
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

import inspect
from functools import cached_property
from numbers import Integral

import numpy as np

from .basis import ProductBasis, site_bit
from .errors import ParameterError

SPINS = ("up", "down")


class StateBlock:
    """Consecutive states over one basis, one per row of an (n, dim) array, or
    the n states of each of the k runs of a stack, (k, n, dim); one state
    (dim,) reads as a block without the n axis.

    Observable callables map a block to n values, or to (k, n).  What several
    columns read, the occupation probabilities and the per-site densities, is
    computed once per block and shared.
    """

    def __init__(self, basis: ProductBasis | None, amplitudes: np.ndarray):
        self.basis = basis
        self.amplitudes = amplitudes

    @cached_property
    def probabilities(self) -> np.ndarray:
        """|psi|^2 of each state, shaped (..., n, dim_up, dim_down)."""
        a = self.amplitudes
        return (a.real ** 2 + a.imag ** 2).reshape(
            a.shape[:-1] + (self.basis.up.dim, self.basis.down.dim))

    @cached_property
    def _densities(self) -> dict:
        p = self.probabilities
        up = p.sum(axis=-1) @ self.basis.up.occupations
        down = p.sum(axis=-2) @ self.basis.down.occupations
        return {None: up + down, "up": up, "down": down}

    def density(self, spin: str | None = None) -> np.ndarray:
        """Per-site expected occupations, (..., n, L): both species, or one spin."""
        if spin is not None and spin not in SPINS:
            raise ParameterError(f"spin must be in {SPINS} or None, got {spin!r}")
        return self._densities[spin]


def _finish(basis: ProductBasis, amps: np.ndarray) -> StateBlock:
    """One state with read-only amplitudes."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    amps.setflags(write=False)
    return StateBlock(basis, amps)


NORM_TOLERANCE = 1e-6  # allowed distance of a user-supplied state's norm from 1


def _norm(amps) -> float:
    """The norm of a state's amplitudes, refused when off 1 by more than NORM_TOLERANCE."""
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ParameterError(f"amplitudes have norm {norm:.17g}, expected 1 within "
                             f"{NORM_TOLERANCE:g}")
    return norm


def from_amplitudes(basis: ProductBasis, amplitudes) -> StateBlock:
    """Wrap a user-supplied amplitude vector; must be normalized within NORM_TOLERANCE."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (basis.dim,):
        raise ParameterError(f"amplitudes have shape {amps.shape}, expected ({basis.dim},)")
    return _finish(basis, amps / _norm(amps))


def check_entries(entries) -> float:
    """The norm of entries (up sites, down sites, amplitude) that make a state,
    on any chain: no site twice in one species, one particle-number sector, no
    configuration twice, integer sites (not bools) and a norm within
    NORM_TOLERANCE of 1.  Raises ParameterError naming the first entry that
    breaks a rule."""
    seen = {}
    for k, (up, down, _) in enumerate(entries):
        for species, sites in (("up", up), ("down", down)):
            if bad := [s for s in sites if isinstance(s, bool) or not isinstance(s, Integral)]:
                raise ParameterError(f"entries[{k}].{species} site {bad[0]!r} is not an integer")
            if len(set(sites)) != len(sites):
                raise ParameterError(f"entries[{k}].{species} repeats a site: {list(sites)}")
        sector, first = (len(up), len(down)), tuple(map(len, entries[0][:2]))
        if sector != first:
            raise ParameterError(f"entries[{k}] lie in the {sector} sector, "
                                 f"entries[0] in the {first} sector")
        config = (frozenset(up), frozenset(down))
        if config in seen:
            raise ParameterError(f"entries[{k}] repeat the configuration of entries[{seen[config]}]")
        seen[config] = k
    return _norm([amp for _, _, amp in entries])


def from_entries(basis: ProductBasis, entries) -> StateBlock:
    """The state of entries (up sites, down sites, amplitude) on basis, checked
    by check_entries and scaled to norm 1; a site off the chain or an entry
    outside the basis's sector raises ParameterError."""
    norm = check_entries(entries)
    if off := [s for up, down, _ in entries for s in (*up, *down) if not 1 <= s <= basis.L]:
        raise ParameterError(f"site {off[0]} outside chain [1, {basis.L}]")
    up, down = np.array([[sum(map(site_bit, e[0])), sum(map(site_bit, e[1]))] for e in entries]).T
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.up.index(up) * basis.down.dim + basis.down.index(down)] = [e[2] for e in entries]
    return _finish(basis, amps / norm)


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


def named_state(basis: ProductBasis, kind: str, *sites, **fields) -> StateBlock:
    """The state of a named kind on basis, from its site fields as a config
    names them: named_state(basis, "singlet", 1, 2) is {kind: singlet, i: 1, j: 2}.
    A missing, extra or misnamed field raises ParameterError naming the kind's fields."""
    if kind not in ENTRIES:
        raise ParameterError(f"unknown state kind {kind!r}; known: {sorted(ENTRIES)}")
    signature = inspect.signature(ENTRIES[kind])
    try:
        bound = signature.bind(*sites, **fields)
    except TypeError as exc:
        raise ParameterError(f"a {kind} takes the fields {list(signature.parameters)}: "
                             f"{exc}") from None
    return from_entries(basis, ENTRIES[kind](*bound.args, **bound.kwargs))

