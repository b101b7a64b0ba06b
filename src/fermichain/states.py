"""Constructors for the initial states of the tunneling experiments.

Singlet and triplet labels refer to the spinor ordering fixed in the basis
module: |up_i down_j> means c+_{i,up} c+_{j,down} |0>, so

    singlet(i,j) = (|up_i down_j> - |down_i up_j>) / sqrt(2)
                 = (|{i},{j}> + |{j},{i}>) / sqrt(2)   in canonical configurations,

because |down_i up_j> = -|{j},{i}> after reordering the operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import ProductBasis, mirror_mask, popcount, reorder_sign, site_bit
from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over a ProductBasis."""

    basis: ProductBasis | None
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _finish(basis: ProductBasis | None, amps: np.ndarray) -> StateVector:
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    amps.setflags(write=False)
    return StateVector(basis=basis, amplitudes=amps)


NORM_TOLERANCE = 1e-6  # allowed distance of a user-supplied state's norm from 1


def from_amplitudes(basis: ProductBasis, amplitudes) -> StateVector:
    """Wrap a user-supplied amplitude vector; must be normalized within NORM_TOLERANCE."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (basis.dim,):
        raise ParameterError(f"amplitudes have shape {amps.shape}, expected ({basis.dim},)")
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > NORM_TOLERANCE:
        raise ParameterError(f"amplitudes have norm {nrm}, expected 1 within {NORM_TOLERANCE}")
    return _finish(basis, amps / nrm)


def _require_sector(basis: ProductBasis, n_up: int, n_down: int, what: str) -> None:
    if (basis.up.N, basis.down.N) != (n_up, n_down):
        raise ParameterError(
            f"{what} lives in the ({n_up},{n_down}) sector, basis is "
            f"({basis.up.N},{basis.down.N})"
        )


def doublon_at(basis: ProductBasis, site: int) -> StateVector:
    """Both species on one site."""
    _require_sector(basis, 1, 1, "doublon")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(site_bit(site), site_bit(site))] = 1.0
    return _finish(basis, amps)


def single_particle_at(basis: ProductBasis, site: int) -> StateVector:
    """One spin-up particle on one site (sector (1, 0))."""
    _require_sector(basis, 1, 0, "single particle")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(site_bit(site), 0)] = 1.0
    return _finish(basis, amps)


def _pair(basis: ProductBasis, i: int, j: int, relative_sign: int) -> StateVector:
    _require_sector(basis, 1, 1, "two-site spin pair")
    if i == j:
        raise ParameterError("pair sites must differ (equal sites would be the doublon)")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(site_bit(i), site_bit(j))] = 1.0 / np.sqrt(2.0)
    amps[basis.index(site_bit(j), site_bit(i))] = relative_sign / np.sqrt(2.0)
    return _finish(basis, amps)


def singlet_pair(basis: ProductBasis, i: int, j: int) -> StateVector:
    """Spin singlet on sites i, j; S^2 eigenvalue 0."""
    return _pair(basis, i, j, +1)


def triplet_pair(basis: ProductBasis, i: int, j: int) -> StateVector:
    """S_z = 0 spin triplet on sites i, j; S^2 eigenvalue 2."""
    return _pair(basis, i, j, -1)


def doublon_plus_up(basis: ProductBasis, doublon_site: int, up_site: int) -> StateVector:
    """A doublon plus one extra spin-up spectator (sector (2, 1))."""
    _require_sector(basis, 2, 1, "doublon plus spin-up")
    if doublon_site == up_site:
        raise ParameterError("spectator site collides with the doublon site")
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index(site_bit(doublon_site) | site_bit(up_site), site_bit(doublon_site))] = 1.0
    return _finish(basis, amps)


def mirror_state(basis: ProductBasis, psi: StateVector) -> StateVector:
    """Unitary parity (reflection about the chain center) of a state.

    Each configuration maps to its mirror image; reflecting a species reverses
    its creation-operator order, so each mask of k particles contributes
    reorder_sign(k).  The total sign is constant on a fixed sector, making
    this an involution with global phase +1.
    """
    if psi.basis is not basis:
        raise ParameterError("state does not live on the given basis")
    L = basis.L
    out = np.zeros(basis.dim, dtype=np.complex128)
    src = psi.amplitudes.reshape(basis.up.dim, basis.down.dim)
    dst = out.reshape(basis.up.dim, basis.down.dim)
    for iu, mu in enumerate(basis.up.masks):
        mu_m = mirror_mask(L, int(mu))
        ku = basis.up.index(mu_m)
        sign_u = reorder_sign(popcount(mu_m))
        for idn, md in enumerate(basis.down.masks):
            amp = src[iu, idn]
            if amp == 0:
                continue
            md_m = mirror_mask(L, int(md))
            dst[ku, basis.down.index(md_m)] = sign_u * reorder_sign(popcount(md_m)) * amp
    return _finish(basis, out)
