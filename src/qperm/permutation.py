"""Quantum-permutation analysis: characters and the classical version read
off their Birkhoff slices, character supports, the random / truly-quantum
decomposition, stabiliser quasi-subgroups, and the fixed-point observable."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import permgroups
from .algebra import (
    AlgebraError,
    Projection,
    State,
    _certify,
    _projection_residuals,
    _require_states,
    _self_adjoint_eig,
    meet,
    spectral_partition,
)
from .cqg import CompactQuantumGroup, _character_stack, _sandwich_matrix, birkhoff_matrix
from .idempotent import _conditioned_rows, face_idempotent, is_group_like


def _slices(G: CompactQuantumGroup, D: np.ndarray) -> np.ndarray:
    """The (n, N, N) slices of an (n, d) stack of states, checked real and
    doubly stochastic."""
    P = np.moveaxis(G.magic @ D.T, -1, 0)
    _certify("slice of a state should be real", np.abs(P.imag).max(initial=0.0), 1e-8)
    P = P.real
    sums = np.concatenate([P.sum(axis=1), P.sum(axis=2)], axis=1)
    _certify("slice is not doubly stochastic", np.abs(sums - 1).max(initial=0.0), 1e-7)
    _certify("slice has a negative entry; not a state?", -P.min(initial=0.0), 1e-8)
    return P


def _slice_permutations(P: np.ndarray) -> list:
    """Per slice of an (n, N, N) stack, sigma if P is within 1e-8 of P_sigma, else None."""
    R = np.round(P)
    ok = ((np.abs(P - R) <= 1e-8).all(axis=(1, 2)) & (R >= 0).all(axis=(1, 2))
          & (R.sum(axis=1) == 1).all(axis=1) & (R.sum(axis=2) == 1).all(axis=1))
    return [tuple(int(i) for i in r.argmax(axis=0)) if good else None
            for r, good in zip(R, ok)]


@dataclass
class ClassicalVersion:
    """The finite group of characters, as permutations, with their supports,
    p_C and p_Q with their sandwich matrices (:func:`cqg._sandwich_matrix`),
    and the residuals of the three convolution identities of
    :func:`_bound_identity_residuals`."""

    permutations: list[tuple]
    characters: list[State]
    supports: list[Projection]
    p_C: Projection
    p_Q: Projection
    S_C: np.ndarray
    S_Q: np.ndarray
    identity_residuals: tuple[float, float, float]

    def __len__(self):
        return len(self.permutations)


def classical_version(G: CompactQuantumGroup) -> ClassicalVersion:
    """The characters (:func:`cqg.characters`) as permutations, sorted, so
    identity first, their supports z, p_C = sum z and p_Q = 1 - p_C.

    Each check runs once over the stack: every slice is a permutation
    matrix, the permutations are pairwise distinct and closed under
    composition, the supports, p_C and p_Q are projections, p_C is
    group-like, and the three convolution identities of
    :func:`_bound_identity_residuals` hold within tol.
    """
    alg = G.algebra
    z, chi = _character_stack(G)
    perms = _slice_permutations(_slices(G, chi))
    if None in perms:
        raise AlgebraError("character with a non-permutation slice")
    if len(set(perms)) < len(perms):
        raise AlgebraError("character permutations are not distinct")
    try:
        permgroups.FiniteGroup.from_permutations(perms)
    except ValueError:
        raise AlgebraError("character permutations do not form a group") from None
    order = sorted(range(len(perms)), key=perms.__getitem__)  # identity first
    z, chi = z[order], chi[order]
    p_C = z.sum(axis=0)
    _certify("a character support, p_C or p_Q is not a projection",
             _projection_residuals(alg, np.vstack([z, p_C, alg.unit - p_C])).max(), alg.tol)
    p_C, p_Q = (Projection(alg, x, check=False) for x in (p_C, alg.unit - p_C))
    if not is_group_like(G, p_C):
        raise AlgebraError("sum of character supports is not group-like")
    S_C, S_Q = (_sandwich_matrix(G, p.coeffs) for p in (p_C, p_Q))
    residuals = _bound_identity_residuals(G, p_Q.coeffs, S_C, S_Q)
    _certify("classical version fails a convolution identity", max(residuals), alg.tol)
    return ClassicalVersion([perms[k] for k in order],
                            [State(alg, x, check=False) for x in chi],
                            [Projection(alg, x, check=False) for x in z], p_C, p_Q,
                            S_C, S_Q, residuals)


def _bound_identity_residuals(G: CompactQuantumGroup, p_Q: np.ndarray, S_C: np.ndarray,
                              S_Q: np.ndarray) -> tuple[float, float, float]:
    """max |.| of S_C^T X S_C, S_C^T (X - J) S_Q and S_Q^T (X - J) S_C, with
    X = Delta(p_Q) and J = Delta(1) = u u^T as (d, d) matrices and S_C, S_Q
    the sandwich matrices of p_C and p_Q = 1 - p_C.

    (phi (x) rho)(X) is (phi * rho)(p_Q), so the identities say: two
    classical parts convolve to a classical state, and a classical part
    convolved with a quantum part, on either side, is wholly quantum.  With
    alpha = phi(p_Q) and beta = rho(p_Q) they give
    (phi * rho)(p_Q) = alpha (1 - beta) + beta (1 - alpha) + alpha beta t,
    t in [0, 1]: the bounds of :func:`dynamics.convolution_bounds`.
    """
    X = G.delta_applied(p_Q)
    XJ = X - np.outer(G.algebra.unit, G.algebra.unit)
    return tuple(float(np.abs(M).max()) for M in (S_C.T @ X @ S_C, S_C.T @ XJ @ S_Q,
                                                   S_Q.T @ XJ @ S_C))


def projection_rank(p: Projection) -> int:
    """Rank of p in the left regular representation, the trace of L_p."""
    return int(round(float((p.coeffs @ p.algebra._regular_trace).real)))


def quantum_fraction(phi: State, cv: ClassicalVersion) -> float:
    """Mass of the state off the classical part: phi(p_Q) in [0, 1]."""
    return float(_quantum_fractions(phi.duals[np.newaxis], cv)[0])


def _quantum_fractions(D: np.ndarray, cv: ClassicalVersion) -> np.ndarray:
    """phi(p_Q) of each row of an (n, d) stack of states, range-checked and clipped."""
    vals = D @ cv.p_Q.coeffs
    _certify("quantum fraction out of range",
             np.max([abs(vals.imag), -vals.real, vals.real - 1], initial=0.0), 1e-8)
    return np.minimum(np.maximum(vals.real, 0.0), 1.0)


def decompose(G: CompactQuantumGroup, phi: State, cv: ClassicalVersion):
    """(alpha, phi_C, phi_Q): convex split into random and truly quantum parts.

    Degenerate alpha in {0, 1} leaves the undefined component as None.
    """
    alpha, parts, defined = _decomposed_rows(G, phi.duals[np.newaxis], cv)
    return float(alpha[0]), *(State(G.algebra, x, check=False) if ok else None
                               for x, ok in zip(parts[0], defined[0]))


def _decomposed_rows(G: CompactQuantumGroup, D: np.ndarray, cv: ClassicalVersion):
    """alpha, the (n, 2, d) parts [phi_C, phi_Q] and the (n, 2) mask of the
    defined parts of an (n, d) stack of states; a part of mass at most 2 tol
    is dropped whole.  Every part is checked as a state, in one stack, and
    every row by reconstruction.  The sandwich matrices are the ones that
    :func:`classical_version` kept."""
    alpha = _quantum_fractions(D, cv)
    weights = np.stack([1 - alpha, alpha], axis=1)
    defined = weights > 2 * G.algebra.tol
    parts = np.zeros((len(D), 2, G.dim), dtype=complex)
    for k, (p, S) in enumerate(((cv.p_C, cv.S_C), (cv.p_Q, cv.S_Q))):
        parts[defined[:, k], k] = _conditioned_rows(G, D[defined[:, k]], p, S)
    _require_states(G.algebra, parts[defined])
    _certify("random/quantum decomposition failed to reconstruct",
             np.abs((weights[:, :, np.newaxis] * parts).sum(axis=1) - D).max(initial=0), 1e-8)
    return alpha, parts, defined


# -- stabilisers --------------------------------------------------------------


def canonical_partition(P, N: int) -> list[list[int]]:
    """Blocks sorted by minimum element; must be non-empty and partition
    {0..N-1}, each point listed once."""
    blocks = [sorted(b) for b in P]
    flat = sorted(x for b in blocks for x in b)
    if flat != list(range(N)) or not all(blocks):
        raise AlgebraError("not a partition of the label set")
    return sorted(blocks, key=lambda b: b[0])


def _off_pattern(N: int, partition) -> list[tuple[int, int]]:
    """Every (i, j) with i and j in different blocks, in row-major order."""
    block_of = {x: k for k, b in enumerate(canonical_partition(partition, N)) for x in b}
    return [(i, j) for i in range(N) for j in range(N) if block_of[i] != block_of[j]]


def stabiliser_membership(G: CompactQuantumGroup, phi: State, partition) -> bool:
    """phi(u_ij) = 0 within 1e-8 whenever i and j lie in different blocks."""
    i, j = np.array(_off_pattern(G.N, partition), dtype=int).reshape(-1, 2).T
    return bool(np.abs(birkhoff_matrix(G, phi)[i, j]).max(initial=0.0) <= 1e-8)


def stabiliser_projection(G: CompactQuantumGroup, partition) -> Projection:
    """Meet of the complements of all off-pattern magic entries.

    A state lies in the stabiliser quasi-subgroup iff it gives this
    projection full mass.
    """
    one = G.algebra.unit
    ps = [Projection(G.algebra, one - G.magic[i, j])
          for i, j in _off_pattern(G.N, partition)]
    if not ps:
        return Projection(G.algebra, one)
    return meet(ps)


def stabiliser_idempotent(G: CompactQuantumGroup, partition) -> State:
    """Idempotent of the stabiliser quasi-subgroup of a partition.

    The quasi-subgroup is the face {phi : phi(r) = 1} of the state space,
    with r the stabiliser projection, and psi is its certified face
    idempotent (:func:`idempotent.face_idempotent`).  psi must also satisfy
    the stabiliser pattern (:func:`stabiliser_membership`) and give every
    diagonal magic entry positive mass.
    """
    blocks = canonical_partition(partition, G.N)
    psi = face_idempotent(G, stabiliser_projection(G, blocks))
    if not stabiliser_membership(G, psi, blocks):
        raise AlgebraError("stabiliser idempotent escaped the quasi-subgroup")
    diag = [psi(G.magic_projection(j, j)).real for j in range(G.N)]
    if not np.min(diag) > 1e-10:
        raise AlgebraError("stabiliser idempotent must weight every diagonal entry")
    return psi


# -- fixed points --------------------------------------------------------------


@dataclass
class FixSpectrum:
    """Spectral data of the main character fix = sum_j u_jj."""

    eigenvalues: list[float]
    projections: list[Projection]

    def distribution(self, phi: State) -> list[tuple[float, float]]:
        weights = [max(phi(p).real, 0.0) for p in self.projections]
        _certify("spectral weights do not sum to 1", abs(sum(weights) - 1.0), 1e-7)
        return list(zip(self.eigenvalues, weights))


def fix_spectrum(G: CompactQuantumGroup) -> FixSpectrum:
    fix = G.fix_element()
    parts = spectral_partition(fix)  # in increasing order
    lams = [lam for lam, _ in parts]
    _certify("fix spectrum escapes [0, N]", np.max([-lams[0], lams[-1] - G.N]), 1e-8)
    return FixSpectrum(lams, [p for _, p in parts])


def fix_eigenvector_seed(G: CompactQuantumGroup) -> State:
    """Equal mix of the vector states of two eigenvectors of fix, for the
    eigenvalues nearest 2 and 4 fixed points, both from one decomposition."""
    evals, W = _self_adjoint_eig(G.fix_element())
    duals = [G.vector_state(W[:, np.argmin(np.abs(evals - t))]).duals for t in (2.0, 4.0)]
    return State(G.algebra, np.mean(duals, axis=0))


def has_integer_fixed_points(phi: State, spectrum: FixSpectrum) -> bool:
    """All spectral mass of fix (``spectrum``, from :func:`fix_spectrum`), up
    to 1e-9, sits on eigenvalues within 1e-6 of integers."""
    dist = spectrum.distribution(phi)
    off = sum(w for lam, w in dist if abs(lam - round(lam)) > 1e-6)
    return off <= 1e-9
