"""Idempotent states: Cesaro limits, quasi-subgroups, group-like projections,
wave-function collapse, and the Haar / non-Haar classification.

Convolution by a fixed state is a linear operator on the dual, and the limit
of the Cesaro means (phi + phi*2 + ... + phi*n)/n is that operator's
eigenvalue-1 spectral projector applied to the seed.  Computing the limit
spectrally reaches machine precision where stepwise means stall at O(1/n);
a doubling recursion on the means, M_2n = (M_n + T^n M_n)/2, still supplies
an honest iteration count.

Absorption by an idempotent psi is linear too: the stacked (2d, d) matrix
A = [L_psi - psi u^T; R_psi - psi u^T] sends a unital phi to
(psi * phi - psi, phi * psi - psi).  Quasi-subgroup membership, the
absorption of a whole face and stability under collapse are all read off A
applied to a fixed matrix, with no sampled states.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur, solve_sylvester

from .algebra import (
    AlgebraElement,
    AlgebraError,
    LinearFunctional,
    Projection,
    State,
    _require_states,
    gram_norm,
    support_projection,
)
from .cqg import CompactQuantumGroup, _row_space


@dataclass
class CesaroResult:
    """Limit of the Cesaro means of convolution powers of a seed state.

    ``iterations`` is the Cesaro index n at which the doubling recursion
    became stationary; ``residual`` is the larger of the seed-invariance
    residuals ``|seed * limit - limit|`` and ``|limit * seed - limit|`` in
    sup norm over the basis.
    """

    limit: State
    iterations: int
    residual: float
    converged: bool


@dataclass
class IdempotentClass:
    kind: str                      # "Haar" | "NonHaar"
    null_space_dim: int
    witnesses: list = field(default_factory=list)


def left_convolution_operator(G: CompactQuantumGroup, phi: LinearFunctional) -> np.ndarray:
    """Matrix of rho -> phi * rho on dual coefficient vectors."""
    return phi.duals @ G.delta


def _cesaro_projector(T: np.ndarray) -> np.ndarray:
    """Limit of the operator Cesaro means (1/n) sum T^k.

    For a power-bounded operator this is the spectral projector onto the
    eigenvalue-1 cluster, computed from a sorted Schur form (unimodular
    eigenvalues away from 1 average out, contractive ones die).
    """
    U, Q, sdim = schur(T, output="complex", sort=lambda lam: abs(lam - 1.0) < 1e-8)
    d = T.shape[0]
    if sdim == 0:
        return np.zeros((d, d), dtype=complex)
    if sdim == d:
        return np.eye(d, dtype=complex)
    A, B, C = U[:sdim, :sdim], U[sdim:, sdim:], U[:sdim, sdim:]
    R = solve_sylvester(A, -B, C)
    block = np.zeros((d, d), dtype=complex)
    block[:sdim, :sdim] = np.eye(sdim)
    block[:sdim, sdim:] = R
    return Q @ block @ Q.conj().T


def cesaro_idempotent(G: CompactQuantumGroup, seed: State) -> CesaroResult:
    """Invariant idempotent reached by Cesaro-averaging convolution powers.

    The limit is the eigenvalue-1 spectral projector of left convolution by
    the seed, applied to the seed; a doubling recursion on the means,
    M_2n = (M_n + T^n M_n)/2, supplies the reported iteration count: the
    smallest mean length n = 2^k whose mean is within 10 * iter_tol of the
    limit.  (Doublings stop at 2^30, where repeated squaring is still well
    below the eigenvalue-drift instability of floating point.)  The limit
    has converged if it is idempotent within iter_tol and seed-invariant
    within 10 * iter_tol.  It is checked as a state.
    """
    result = _cesaro_limit(G, seed)
    _require_states(G.algebra, result.limit.duals[np.newaxis])
    return result


def _cesaro_limit(G: CompactQuantumGroup, seed: State) -> CesaroResult:
    """:func:`cesaro_idempotent` with the limit left unchecked."""
    tol = G.algebra.iter_tol
    T = left_convolution_operator(G, seed)
    lim_duals = _cesaro_projector(T) @ seed.duals
    limit = State(G.algebra, lim_duals, check=False)
    M = np.eye(G.dim, dtype=complex)
    P = T.copy()
    iterations = 1
    for _ in range(30):
        M = 0.5 * (M + P @ M)
        iterations *= 2
        if np.abs(M @ seed.duals - lim_duals).max() <= 10 * tol:
            break
        P = P @ P
    left = G.convolve(seed, limit, check=False)
    right = G.convolve(limit, seed, check=False)
    residual = max(limit.distance(left), limit.distance(right))
    idem = limit.distance(G.convolve(limit, limit, check=False))
    converged = idem <= tol and residual <= 10 * tol
    return CesaroResult(limit, iterations, residual, converged)


def is_idempotent(G: CompactQuantumGroup, phi: State, tol: float | None = None) -> bool:
    tol = G.algebra.iter_tol if tol is None else tol
    return phi.distance(G.convolve(phi, phi, check=False)) <= tol


def quasi_subgroup_member(G: CompactQuantumGroup, psi: State, phi: State,
                          tol: float = 1e-7) -> bool:
    """Whether phi is absorbed by the idempotent psi on both sides."""
    if not is_idempotent(G, psi, max(tol, G.algebra.iter_tol)):
        raise AlgebraError("absorbing state is not idempotent")
    return bool(np.abs(_absorption_operator(G, psi) @ phi.duals).max() <= tol)


def _absorption_operator(G: CompactQuantumGroup, psi: State) -> np.ndarray:
    """Stacked (2d, d) matrix [L_psi - psi u^T; R_psi - psi u^T].

    L_psi and R_psi = Delta(.) psi are convolution by psi on the left and on
    the right, and u is the unit, so a unital phi goes to the pair
    (psi * phi - psi, phi * psi - psi): A phi = 0 iff psi absorbs phi on both
    sides.
    """
    rank_one = np.outer(psi.duals, G.algebra.unit)
    return np.vstack([left_convolution_operator(G, psi) - rank_one,
                      G.delta @ psi.duals - rank_one])


def generated_idempotent(G: CompactQuantumGroup, states: list[State]) -> CesaroResult:
    """Idempotent absorbing every input state.

    Each input is first averaged to its own invariant idempotent; the
    convolution of those, in the given order, is averaged again, and the
    construction is repeated, at most 8 times, against any input that is not
    yet absorbed within 10 * iter_tol.  The result has converged only if it
    absorbs every input.
    """
    if not states:
        raise AlgebraError("need at least one state")
    tol = G.algebra.iter_tol
    parts = [cesaro_idempotent(G, phi) for phi in states]
    psi = parts[0].limit
    for r in parts[1:]:
        psi = G.convolve(psi, r.limit, check=False)
    iters = sum(r.iterations for r in parts)
    out = cesaro_idempotent(G, State(G.algebra, psi.duals, check=False))
    for _ in range(8):
        missing = [phi for phi in states
                   if not quasi_subgroup_member(G, out.limit, phi, 10 * tol)]
        if not missing:
            break
        mixed = out.limit
        for phi in missing:
            mixed = G.convolve(G.convolve(mixed, phi, check=False), out.limit,
                               check=False)
        out = cesaro_idempotent(G, State(G.algebra, mixed.duals, check=False))
    residual = max(out.residual,
                   max(out.limit.distance(G.convolve(out.limit, phi, check=False))
                       for phi in states))
    converged = out.converged and all(
        quasi_subgroup_member(G, out.limit, phi, 10 * tol) for phi in states)
    return CesaroResult(out.limit, iters + out.iterations, residual, converged)


def is_group_like(G: CompactQuantumGroup, p: Projection) -> bool:
    """Delta(p)(1 (x) p) = p (x) p within 100 tol, in the Gram norm of the
    tensor square; the zero projection is not group-like."""
    tol = G.algebra.tol
    if gram_norm(p) <= tol:
        return False
    return _group_like_residual(G, p.coeffs) <= 100 * tol


def _group_like_residual(G: CompactQuantumGroup, p: np.ndarray) -> float:
    """Gram norm of X = Delta(p)(1 (x) p) - p (x) p in the tensor square.

    X[a, b] is the coefficient of e_a (x) e_b: row a of Delta(p) is multiplied
    on the right by p.  With g the algebra's Gram matrix, the tensor square's
    is g (x) g, so the squared norm is tr(X^H g X g^T), and only (d, d)
    arrays are formed.
    """
    gram = G.algebra.gram
    X = G.delta_applied(p) @ (p @ G.algebra.mult) - np.outer(p, p)
    val = np.real(np.vdot(X, gram @ X @ gram.T))
    return float(np.sqrt(max(val, 0.0)))


def condition(G: CompactQuantumGroup, phi: State, q: Projection) -> State:
    """Wave-function collapse g -> phi(q g q) / phi(q)."""
    return State(G.algebra, _conditioned_rows(G, phi.duals[np.newaxis], q)[0])


def _conditioned_rows(G: CompactQuantumGroup, D: np.ndarray, q: Projection) -> np.ndarray:
    """phi(q . q) / phi(q) for the rows phi of an (n, d) stack, unchecked."""
    mass = (D @ q.coeffs).real
    if not (mass > G.algebra.tol).all():
        raise AlgebraError("conditioning on a projection of zero mass is undefined")
    return (D @ _sandwich_matrix(G, q.coeffs).T) / mass[:, np.newaxis]


def _sandwich_matrix(G: CompactQuantumGroup, q: np.ndarray) -> np.ndarray:
    """Matrix S with (S phi)(e_i) = phi(q e_i q)."""
    c, d = G.algebra.mult, G.dim
    # rows (e_i q)[k], times W[k, l] = (q e_k)[l]
    return (q @ c) @ (q @ c.reshape(d, d * d)).reshape(d, d)


def _face_absorption_residual(G: CompactQuantumGroup, psi: State, r: Projection) -> float:
    """Largest entry of A S_r, with A the absorption operator of psi.

    A state phi with phi(r) = 1 satisfies phi = S_r phi (Cauchy-Schwarz), so
    A phi = A S_r phi.  States on rAr span the range of S_r: the residual is
    zero iff psi absorbs every state of the face {phi : phi(r) = 1} on both
    sides.
    """
    return float(np.abs(_absorption_operator(G, psi) @ _sandwich_matrix(G, r.coeffs)).max())


def face_idempotent(G: CompactQuantumGroup, r: AlgebraElement) -> State:
    """Idempotent state of the face F_r = {phi : phi(r) = 1} of a
    projection r, certified.

    Van Daele's construction, as the paper adapts it, finds an idempotent in
    every non-empty, weak-* compact, convex set of states closed under
    convolution.  The seed is the trace conditioned on r, faithful on rAr,
    so it lies in the relative interior of F_r and no Haar state is needed;
    psi is its Cesaro limit.  Three certificates:

    - closure: S_r^T X S_r = 0 within tol, with X the coefficient matrix of
      Delta(1 - r) and S_r the sandwich f -> f(r . r): phi * rho gives 1 - r
      no mass for phi, rho in F_r, so F_r is convolution-closed;
    - state: psi is a state with psi(r) = 1 within tol;
    - absorption: A S_r = 0 within 10 * iter_tol, with A the absorption
      operator of psi: psi absorbs every state of F_r on both sides.

    Absorption makes psi the only idempotent of F_r that absorbs F_r.
    """
    alg = G.algebra
    S = _sandwich_matrix(G, r.coeffs)
    closure = np.abs(S.T @ G.delta_applied(alg.unit - r.coeffs) @ S).max()
    if not closure <= alg.tol:
        raise AlgebraError(f"face is not closed under convolution (residual {closure:.3e})")
    seed = _conditioned_rows(G, alg.trace[np.newaxis], r)[0]
    psi = _cesaro_limit(G, State(alg, seed, check=False)).limit
    _require_states(alg, psi.duals[np.newaxis])
    if not abs(psi(r) - 1) <= alg.tol:
        raise AlgebraError("face idempotent left its face")
    if not _face_absorption_residual(G, psi, r) <= 10 * alg.iter_tol:
        raise AlgebraError("face idempotent fails to absorb its face")
    return psi


def null_space(G: CompactQuantumGroup, phi: State) -> np.ndarray:
    """Orthonormal rows spanning N_phi = {f : phi(f* f) = 0}: the
    eigenvectors of phi(e_i^* e_j) below 1e-8 max(1, largest eigenvalue)."""
    P = phi.sesquilinear_matrix()
    P = (P + P.conj().T) / 2
    evals, vecs = np.linalg.eigh(P)
    null = vecs[:, evals < 1e-8 * max(1.0, evals.max())]
    return null.T  # rows are coefficient vectors of null elements


def classify_idempotent(G: CompactQuantumGroup, phi: State) -> IdempotentClass:
    """Haar iff the null space is a two-sided ideal.

    The null space of an idempotent is automatically a left ideal; failures
    of right multiplication beyond 1e-7 are recorded as witnesses.
    """
    tol = 1e-7
    if not is_idempotent(G, phi, tol):
        raise AlgebraError("state is not idempotent")
    N = null_space(G, phi)
    if N.shape[0] == 0:
        return IdempotentClass("Haar", 0, [])
    c = G.algebra.mult
    proj = N.conj().T @ N  # projector onto span(N), acting on row vectors
    witnesses = []
    for i in range(G.dim):
        left = N @ c[i]        # rows: e_i n for n in the null basis
        right = N @ c[:, i, :]  # rows: n e_i
        left_res = np.abs(left - left @ proj).max()
        right_res = np.abs(right - right @ proj).max()
        if right_res > tol:
            witnesses.append((G.algebra.labels[i], "right", float(right_res)))
        if left_res > tol:
            witnesses.append((G.algebra.labels[i], "left", float(left_res)))
    kind = "Haar" if not witnesses else "NonHaar"
    return IdempotentClass(kind, N.shape[0], witnesses)


def dual_subgroup_idempotent(G: CompactQuantumGroup, subgroup) -> State:
    """Indicator state of a subgroup H on the dual of a finite group: the
    face idempotent (:func:`face_idempotent`) of r = |H|^-1 sum_{h in H} lambda_h,
    whose face is the set of states equal to 1 on H."""
    if G.kind != "dual":
        raise AlgebraError("subgroup indicators live on dual groups")
    subgroup = sorted(set(int(i) for i in subgroup))
    if not G.group.is_subgroup(subgroup):
        raise AlgebraError("index set is not a subgroup")
    r = np.zeros(G.dim, dtype=complex)
    r[subgroup] = 1.0 / len(subgroup)
    return face_idempotent(G, Projection(G.algebra, r))


@dataclass
class CollapseProbeReport:
    """Collapse stability of the quasi-subgroup of an idempotent psi.

    ``members_tested`` is the dimension of the space of functionals on pAp,
    p the support of psi, which the member states span; ``violations`` lists
    ``((i, j), residual)`` for every magic entry u_ij whose collapse takes
    some member out of the quasi-subgroup.
    """

    members_tested: int
    violations: list

    @property
    def stable(self) -> bool:
        return not self.violations


def collapse_stability_probe(G: CompactQuantumGroup, psi: State,
                             n_samples: int = 100, seed: int = 0) -> CollapseProbeReport:
    """Whether the quasi-subgroup of psi is stable under collapse by every
    magic entry, as an exact linear certificate.

    The members are taken to be the states on pAp, p the support of psi;
    they span the range of the sandwich S_p, with orthonormal basis W.  The
    premise max|A W| <= 1e-7 (A the absorption operator of psi) says that all
    of them are members, and an ``AlgebraError`` is raised if it fails.
    Collapse by a magic entry q sends phi to S_q phi / phi(q), so the face is
    stable under q iff max|A S_q W| <= 1e-7; a member giving q no mass has
    S_q phi = 0 and adds nothing.  ``n_samples`` and ``seed`` have no effect.
    """
    tol = 1e-7
    if not is_idempotent(G, psi):
        raise AlgebraError("probe requires an idempotent state")
    A = _absorption_operator(G, psi)
    W = _row_space(_sandwich_matrix(G, support_projection(psi).coeffs).T).T
    if not np.abs(A @ W).max() <= tol:
        raise AlgebraError("some state on the support of psi is not absorbed by psi")
    N = G.N
    sandwiches = np.array([_sandwich_matrix(G, q) for q in G.magic.reshape(N * N, -1)])
    residuals = np.abs(A @ sandwiches @ W).max(axis=(1, 2))
    violations = [(divmod(int(e), N), float(residuals[e]))
                  for e in np.flatnonzero(~(residuals <= tol))]
    return CollapseProbeReport(W.shape[1], violations)


def idempotent_census(G: CompactQuantumGroup, n_seeds: int, seed: int = 0,
                      extra_seeds: list[State] | None = None) -> list[CesaroResult]:
    """Cesaro limits from a deterministic bank of random seed states."""
    seeds = G.sample_states(n_seeds, seed=seed)
    if extra_seeds:
        seeds = list(extra_seeds) + seeds
    return [cesaro_idempotent(G, s) for s in seeds]
