"""Idempotent states: Cesaro limits, quasi-subgroups, group-like projections,
wave-function collapse, and the Haar / non-Haar classification.

Convolution by a fixed state is a linear operator on the dual, and the limit
of the Cesaro means (phi + phi*2 + ... + phi*n)/n is that operator's
eigenvalue-1 spectral projector applied to the seed.  Computing the limit
spectrally reaches machine precision where stepwise means stall at O(1/n);
a doubling recursion on the means of the seed's powers,
v_2n = (v_n + T^n v_n)/2, still supplies an honest iteration count.  The
census and the idempotent generated by states (their mean's limit) go
through the checked row kernel behind :func:`cesaro_idempotent`; the
idempotent of a closed face needs no limit: it is the conditioned Haar
state (:func:`face_idempotent`).

Absorption by an idempotent psi is linear too: A = [L_psi - psi u^T;
R_psi - psi u^T] sends a unital phi to (psi * phi - psi, phi * psi - psi).
Absorption of the generating states, of a face and of its collapses are all
read off A applied to a fixed matrix, with no sampled states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ITER_TOL,
    AlgebraElement,
    AlgebraError,
    LinearFunctional,
    Projection,
    State,
    _certify,
    _require_states,
    gram_norm,
    support_projection,
)
from .cqg import CompactQuantumGroup, _absorption_operator, _row_space, _sandwich_matrix


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
    """Haar / non-Haar class of an idempotent state.

    ``residual`` is the star-closure residual of the null space that decides
    ``kind`` against ITER_TOL (:func:`classify_idempotent`).
    """

    kind: str                      # "Haar" | "NonHaar"
    null_space_dim: int
    residual: float


def left_convolution_operator(G: CompactQuantumGroup, phi: LinearFunctional) -> np.ndarray:
    """Matrix of rho -> phi * rho on dual coefficient vectors."""
    return phi.duals @ G.delta


def _cesaro_projector(T: np.ndarray) -> np.ndarray:
    """Limit of the operator Cesaro means (1/n) sum_{k<n} T^k, for one (d, d)
    operator or an (n, d, d) stack of them, from one SVD of A = I - T.

    The mean ergodic theorem: for a power-bounded T, the means converge to
    the projection E onto ker A along ran A.  On ran A, x = y - Ty, the
    mean is (y - T^n y)/n -> 0; on ker A it is x.  Power-boundedness makes
    the eigenvalue 1 semisimple (a Jordan block there grows like n), so
    ker A and ran A are complementary.  Left convolution by a state phi is
    a contraction in the dual norm, |phi * rho| <= |phi (x) rho| = |rho|
    as Delta is a unital *-homomorphism, so it is power-bounded.

    With A = U S V^H, the right singular vectors N with sigma < 1e-8 span
    ker A, and the left ones M span ker A^H = (ran A)^perp.  M^H N is
    invertible, since M^H N c = 0 puts N c in ker A n ran A = 0.  So
    E = N (M^H N)^-1 M^H: it fixes ker A and kills ran A.

    The singular values come sorted, so the kernel is spanned by the last
    columns; the operators of a stack with the same kernel size share one
    batched solve.
    """
    T = np.asarray_chkfinite(T)
    d = T.shape[-1]
    U, sigma, Vh = np.linalg.svd(np.eye(d) - T.reshape(-1, d, d))
    size = (sigma < 1e-8).sum(axis=1)
    E = np.zeros_like(U)
    for k in sorted(set(size[size > 0].tolist())):
        at = size == k
        N = Vh[at, d - k:].conj().swapaxes(1, 2)
        Mh = U[at, :, d - k:].conj().swapaxes(1, 2)
        E[at] = N @ np.linalg.solve(Mh @ N, Mh)
    return E.reshape(T.shape)


def cesaro_idempotent(G: CompactQuantumGroup, seed: State) -> CesaroResult:
    """Invariant idempotent reached by Cesaro-averaging convolution powers.

    The limit is the eigenvalue-1 spectral projector of left convolution by
    the seed, applied to the seed; a doubling recursion on the means of the
    seed's powers, v_2n = (v_n + T^n v_n)/2, supplies the reported iteration
    count: the smallest mean length n = 2^k whose mean is within
    10 * ITER_TOL of the limit.  (Doublings stop at 2^30, where repeated
    squaring is still well below the eigenvalue-drift instability of
    floating point.)  The limit has converged if it is idempotent within
    ITER_TOL and seed-invariant within 10 * ITER_TOL.  It is checked as a
    state.
    """
    return _cesaro_rows(G, seed.duals[np.newaxis])[0]


def _cesaro_rows(G: CompactQuantumGroup, S: np.ndarray) -> list[CesaroResult]:
    """:func:`cesaro_idempotent` of every row of an (n, d) stack of seed
    duals: the n convolution operators in one product, one stacked projector,
    one state check of the limits, the doubling recursion on the whole stack
    (a row leaves it once it is stationary) and one 3n-row convolution for
    the seed * limit, limit * seed and limit * limit certificates."""
    alg, tol, (n, d) = G.algebra, ITER_TOL, S.shape
    if not n:
        return []
    T = (S[:, np.newaxis, np.newaxis] @ G.delta)[:, :, 0]  # row k: left convolution by S[k]
    L = (_cesaro_projector(T) @ S[:, :, np.newaxis])[:, :, 0]
    _require_states(alg, L)
    iterations = np.empty(n, dtype=int)
    # the rows still doubling, their means v_m and limits as columns, and T^m
    rows, V, Lr, P = np.arange(n), S[:, :, np.newaxis], L[:, :, np.newaxis], T
    for step in range(1, 31):
        V = 0.5 * (V + P @ V)
        keep = (np.abs(V - Lr).max(axis=(1, 2)) > 10 * tol).nonzero()[0]
        if keep.size < rows.size:
            iterations[rows] = 2 ** step  # rows kept are overwritten later
            if not keep.size:
                break
            rows, V, Lr, P = rows[keep], V[keep], Lr[keep], P[keep]
        P = P @ P
    else:
        iterations[rows] = 2 ** 30
    # X[:3n] * X[2n:] row by row: limit * limit, seed * limit, limit * seed
    X = np.concatenate([L, S, L, L, S])
    gaps = np.abs(G._convolve_rows(X[:3 * n], X[2 * n:]).reshape(3, n, d) - L).max(axis=2)
    results = []
    for lim, it, idem, left, right in zip(L, iterations.tolist(), *gaps.tolist()):
        residual = max(left, right)
        results.append(CesaroResult(State(alg, lim, check=False), it, residual,
                                    idem <= tol and residual <= 10 * tol))
    return results


def is_idempotent(G: CompactQuantumGroup, phi: State) -> bool:
    return phi.distance(G.convolve(phi, phi, check=False)) <= ITER_TOL


def generated_idempotent(G: CompactQuantumGroup, states: list[State]) -> CesaroResult:
    """Smallest idempotent absorbing every input: the Cesaro limit psi of their mean.

    psi * phi = phi o E, E = (psi (x) id) Delta a conditional expectation onto a
    left coideal B, and psi = counit o E is a character, so a pure state, of B:
    psi * mean = psi makes every input equal the counit on B, so psi absorbs it
    (on the right by (id (x) psi) Delta).  Converged also needs max|A Phi^T| <=
    10 * ITER_TOL, A the absorption operator of psi, Phi the stacked inputs."""
    if not states:
        raise AlgebraError("need at least one state")
    if any(phi.algebra is not G.algebra for phi in states):
        raise AlgebraError("functionals live on a different algebra")
    Phi = np.array([phi.duals for phi in states])
    out = cesaro_idempotent(G, State(G.algebra, Phi.mean(axis=0), check=False))
    absorption = float(np.abs(_absorption_operator(G, out.limit.duals) @ Phi.T).max())
    converged = out.converged and absorption <= 10 * ITER_TOL
    return CesaroResult(out.limit, out.iterations, max(out.residual, absorption), converged)


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
    S = _sandwich_matrix(G, q.coeffs)
    return State(G.algebra, _conditioned_rows(G, phi.duals[np.newaxis], q, S)[0])


def _conditioned_rows(G: CompactQuantumGroup, D: np.ndarray, q: AlgebraElement,
                      S: np.ndarray) -> np.ndarray:
    """phi(q . q) / phi(q) for the rows phi of an (n, d) stack, unchecked; S is q's sandwich."""
    mass = (D @ q.coeffs).real
    if not (mass > G.algebra.tol).all():
        raise AlgebraError("conditioning on a projection of zero mass is undefined")
    return (D @ S.T) / mass[:, np.newaxis]


def face_idempotent(G: CompactQuantumGroup, r: AlgebraElement) -> State:
    """Idempotent state of the face F_r = {phi : phi(r) = 1} of a
    projection r, in closed form and certified.

    The paper's adaptation of Van Daele's proof finds an idempotent in every
    non-empty, weak-* compact, convolution-closed convex set of states.  On
    a closed face it is psi = h(r . r) / h(r), h the Haar state, which is
    faithful, tracial and bi-invariant:

    1. Every phi in F_r is phi(r . r), so F_r is closed iff
       (r (x) r) Delta(1 - r) (r (x) r) = 0, iff Delta(r)(r (x) r) = r (x) r.
    2. Then r is group-like: X = Delta(r)((1 - r) (x) r) has (h (x) h)(X* X)
       = (h (x) h)(Delta(r)(1 (x) r)) - (h (x) h)(r (x) r) = h(r)^2 - h(r)^2
       = 0 by traciality, 1 and left invariance, so X = 0 and
       Delta(r)(1 (x) r) = r (x) r; by right invariance Delta(r)(r (x) 1) = r (x) r.
    3. By 2, (r (x) r) Delta(x) (r (x) r) = (1 (x) r) Delta(rxr) (1 (x) r);
       slicing with h (x) phi, phi in F_r, gives psi * phi = psi, and
       phi * psi = psi by right invariance.  psi is in F_r, so it is
       idempotent and the only idempotent of F_r that absorbs F_r.  (Not
       every member's Cesaro limit: the counit, when in F_r, is its own.)

    One sandwich S_r: f -> f(r . r) serves the three certificates, so the
    answer does not rest on the proof:

    - closure: S_r^T X S_r = 0 within tol, X the coefficients of Delta(1 - r);
    - state: psi = S_r h / h(r) is a state with psi(r) = 1 within tol;
    - absorption: A S_r = 0 within 10 * ITER_TOL, A the absorption operator
      of psi; every phi in F_r is S_r phi, so psi absorbs F_r on both sides.
    """
    alg, h = G.algebra, G.haar.duals
    S = _sandwich_matrix(G, r.coeffs)
    _certify("face is not closed under convolution",
             np.abs(S.T @ G.delta_applied(alg.unit - r.coeffs) @ S).max(), alg.tol)
    psi = State(alg, _conditioned_rows(G, h[np.newaxis], r, S)[0])
    _certify("face idempotent left its face", abs(psi(r) - 1), alg.tol)
    _certify("face idempotent fails to absorb its face",
             np.abs(_absorption_operator(G, psi.duals) @ S).max(), 10 * ITER_TOL)
    return psi


def classify_idempotent(G: CompactQuantumGroup, phi: State) -> IdempotentClass:
    """Haar iff the null space N = {x : phi(x* x) = 0} is a two-sided ideal,
    decided by one test: whether N is closed under the star.

    N is a left ideal of the finite-dimensional C*-algebra, so N = Aq for a
    unique projection q (1 - supp phi).  If Aq is two-sided, q is central
    and (Aq)* = qA = Aq; conversely, if (Aq)* = Aq, then Aq = qA is a right
    ideal too.  N is spanned by the orthonormal eigenvectors of the Hermitian
    part of phi(e_i^* e_j) below 1e-8 max(1, largest eigenvalue); with R
    their adjoints, the residual max|R - (R N^H) N| decides NonHaar beyond
    ITER_TOL.
    """
    if not is_idempotent(G, phi):
        raise AlgebraError("state is not idempotent")
    alg = G.algebra
    P = alg.involution @ (alg.mult @ phi.duals)  # phi(e_i^* e_j)
    evals, vecs = np.linalg.eigh((P + P.conj().T) / 2)
    N = vecs[:, evals < 1e-8 * max(1.0, evals.max())].T  # rows: null elements
    R = np.conj(N) @ alg.involution  # rows: their adjoints
    residual = float(np.abs(R - (R @ N.conj().T) @ N).max(initial=0.0))
    return IdempotentClass("Haar" if residual <= ITER_TOL else "NonHaar", N.shape[0], residual)


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
    premise max|A W| <= ITER_TOL (A the absorption operator of psi) says that all
    of them are members, and an ``AlgebraError`` is raised if it fails.
    Collapse by a magic entry q sends phi to S_q phi / phi(q), so the face is
    stable under q iff max|A S_q W| <= ITER_TOL; a member giving q no mass has
    S_q phi = 0 and adds nothing.  ``n_samples`` and ``seed`` have no effect.
    """
    tol = ITER_TOL
    if not is_idempotent(G, psi):
        raise AlgebraError("probe requires an idempotent state")
    A = _absorption_operator(G, psi.duals)
    W = _row_space(_sandwich_matrix(G, support_projection(psi).coeffs).T).T
    _certify("some state on the support of psi is not absorbed by psi", np.abs(A @ W).max(), tol)
    residuals = np.abs(A @ G._magic_sandwiches @ W).max(axis=(1, 2))
    violations = [(divmod(int(e), G.N), float(residuals[e]))
                  for e in np.flatnonzero(~(residuals <= tol))]
    return CollapseProbeReport(W.shape[1], violations)


def idempotent_census(G: CompactQuantumGroup, n_seeds: int, seed: int = 0,
                      extra_seeds: list[State] | None = None) -> list[CesaroResult]:
    """Cesaro limits of the extra seeds, then of a deterministic bank of
    n_seeds random states (:meth:`CompactQuantumGroup.sample_states`), as
    one stack."""
    extra = np.array([s.duals for s in extra_seeds or []], dtype=complex)
    return _cesaro_rows(G, np.vstack([extra.reshape(-1, G.dim), G._state_bank(n_seeds, seed)]))
