"""Helpers shared by several test modules."""
import types

import numpy as np
import pytest
from scipy.linalg import schur, solve_sylvester

from qperm import algebra, permgroups
from qperm.algebra import (
    AlgebraError,
    LinearFunctional,
    StarAlgebra,
    State,
    _Coo,
    _block_rows,
    _coo,
    _contract,
    _require_states,
    gram_norm,
    meet,
    support_projection,
)
from qperm.cqg import (
    CompactQuantumGroup,
    _row_space,
    _vector_duals,
    birkhoff_matrix,
    centre,
    characters,
    classical_group,
)
from qperm.idempotent import (
    CesaroResult,
    CollapseProbeReport,
    _sandwich_matrix,
    cesaro_idempotent,
    condition,
    is_idempotent,
)
from qperm.permutation import quantum_fraction


def _absorbs(G, psi, phi, tol=1e-7):
    """Whether psi absorbs phi on both sides: psi * phi and phi * psi are
    each within tol of psi, by two convolutions."""
    return max(psi.distance(G.convolve(psi, phi, check=False)),
               psi.distance(G.convolve(phi, psi, check=False))) <= tol


@pytest.fixture
def absorbs():
    """``absorbs(G, psi, phi, tol=1e-7)``: quasi-subgroup membership of phi
    in the idempotent psi, by two convolutions."""
    return _absorbs


@pytest.fixture
def in_centre():
    """``in_centre(G, x)``: whether the coefficients x of an element of G's
    algebra lie in the span of the centre (:func:`cqg.centre`)."""
    def member(G, x):
        Z = centre(G)
        return bool(np.abs(x - (x @ Z.conj().T) @ Z).max() <= 1e-9 * max(1.0, np.abs(x).max()))
    return member


def _member_bank(G, r, n, seed):
    """The counit, if it gives r full mass, and up to n seeded vector states
    x -> tau(x* . x) with x in rA: members of the face {phi : phi(r) = 1}."""
    out = [G.counit] if abs(G.counit(r) - 1) < 1e-9 else []
    Lr = G.algebra.left_mult_matrix(r.coeffs)
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        x = Lr @ (rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        if np.abs(x).max() < 1e-12:
            continue
        try:
            out.append(G.vector_state(x))
        except AlgebraError:
            continue
    return out


@pytest.fixture
def member_bank():
    """Sampler ``member_bank(G, r, n, seed)`` of states on the face of r."""
    return _member_bank


def _vector_state(G, x):
    """f -> tau(x* f x) / tau(x* x), one vector at a time."""
    alg = G.algebra
    duals = (x @ alg.mult) @ (alg.star_coeffs(x) @ (alg.mult @ alg.trace))
    nrm = duals @ alg.unit
    if abs(nrm) < 1e3 * np.finfo(float).eps:
        raise AlgebraError("vector is null for the trace form")
    return State(alg, duals / nrm)


def _sample_states(G, n, seed, max_mix=3):
    """The state bank one sample and one checked State at a time."""
    out = []
    for k in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        m = int(rng.integers(1, max_mix + 1))
        weights = rng.dirichlet(np.ones(m))
        duals = np.zeros(G.dim, dtype=complex)
        for t in range(m):
            x = rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim)
            duals += weights[t] * _vector_state(G, x).duals
        out.append(State(G.algebra, duals))
    return out


def _state_bank_by_seed_sequence(G, n, seed):
    """The state bank a block of rows at a time, as the library built it
    before its seed words were vectorised: one SeedSequence and one
    ``default_rng`` per sample, the weights and vectors drawn into lists."""
    alg, d = G.algebra, G.dim
    block = _block_rows(d)
    out = np.empty((n, d), dtype=complex)
    for start in range(0, n, block):
        weights, xs = [], []
        for k in range(start, min(start + block, n)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            m = int(rng.integers(1, 4))
            e = rng.standard_exponential(m)
            weights.append(e * (1.0 / e.sum()))
            z = rng.standard_normal((m, 2, d))
            xs.append(z[:, 0] + 1j * z[:, 1])
        vectors, nonnull = _vector_duals(alg, np.concatenate(xs))
        if not nonnull.all():
            raise AlgebraError("vector is null for the trace form")
        _require_states(alg, vectors)
        counts = np.array([w.size for w in weights])
        first = np.cumsum(counts) - counts
        mixes = np.zeros((counts.size, d), dtype=complex)
        for t in range(counts.max()):
            rows = np.flatnonzero(counts > t)
            w = np.array([weights[i][t] for i in rows])
            mixes[rows] += w[:, np.newaxis] * vectors[first[rows] + t]
        _require_states(alg, mixes)
        out[start:start + block] = mixes
    return out


@pytest.fixture
def state_bank_oracle():
    """``state_bank_oracle(G, n, seed)``: the (n, d) state bank with a
    SeedSequence built per sample."""
    return _state_bank_by_seed_sequence


def _collapse_probe(G, psi, n_samples, seed, tol=1e-7):
    """The collapse probe by sampling: psi and the seeded vector states on its
    support that it absorbs are the members, each is conditioned on every
    magic entry it gives mass, and each collapse that leaves the
    quasi-subgroup is reported as ``((i, j), membership distance)``."""
    members = [psi]
    Lp = G.algebra.left_mult_matrix(support_projection(psi).coeffs)
    for k in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        x = Lp @ (rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
        if np.abs(x).max() < 1e-12:
            continue
        try:
            cand = _vector_state(G, x)
        except AlgebraError:
            continue
        if _absorbs(G, psi, cand, tol):
            members.append(cand)
    violations = []
    for phi in members:
        for i in range(G.N):
            for j in range(G.N):
                q = G.magic_projection(i, j)
                if phi(q).real <= 1e-9:
                    continue
                collapsed = condition(G, phi, q)
                if not _absorbs(G, psi, collapsed, tol):
                    dist = max(psi.distance(G.convolve(psi, collapsed, check=False)),
                               psi.distance(G.convolve(collapsed, psi, check=False)))
                    violations.append(((i, j), float(dist)))
    return CollapseProbeReport(len(members), violations)


@pytest.fixture
def sample_states_oracle():
    """``sample_states_oracle(G, n, seed)``: the state bank built per sample."""
    return _sample_states


@pytest.fixture
def collapse_probe_oracle():
    """``collapse_probe_oracle(G, psi, n_samples, seed)``: the collapse probe
    by sampled members, one member and one collapse at a time."""
    return _collapse_probe


def _bounds(G, cv, n_samples, seed, tol=1e-8):
    """The bounds sampler one pair at a time, with the quantum fraction,
    convolution, conditioning and decomposition formulas inline.  Returns
    the (alpha, beta, omega) rows and the violations, each as
    ``(reason, phi duals, rho duals)``, in pair order."""
    def fraction(duals):
        val = complex(duals @ cv.p_Q.coeffs)
        if abs(val.imag) > 1e-8 or val.real < -1e-8 or val.real > 1 + 1e-8:
            raise AlgebraError(f"quantum fraction out of range: {val}")
        return float(min(max(val.real, 0.0), 1.0))

    def part(duals, q):
        mass = complex(duals @ q.coeffs).real
        assert mass > G.algebra.tol
        return State(G.algebra, (_sandwich_matrix(G, q.coeffs) @ duals) / mass).duals

    def split(duals):
        alpha = fraction(duals)
        cut = 2 * G.algebra.tol
        c = part(duals, cv.p_C) if 1 - alpha > cut else None
        q = part(duals, cv.p_Q) if alpha > cut else None
        recon = np.zeros(G.dim, dtype=complex)
        if c is not None:
            recon += (1 - alpha) * c
        if q is not None:
            recon += alpha * q
        if np.abs(recon - duals).max() > 1e-8:
            raise AlgebraError("random/quantum decomposition failed to reconstruct")
        return c, q

    states = [phi.duals for phi in G.sample_states(2 * n_samples, seed=seed)]
    pairs = [(states[2 * k], states[2 * k + 1]) for k in range(n_samples)]
    for phi, rho in pairs[:8]:
        c1, q1 = split(phi)
        c2, q2 = split(rho)
        for extra in ((c1, q2), (q1, c2), (q1, q2), (c1, c2)):
            if extra[0] is not None and extra[1] is not None:
                pairs.append(extra)
    rows, violations = [], []
    for phi, rho in pairs:
        a, b = fraction(phi), fraction(rho)
        w = fraction((G.delta @ rho) @ phi)
        lower, upper = a + b - 2 * a * b, a + b - a * b
        bad = None
        if not (lower - tol <= w <= upper + tol):
            bad = "bounds"
        elif w <= tol and not ((a <= tol and b <= tol)
                               or (a >= 1 - tol and b >= 1 - tol)):
            bad = "random convolution from a mixed pair"
        elif a <= tol and b <= tol and w > tol:
            bad = "random pair with quantum convolution"
        elif ((a <= tol and b >= 1 - tol) or (a >= 1 - tol and b <= tol)) \
                and w < 1 - tol:
            bad = "random/quantum pair not truly quantum"
        rows.append((a, b, w))
        if bad:
            violations.append((bad, phi, rho))
    return np.array(rows), violations


@pytest.fixture
def bounds_oracle():
    """``bounds_oracle(G, cv, n_samples, seed)``: the bounds sampler one pair,
    one quantum fraction and one convolution at a time."""
    return _bounds


def _commutator_ideal(G):
    """Orthonormal basis (rows) of the two-sided ideal generated by
    commutators, grown by left and right products until it is stationary."""
    alg = G.algebra
    c = alg.mult
    comms = (c - np.transpose(c, (1, 0, 2))).reshape(-1, alg.dim)
    span = _row_space(comms)
    while True:
        if span.shape[0] == 0:
            return span
        left = np.einsum("ijk,sj->sik", c, span, optimize=True).reshape(-1, alg.dim)
        right = np.einsum("jik,sj->sik", c, span, optimize=True).reshape(-1, alg.dim)
        grown = _row_space(np.vstack([span, left, right]))
        if grown.shape[0] == span.shape[0]:
            return grown
        span = grown


def _characters(G):
    """The characters by the commutator ideal: its central unit z splits off
    the commutative block (1 - z)A, whose points are the common eigenvectors
    of multiplication by a generic element of the block, drawn from a fixed
    seed up to 8 times until its eigenvalues separate."""
    alg = G.algebra
    J = _commutator_ideal(G)
    if J.shape[0] == 0:
        comp = np.eye(alg.dim, dtype=complex)
    else:
        # central unit of J: z = sum_s alpha_s J[s] with z J[t] = J[t] for all t
        lhs = np.einsum("si,ijk,tj->tks", J, alg.mult, J, optimize=True)
        lhs = lhs.reshape(-1, J.shape[0])
        rhs = J.reshape(-1)
        alpha, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        zc = alpha @ J
        if np.abs(lhs @ alpha - rhs).max() > 1e-8 or \
                gram_norm(alg.element(alg.product_coeffs(zc, zc) - zc)) > 1e-8:
            raise AlgebraError("commutator ideal has no central unit")
        comp = _row_space(np.einsum("ijk,i->jk", alg.mult, alg.unit - zc, optimize=True))
    q = comp.shape[0]
    rng = np.random.default_rng(0)
    for _ in range(8):
        g = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        gc = comp.conj().T @ (comp @ g)  # project into the block
        Mq = comp.conj() @ alg.left_mult_matrix(gc) @ comp.T
        evals, vecs = np.linalg.eig(Mq)
        if np.min(np.abs(np.subtract.outer(evals, evals)) + np.eye(q) * 1e9) > 1e-6:
            break
    else:
        raise AlgebraError("could not separate characters")
    out = []
    for k in range(q):
        coeffs = comp.T @ vecs[:, k]
        # chi(e_i) from e_i v = chi(e_i) v
        Lv = coeffs @ alg.mult
        duals = np.array([np.vdot(coeffs, Lv[i]) for i in range(alg.dim)]) \
            / np.vdot(coeffs, coeffs)
        mres = np.abs(np.einsum("ijk,k->ij", alg.mult, duals)
                      - np.outer(duals, duals)).max()
        if mres < 1e-7 and abs(LinearFunctional(alg, duals)(alg.element(alg.unit)) - 1) < 1e-7:
            out.append(State(alg, duals))
    uniq = []
    for phi in out:
        if all(phi.distance(o) > 1e-7 for o in uniq):
            uniq.append(phi)
    return uniq


def _classical_version(G):
    """(permutations, character duals, support coefficients), identity first
    and then in permutation order: the characters by the commutator ideal,
    each permutation read off its rounded Birkhoff matrix, and each support
    the meet of the magic entries u_{sigma(j) j} it selects."""
    rows = []
    for chi in _characters(G):
        P = birkhoff_matrix(G, chi)
        R = np.round(P.real)
        sigma = tuple(int(i) for i in R.argmax(axis=0))
        assert np.abs(P - R).max() <= 1e-8 and sorted(sigma) == list(range(G.N))
        assert np.array_equal(R, np.eye(G.N)[list(sigma)].T)
        support = meet([G.magic_projection(sigma[j], j) for j in range(G.N)])
        rows.append((sigma, chi.duals, support.coeffs))
    identity = permgroups.identity_perm(G.N)
    rows.sort(key=lambda r: (r[0] != identity, r[0]))
    perms, duals, supports = zip(*rows)
    return list(perms), np.array(duals), np.array(supports)


@pytest.fixture
def classical_version_oracle():
    """``classical_version_oracle(G)``: the classical version by the
    commutator ideal, a retry loop of generic elements and meets of magic
    entries, as (permutations, (n, d) character duals, (n, d) supports)."""
    return _classical_version


# -- the routes that the regular trace and the conditioned Haar state replaced -------


def _haar_by_invariance(algebra, delta):
    """The Haar state as the unique solution of the invariance system
    (h (x) id) Delta = h(.) 1 = (id (x) h) Delta, by SVD and lstsq."""
    d = algebra.dim
    eye = np.eye(d)
    # (h x id)Delta(e_i) = h(e_i) 1: rows (i, b), unknowns h_a
    left = np.ascontiguousarray(delta.transpose(0, 2, 1)).reshape(d * d, d) \
        - np.einsum("b,ia->iba", algebra.unit, eye).reshape(d * d, d)
    # (id x h)Delta(e_i) = h(e_i) 1: rows (i, a), unknowns h_b
    right = delta.reshape(d * d, d) \
        - np.einsum("a,ib->iab", algebra.unit, eye).reshape(d * d, d)
    invariance = np.vstack([left, right])
    sing = np.linalg.svd(invariance, compute_uv=False)
    if sing.size >= 2 and sing[-2] < 1e-8:
        raise AlgebraError("invariance system has a >1-dimensional solution space")
    M = np.vstack([invariance, algebra.unit[np.newaxis, :]])
    b = np.zeros(M.shape[0], dtype=complex)
    b[-1] = 1.0
    h, *_ = np.linalg.lstsq(M, b, rcond=None)
    if np.abs(M @ h - b).max() > 1e-8:
        raise AlgebraError("no invariant state")
    return State(algebra, h)


@pytest.fixture(scope="session")
def haar_oracle():
    """``haar_oracle(algebra, delta)``: the Haar state by the invariance SVD
    and a least-squares solve."""
    return _haar_by_invariance


def _face_by_cesaro(G, r):
    """The idempotent of the face {phi : phi(r) = 1} as the Cesaro limit of
    the trace conditioned on r, which is faithful on rAr; r = 1 gives the
    Haar state."""
    alg = G.algebra
    trace = State(alg, alg.trace / (alg.trace @ alg.unit))
    return cesaro_idempotent(G, condition(G, trace, r)).limit


@pytest.fixture
def face_oracle():
    """``face_oracle(G, r)``: the trace-seeded Cesaro limit on the face of a
    projection r, the route that the conditioned Haar state replaced."""
    return _face_by_cesaro


def _dual_indicator(G, subgroup):
    """The indicator state of a subgroup of Gamma on C*(Gamma), written down."""
    duals = np.zeros(G.dim, dtype=complex)
    duals[sorted(set(subgroup))] = 1.0
    phi = State(G.algebra, duals)
    assert is_idempotent(G, phi)
    return phi


@pytest.fixture
def dual_indicator_oracle():
    """``dual_indicator_oracle(G, subgroup)``: the hand-built indicator."""
    return _dual_indicator


class QuantumGroupMorphism:
    """Surjective unital *-homomorphism intertwining the comultiplications.

    ``magic_image``, when declared, is an (N, N, dim_target) grid that the
    source magic unitary must map onto entrywise.
    """

    def __init__(self, source, target, matrix, magic_image=None, check=True):
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=complex)
        self.magic_image = None if magic_image is None \
            else np.asarray(magic_image, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise AlgebraError("morphism matrix has wrong shape")
        if check:
            res = self.check_residuals()
            bad = {k: v for k, v in res.items() if v > 100 * source.algebra.tol}
            if bad:
                raise AlgebraError(f"not a quantum group morphism: {bad}")

    def pullback(self, phi):
        """phi o pi for a functional on the target."""
        return State(self.source.algebra, self.matrix.T @ phi.duals)

    def check_residuals(self):
        M = self.matrix
        src, tgt = self.source.algebra, self.target.algebra
        out = {}
        # pi(e_i e_j) vs pi(e_i) pi(e_j)
        lhs = np.einsum("ijm,km->ijk", src.mult, M, optimize=True)
        rhs = np.einsum("ai,bj,abk->ijk", M, M, tgt.mult, optimize=True)
        out["homomorphism"] = np.abs(lhs - rhs).max()
        lhs_star = np.einsum("ia,ka->ik", src.involution, M, optimize=True)
        rhs_star = np.einsum("ai,ak->ik", np.conj(M), tgt.involution, optimize=True)
        out["star"] = np.abs(lhs_star - rhs_star).max()
        out["unital"] = np.abs(M @ src.unit - tgt.unit).max()
        lhs_d = np.einsum("ki,kab->iab", M, self.target.delta, optimize=True)
        rhs_d = np.einsum("iab,ua,vb->iuv", self.source.delta, M, M, optimize=True)
        out["intertwines_delta"] = np.abs(lhs_d - rhs_d).max()
        rank = np.linalg.matrix_rank(M, tol=1e-10)
        out["surjective"] = 0.0 if rank == self.target.dim else 1.0
        if self.magic_image is not None:
            imaged = np.einsum("ijc,tc->ijt", self.source.magic, M, optimize=True)
            out["magic_image"] = np.abs(imaged - self.magic_image).max()
        return out


def haar_idempotent(pi):
    """h_target o pi; idempotent on the source by construction, asserted."""
    phi = pi.pullback(pi.target.haar)
    conv = pi.source.convolve(phi, phi, check=False)
    if phi.distance(conv) > algebra.ITER_TOL:
        raise AlgebraError("pulled-back Haar state is not idempotent")
    return phi


def abelianization(G):
    """Quotient onto the classical version, as functions on the character group."""
    pairs = []
    for chi in characters(G):
        P = birkhoff_matrix(G, chi).real
        sigma = tuple(int(np.argmax(P[:, j])) for j in range(G.N))
        pairs.append((sigma, chi))
    target = classical_group([s for s, _ in pairs], name=f"{G.name}-classical")
    M = np.zeros((target.dim, G.dim), dtype=complex)
    for sigma, chi in pairs:
        M[target.group_elements.index(sigma)] = chi.duals
    # the source magic unitary maps entrywise onto the classical one
    return QuantumGroupMorphism(G, target, M, magic_image=target.magic)


@pytest.fixture
def morphisms():
    """The quotient route: ``QuantumGroupMorphism``, ``haar_idempotent`` and
    ``abelianization``; ``haar_idempotent(abelianization(G))`` is the
    oracle for the face idempotent of p_C."""
    return types.SimpleNamespace(QuantumGroupMorphism=QuantumGroupMorphism,
                                 haar_idempotent=haar_idempotent,
                                 abelianization=abelianization)


# -- the stepwise convolution routes that the operator routes replaced ---------------


def _generated_by_rounds(G, states):
    """The generated idempotent by rounds: each input's own Cesaro limit,
    their convolution in the given order averaged again, then up to 8 rounds
    that convolve every input not yet absorbed within 10 ITER_TOL between
    copies of the current limit and average once more."""
    tol = algebra.ITER_TOL
    parts = [cesaro_idempotent(G, phi).limit for phi in states]
    psi = parts[0]
    for r in parts[1:]:
        psi = G.convolve(psi, r, check=False)
    out = cesaro_idempotent(G, psi).limit
    for _ in range(8):
        missing = [phi for phi in states if not _absorbs(G, out, phi, 10 * tol)]
        if not missing:
            break
        mixed = out
        for phi in missing:
            mixed = G.convolve(G.convolve(mixed, phi, check=False), out, check=False)
        out = cesaro_idempotent(G, mixed).limit
    assert all(_absorbs(G, out, phi, 10 * tol) for phi in states)
    return out


@pytest.fixture
def generated_oracle():
    """``generated_oracle(G, states)``: the generated idempotent by rounds of
    per-input limits, convolutions and membership tests."""
    return _generated_by_rounds


def _trajectory_by_steps(G, seed, k_max, cv=None):
    """(powers, alphas, distances to Haar) with one convolution, one quantum
    fraction and one distance per step."""
    states, alphas, dists = [], [], []
    cur = seed
    for _ in range(k_max + 1):
        states.append(cur)
        alphas.append(quantum_fraction(cur, cv) if cv is not None else float("nan"))
        dists.append(cur.distance(G.haar))
        cur = G.convolve(cur, seed, check=False)
    return states, alphas, dists


def _period_by_steps(G, seed):
    """The period check on the per-step powers, one pair of states at a time."""
    traj = _trajectory_by_steps(G, seed, 64)[0]
    for d in range(1, 65):
        window = min(3 * d, len(traj) - d)
        if all(traj[k + d].distance(traj[k]) < 1e-8 for k in range(window)):
            return d
    return None


@pytest.fixture
def dynamics_oracle():
    """The per-step routes: ``trajectory(G, seed, k_max, cv)`` as lists and
    ``detect_period(G, seed)``."""
    return types.SimpleNamespace(trajectory=_trajectory_by_steps,
                                 detect_period=_period_by_steps)


# -- the per-item experiment loops that the stacked passes replaced ------------------


def _phase_region_by_point(a, b):
    """(region, q2i, q3i, qhalfw) of one point, one branch at a time."""
    eps, sqrt2 = 1e-12, np.sqrt(2.0)
    if a <= eps and b <= eps:
        return "degenerate", False, False, False
    disc = a + b - 4 * a * b
    region = "Boundary_W" if abs(disc) <= eps else "Q_I" if disc > 0 else "Q_W"

    def two_inc(x, y):
        if x >= 1.0 - eps:
            return False
        return y < (2 * x - 1) / (2 * x - 2)

    q2i = (two_inc(a, b) or two_inc(b, a)) and region == "Q_I"

    def three_inc(x, y):
        if abs(1 - 2 * x) <= eps:
            return False
        t = 1 - sqrt2 / (1 - 2 * x)
        return 0.0 <= t <= 1.0 and y < t

    q3i = (three_inc(a, b) or three_inc(b, a)) and q2i
    qhalfw = a > 0 and b > (1 - 1 / sqrt2) / a and region == "Q_W"
    return region, q2i, q3i, qhalfw


def _phase_csv_by_rows(n):
    """The phase-diagram CSV text: one dict per grid point, one line per dict."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    lines = ["alpha,beta,region,q2i,q3i,qhalfw,lower,upper\n"]
    for i in range(n):
        for j in range(n):
            a, b = i / (n - 1), j / (n - 1)
            region, q2i, q3i, qhalfw = _phase_region_by_point(a, b)
            lower, upper = a + b - 2 * a * b, a + b - a * b
            lines.append(",".join([fmt(a), fmt(b), region, str(int(q2i)), str(int(q3i)),
                                   str(int(qhalfw)), fmt(lower), fmt(upper)]) + "\n")
    return "".join(lines)


def _cesaro_by_matrix_doubling(G, seed):
    """One Cesaro limit: the projector applied to the seed, the iteration
    count from the doubling recursion on the operator means,
    M_2n = (M_n + T^n M_n)/2, and the three certificates one convolution
    at a time."""
    tol = algebra.ITER_TOL
    T = seed.duals @ G.delta
    limit = State(G.algebra, _cesaro_projector_by_solve_sylvester(T) @ seed.duals)
    M, P, iterations = np.eye(G.dim, dtype=complex), T, 1
    for _ in range(30):
        M = 0.5 * (M + P @ M)
        iterations *= 2
        if np.abs(M @ seed.duals - limit.duals).max() <= 10 * tol:
            break
        P = P @ P
    residual = max(G.convolve(seed, limit, check=False).distance(limit),
                   G.convolve(limit, seed, check=False).distance(limit))
    idem = G.convolve(limit, limit, check=False).distance(limit)
    return CesaroResult(limit, iterations, residual, idem <= tol and residual <= 10 * tol)


def _census_by_seed(G, n_seeds, seed, extra_seeds):
    """The census one seed and one Cesaro limit at a time."""
    return [_cesaro_by_matrix_doubling(G, phi)
            for phi in list(extra_seeds) + _sample_states(G, n_seeds, seed)]


@pytest.fixture
def experiment_oracles():
    """The per-item routes: ``phase_region(a, b)`` as a (region, q2i, q3i,
    qhalfw) tuple, the ``phase_csv(n)`` text and the ``census(G, n_seeds,
    seed, extra_seeds)``."""
    return types.SimpleNamespace(phase_region=_phase_region_by_point,
                                 phase_csv=_phase_csv_by_rows,
                                 census=_census_by_seed)


# -- routes that computed an answer twice or copied what json encodes ---------------


def _fix_seed_by_two_eigenvectors(G):
    """The fix eigenvector seed with one decomposition of fix per eigenvector:
    each of the eigenvalues nearest 2 and 4 takes its own ``eigh``."""
    fix = G.fix_element()

    def eigenvector(target):
        evals, U = algebra._self_adjoint_eig(fix)
        return np.linalg.solve(G.algebra._chol.conj().T,
                               U[:, int(np.argmin(np.abs(evals - target)))])

    duals = [G.vector_state(eigenvector(t)).duals for t in (2.0, 4.0)]
    return State(G.algebra, np.mean(duals, axis=0))


def _jsonable(obj):
    """A payload copied into json's own types: floats through a 17-digit
    round trip, complex numbers as {re, im}, arrays as lists and States as
    their duals."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(format(obj.real, ".17g")), "im": float(format(obj.imag, ".17g"))}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, State):
        return _jsonable(obj.duals)
    return obj


@pytest.fixture(scope="session")
def retired_routes():
    """``fix_seed(G)``, the fix eigenvector seed by two decompositions of fix,
    and ``jsonable(payload)``, the artifact payload copied into json's types
    before encoding."""
    return types.SimpleNamespace(fix_seed=_fix_seed_by_two_eigenvectors, jsonable=_jsonable)


# -- the per-basis classifier that the star-closure test replaced -------------------


def _classify_by_basis_loop(G, phi):
    """(kind, null-space dimension) of an idempotent: the null space from the
    sesquilinear matrix phi(e_i^* e_j) with the library's cut, and NonHaar
    if multiplying the null basis by a basis element, on the left or on the
    right, leaves its span by more than 1e-7."""
    alg = G.algebra
    P = alg.involution @ (alg.mult @ phi.duals)
    evals, vecs = np.linalg.eigh((P + P.conj().T) / 2)
    N = vecs[:, evals < 1e-8 * max(1.0, evals.max())].T
    proj = N.conj().T @ N
    for i in range(G.dim):
        for prods in (N @ alg.mult[i], N @ alg.mult[:, i, :]):  # rows e_i n, then n e_i
            if np.abs(prods - prods @ proj).max(initial=0.0) > 1e-7:
                return "NonHaar", N.shape[0]
    return "Haar", N.shape[0]


def _sesquilinear_form(alg):
    """The dense (d, d^2) sesquilinear form K, (phi @ K)[i d + j] =
    phi(e_i^* e_j), involution and mult folded into one matrix, as the
    library kept it before its forms were built per summand."""
    d = alg.dim
    K = (alg.involution @ alg.mult.reshape(d, d * d)).reshape(d * d, d)
    return np.ascontiguousarray(K.T)


@pytest.fixture(scope="session")
def sesquilinear_oracle():
    """``sesquilinear_oracle(alg)``: the dense (d, d^2) sesquilinear form."""
    return _sesquilinear_form


def _classify_by_dense_form(G, phi):
    """(kind, null-space dimension, residual) of an idempotent as the library
    took it before: phi(e_i^* e_j) from the dense (d, d^2) sesquilinear form
    (:func:`_sesquilinear_form`), then the star-closure test."""
    alg, d = G.algebra, G.dim
    P = (phi.duals @ _sesquilinear_form(alg)).reshape(d, d)
    evals, vecs = np.linalg.eigh((P + P.conj().T) / 2)
    N = vecs[:, evals < 1e-8 * max(1.0, evals.max())].T
    R = np.conj(N) @ alg.involution
    residual = float(np.abs(R - (R @ N.conj().T) @ N).max(initial=0.0))
    return "Haar" if residual <= 1e-7 else "NonHaar", N.shape[0], residual


@pytest.fixture
def classify_dense_form_oracle():
    """``classify_dense_form_oracle(G, phi)``: (kind, null-space dimension,
    residual) from the dense sesquilinear form."""
    return _classify_by_dense_form


@pytest.fixture
def classify_oracle():
    """``classify_oracle(G, phi)``: (kind, null-space dimension) by testing
    the null space for a two-sided ideal, one basis element at a time."""
    return _classify_by_basis_loop


# -- the per-entry constructors and the meet that the shared routes replaced --------


def _group_law_by_loops(G):
    """mult, delta, involution, antipode and magic of a classical or dual
    group, rebuilt from G.group one entry at a time."""
    group = G.group
    n = group.order
    law = np.zeros((n, n, n), dtype=complex)
    diagonal = np.zeros((n, n, n), dtype=complex)
    inverse = np.zeros((n, n), dtype=complex)
    for a in range(n):
        diagonal[a, a, a] = 1.0
        inverse[a, group.inv(a)] = 1.0
        for b in range(n):
            law[a, b, group.table[a][b]] = 1.0
    if G.kind == "classical":
        order = group.perms
        magic = np.zeros((len(order[0]), len(order[0]), n), dtype=complex)
        for j in range(len(order[0])):
            for s, p in enumerate(order):
                magic[p[j], j, s] = 1.0
        return {"mult": diagonal, "delta": law.transpose(2, 0, 1), "involution": np.eye(n),
                "antipode": inverse, "magic": magic}
    orders = [group.element_order(g) for g in G.generator_indices]
    magic = np.zeros((sum(orders), sum(orders), n), dtype=complex)
    off = 0
    for g, d in zip(G.generator_indices, orders):
        powers = [0] * d
        for m in range(1, d):
            powers[m] = group.table[powers[m - 1]][g]
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    phase = np.exp(2j * np.pi * (((j - k) * m) % d) / d)
                    magic[off + j, off + k, powers[m]] += phase / d
        off += d
    return {"mult": law, "delta": diagonal, "involution": inverse, "antipode": inverse,
            "magic": magic}


def _group_law_mismatches(G):
    """Names of the structure arrays of G that differ from the per-entry
    loops in any entry (``np.array_equal``)."""
    got = {"mult": G.algebra.mult, "delta": G.delta, "involution": G.algebra.involution,
           "antipode": G.antipode, "magic": G.magic}
    return [name for name, ref in _group_law_by_loops(G).items()
            if not np.array_equal(got[name], ref)]


@pytest.fixture(scope="session")
def group_law_oracle():
    """``group_law_oracle(G)``: the structure arrays of a classical or dual
    group that differ from the per-entry constructor loops, by name."""
    return _group_law_mismatches


def _meet_by_mean_of_frames(ps):
    """Coefficients of the meet: the eigenvalue-1 spectral projection of the
    mean of the L_p, each conjugated into the trace frame on its own."""
    alg = ps[0].algebra
    avg = sum(alg.to_hermitian_frame(alg.left_mult_matrix(p.coeffs)) for p in ps) / len(ps)
    evals, U = np.linalg.eigh((avg + avg.conj().T) / 2)
    V = U[:, evals > 1.0 - 1e3 * algebra.ITER_TOL]
    return alg.matrix_to_coeffs(alg.from_hermitian_frame(V @ V.conj().T))


@pytest.fixture
def meet_oracle():
    """``meet_oracle(ps)``: the meet by the mean of the per-input frames."""
    return _meet_by_mean_of_frames


# -- the kernels before their repeated work was taken out ----------------------------


def _summed_by_add_at(shape, keys, vals):
    """Duplicate keys summed by ``np.unique`` and ``np.add.at``, exact zeros dropped."""
    uniq, inv = np.unique(keys, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=complex)
    np.add.at(acc, inv, vals)
    keep = acc != 0
    return _Coo(shape, uniq[keep], acc[keep])


def _positive_rows_unfolded(alg, D, tol):
    """The positivity mask 32 rows at a time, with the involution applied to
    each block's products with mult as a second batched product."""
    d = alg.dim
    mult = alg.mult.reshape(d * d, d)
    ok = np.zeros(D.shape[0], dtype=bool)
    for start in range(0, D.shape[0], 32):
        rows = D[start:start + 32]
        P = alg.involution @ (rows @ mult.T).reshape(-1, d, d)
        Ph = P.conj().transpose(0, 2, 1)
        hermitian = np.abs(P - Ph).max(axis=(1, 2)) <= tol
        H = 0.5 * (P + Ph) + tol * np.eye(d)
        factored = np.zeros(len(rows), dtype=bool)
        for k, h in enumerate(H):
            try:
                np.linalg.cholesky(h)
                factored[k] = True
            except np.linalg.LinAlgError:
                pass
        ok[start:start + 32] = hermitian & factored
    return ok


def _cesaro_projector_by_solve_sylvester(T):
    """The eigenvalue-1 spectral projector, with the coupling block from
    ``scipy.linalg.solve_sylvester``, which takes its own Schur forms."""
    U, Q, sdim = schur(T, output="complex", sort=lambda lam: abs(lam - 1.0) < 1e-8)
    d = T.shape[0]
    if sdim in (0, d):
        return np.eye(d, dtype=complex) if sdim else np.zeros((d, d), dtype=complex)
    R = solve_sylvester(U[:sdim, :sdim], -U[sdim:, sdim:], U[:sdim, sdim:])
    block = np.zeros((d, d), dtype=complex)
    block[:sdim, :sdim] = np.eye(sdim)
    block[:sdim, sdim:] = R
    return Q @ block @ Q.conj().T


def _validate_residuals_by_einsum(G):
    """The residuals of ``validate`` that are dense contractions, by the
    einsums that state their index meaning."""
    alg, D, S = G.algebra, G.delta, G.antipode
    c, iv, eps = alg.mult, alg.involution, G.counit.duals
    target = np.outer(eps, alg.unit)
    anti = np.einsum("ijm,mu->iju", c, S, optimize=True) \
        - np.einsum("ju,iv,uvk->ijk", S, S, c, optimize=True)
    return {
        "algebra.involution_antihom": np.abs(
            np.einsum("ijm,mk->ijk", np.conj(c), iv, optimize=True)
            - np.einsum("ja,ib,abk->ijk", iv, iv, c, optimize=True)).max(),
        "delta_star_map": np.abs(
            np.einsum("ik,kab->iab", iv, D, optimize=True)
            - np.einsum("iab,au,bv->iuv", np.conj(D), iv, iv, optimize=True)).max(),
        "antipode_left": np.abs(
            np.einsum("iab,au,ubk->ik", D, S, c, optimize=True) - target).max(),
        "antipode_right": np.abs(
            np.einsum("iab,bu,auk->ik", D, S, c, optimize=True) - target).max(),
        "antipode_antihom": np.abs(anti).max(),
    }


def _summands_by_union_find(alg):
    """The parts of the basis indices, as sorted lists in order of their
    first index, that the non-zeros join: i, j and k of every non-zero
    mult[i, j, k], and i and k of every non-zero involution[i, k]."""
    parent = list(range(alg.dim))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(x, *others):
        for y in others:
            a, b = root(x), root(y)
            parent[max(a, b)] = min(a, b)

    for i, j, k in zip(*np.nonzero(alg.mult)):
        join(i, j, k)
    for i, k in zip(*np.nonzero(alg.involution)):
        join(i, k)
    parts = {}
    for x in range(alg.dim):
        parts.setdefault(root(x), []).append(x)
    return sorted(parts.values())


@pytest.fixture(scope="session")
def summand_oracle():
    """``summand_oracle(alg)``: the summands of the basis by union-find over
    the non-zeros of mult and the involution."""
    return _summands_by_union_find


def _eigen_clusters_by_walk(evals):
    """The clusters as lists of indices: the argsort walked in a loop, a
    new cluster wherever an eigenvalue is more than 1e-6 * max(1, |prev|)
    above the one before it."""
    order = np.argsort(evals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        prev = evals[clusters[-1][-1]]
        if abs(evals[idx] - prev) <= 1e-6 * max(1.0, abs(prev)):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


@pytest.fixture(scope="session")
def kernel_oracles():
    """The kernels as they were: ``summed`` (np.unique + np.add.at),
    ``positive_rows`` (32 rows, involution as a second product),
    ``cesaro_projector`` (solve_sylvester), ``validate_residuals`` (einsums)
    and ``eigen_clusters`` (the argsort walked in a loop)."""
    return types.SimpleNamespace(summed=_summed_by_add_at,
                                 positive_rows=_positive_rows_unfolded,
                                 cesaro_projector=_cesaro_projector_by_solve_sylvester,
                                 validate_residuals=_validate_residuals_by_einsum,
                                 eigen_clusters=_eigen_clusters_by_walk)


@pytest.fixture
def force_block(monkeypatch):
    """``force_block(d, rows)``: the stacked kernels take ``rows`` rows at a
    time at dimension d, through the library's own block rule; undone after
    the test."""
    def force(d, rows):
        monkeypatch.setattr(algebra, "_BLOCK_MIN_ROWS", 1)
        monkeypatch.setattr(algebra, "_BLOCK_ENTRIES", rows * d * d)
        assert algebra._block_rows(d) == rows
        return rows
    return force


# -- the generation check by two other routes: sparse word growth, span squaring --


def _row_space_by_svd(rows):
    """Orthonormal rows spanning a stack, from the thin SVD of the stack
    itself, cut at singular values 1e-10 of the largest."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[s > 1e-10 * max(1.0, s[0] if s.size else 1.0)]


def _entries_generate_by_words(G):
    """Whether the unit and the magic entries generate the algebra, by
    span_{t+1} = span_t + span_t gens = span_t + new_t gens, where new_t
    completes span_{t-1} to span_t: only the new rows are multiplied, by the
    sparse contraction with the right multiplications by the entries."""
    alg = G.algebra
    gens = G.magic.reshape(G.N * G.N, alg.dim)
    # right multiplication by each entry: (e_i g)[k]
    right = _contract("gj,ijk->gik", _coo(gens), alg._mult_coo)
    basis = _row_space_by_svd(np.vstack([alg.unit[np.newaxis, :], gens]))
    new = basis
    while basis.shape[0] < alg.dim:
        sparse = _contract("bi,gik->bgk", _coo(new), right)
        prods = np.zeros(new.shape[0] * gens.shape[0] * alg.dim, dtype=complex)
        prods[sparse.keys] = sparse.vals
        prods = prods.reshape(-1, alg.dim)
        new = _row_space_by_svd(prods - (prods @ basis.conj().T) @ basis)
        if new.shape[0] == 0:
            return False
        basis = np.vstack([basis, new])
    return True


def _entries_generate_by_squaring(G):
    """Whether the unit and the magic entries generate the algebra, by span
    squaring: each round replaces their span V with V + V V, from the dense
    products prods[x, y] = V[x] V[y], until V is the algebra or stops
    growing, so words of length n take log2(n) rounds."""
    alg, d = G.algebra, G.dim
    basis, rank = _row_space(np.vstack([alg.unit, G.magic.reshape(-1, d)])), 0
    while rank < basis.shape[0] < d:
        rank = basis.shape[0]
        prods = basis @ (basis @ alg.mult.reshape(d, d * d)).reshape(-1, d, d)
        basis = _row_space(np.vstack([basis, prods.reshape(-1, d)]))
    return basis.shape[0] == d


@pytest.fixture
def row_space_oracle():
    """``row_space_oracle(rows)``: the row space by the SVD of the whole stack."""
    return _row_space_by_svd


@pytest.fixture(scope="session")
def generation_oracle():
    """``generation_oracle(G)``: whether the magic entries generate, growing
    the span by one word length a round with sparse products."""
    return _entries_generate_by_words


@pytest.fixture(scope="session")
def squaring_oracle():
    """``squaring_oracle(G)``: whether the magic entries generate, squaring
    the span each round, as the library did before word growth."""
    return _entries_generate_by_squaring


# -- groups in another basis ------------------------------------------------------


def complex_basis(G, seed):
    """I + 0.3 (X + iY) with X, Y seeded Gaussian: a complex, non-orthogonal basis."""
    rng = np.random.default_rng(seed)
    return np.eye(G.dim) + 0.3 * (rng.standard_normal((G.dim,) * 2)
                                  + 1j * rng.standard_normal((G.dim,) * 2))


def in_basis(G, B):
    """G with the basis f_i = sum_k B[i, k] e_k; coefficients map x -> x @ B^-1."""
    a, Bi = G.algebra, np.linalg.inv(B)
    mult = np.einsum("ia,jb,abk,kl->ijl", B, B, a.mult, Bi, optimize=True)
    alg = StarAlgebra(a.labels, mult, np.conj(B) @ a.involution @ Bi, a.unit @ Bi, B @ a.trace,
                      check=False)
    return CompactQuantumGroup(
        G.name, alg, np.einsum("ia,abc,bm,cn->imn", B, G.delta, Bi, Bi, optimize=True),
        State(alg, B @ G.counit.duals, check=False), B @ G.antipode @ Bi,
        G.magic @ Bi, check=False)
