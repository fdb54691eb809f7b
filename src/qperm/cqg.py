"""Compact quantum group structure over a finite-dimensional *-algebra.

A group is an algebra together with comultiplication, counit, antipode, Haar
state and a magic unitary grid whose entries generate the algebra.  The Hopf
axioms, which at finite dimension replace the cancellation conditions, are
all checkable numerically and :meth:`CompactQuantumGroup.validate` reports a
residual per axiom.

Constructors cover the families used throughout: algebras of functions on a
finite permutation group, duals of finite groups with Fourier-type magic
unitaries, and the eight-dimensional Kac-Paljutkin quantum group.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import permgroups
from .algebra import (
    AlgebraElement,
    AlgebraError,
    DEFAULT_TOL,
    LinearFunctional,
    Projection,
    StarAlgebra,
    State,
    _block_rows,
    _certify,
    _coo,
    _contract,
    _generic_coeffs,
    _identity_residual,
    _multiplicativity_residual,
    _projection_residuals,
    _require_states,
    _state_rows,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class ValidationReport:
    """Per-axiom residual table."""

    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        w = max(len(c.name) for c in self.checks)
        lines = [f"{c.name.ljust(w)}  {c.residual:12.3e}  (tol {c.tolerance:.1e})  "
                 f"{'ok' if c.passed else 'FAIL'}" for c in self.checks]
        return "\n".join(lines)


class CompactQuantumGroup:
    """Finite-dimensional quantum permutation group.

    Attributes
    ----------
    algebra : StarAlgebra
    delta : (dim, dim, dim) array; ``Delta(e_i) = sum_{a,b} delta[i,a,b] e_a (x) e_b``.
    counit : State, a character.
    antipode : (dim, dim) array; ``S(e_a) = sum_u antipode[a, u] e_u``.
    magic : (N, N, dim) array of projection coefficients.
    haar : State, the regular trace h(x) = Tr(L_x) / d over the dimension.
        It is a two-sided integral of a semisimple, cosemisimple Hopf algebra
        (Larson-Radford, 1988), and a bi-invariant state is unique, as two
        absorb each other; :meth:`validate` certifies it as a state and
        both invariances.  The algebra's trace is not used: it may be any
        faithful trace.
    """

    def __init__(self, name: str, algebra: StarAlgebra, delta, counit, antipode,
                 magic, kind: str = "generic", check: bool = True):
        self.name = name
        self.kind = kind
        self.algebra = algebra
        self.delta = np.ascontiguousarray(delta, dtype=complex)
        self.counit = counit if isinstance(counit, State) else State(algebra, counit)
        self.antipode = np.asarray(antipode, dtype=complex)
        self.magic = np.asarray(magic, dtype=complex)
        if self.delta.shape != (algebra.dim,) * 3:
            raise AlgebraError("delta tensor has wrong shape")
        if self.magic.ndim != 3 or self.magic.shape[0] != self.magic.shape[1] \
                or self.magic.shape[2] != algebra.dim:
            raise AlgebraError("magic grid has wrong shape")
        self.haar = State(algebra, algebra._regular_trace / algebra.dim, check=False)
        if check:
            report = self.validate()
            if not report.ok:
                names = [c.name for c in report.failures()]
                raise AlgebraError(f"quantum group axioms failed: {names}\n{report}")

    # -- basics ---------------------------------------------------------------

    @property
    def N(self) -> int:
        return self.magic.shape[0]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def magic_projection(self, i: int, j: int) -> Projection:
        """The magic entry u_ij as a Projection, checked on its own."""
        return Projection(self.algebra, self.magic[i, j])

    @cached_property
    def _magic_sandwiches(self) -> np.ndarray:
        """(N^2, d, d) stack of the sandwich matrices (:func:`_sandwich_matrix`)
        of the magic entries u_ij, in row-major (i, j) order, built on first use."""
        return np.array([_sandwich_matrix(self, q) for q in self.magic.reshape(self.N ** 2, -1)])

    def fix_element(self) -> AlgebraElement:
        """Trace of the magic unitary, the main character sum_j u_jj."""
        return self.algebra.element(self.magic[range(self.N), range(self.N)].sum(axis=0))

    def delta_applied(self, coeffs: np.ndarray) -> np.ndarray:
        """Delta of an element, as a (dim, dim) tensor-coefficient matrix."""
        d = self.dim
        return (coeffs @ self.delta.reshape(d, d * d)).reshape(d, d)

    # -- states ---------------------------------------------------------------

    def convolve(self, phi: LinearFunctional, rho: LinearFunctional,
                 check: bool = True) -> State:
        """Convolution (phi (x) rho) o Delta."""
        if phi.algebra is not self.algebra or rho.algebra is not self.algebra:
            raise AlgebraError("functionals live on a different algebra")
        duals = self._convolve_rows(phi.duals[np.newaxis], rho.duals[np.newaxis])
        return State(self.algebra, duals[0], check=check)

    def _convolve_rows(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row k is (A[k] (x) B[k]) o Delta: one product with Delta as a
        (d, d^2) matrix per block of rows (``algebra._block_rows``), so no
        (n, d^2) array is formed."""
        d = self.dim
        delta = self.delta.reshape(d, d * d).T
        block = _block_rows(d)
        out = np.empty((len(A), d), dtype=complex)
        for start in range(0, len(A), block):
            a, b = A[start:start + block], B[start:start + block]
            pairs = (a[:, :, np.newaxis] * b[:, np.newaxis]).reshape(-1, d * d)
            out[start:start + block] = pairs @ delta
        return out

    def reverse(self, phi: LinearFunctional) -> State:
        """phi o S; for a state, again a state (Kac type)."""
        return State(self.algebra, self.antipode @ phi.duals, check=False)

    def vector_state(self, x: np.ndarray) -> State:
        """GNS vector state f -> tau(x* f x) / tau(x* x)."""
        duals, nonnull = _vector_duals(self.algebra, np.asarray(x)[np.newaxis])
        if not nonnull[0]:
            raise AlgebraError("vector is null for the trace form")
        return State(self.algebra, duals[0])

    def sample_states(self, n: int, seed: int) -> list[State]:
        """Deterministic state bank: convex mixes of 1 to 3 GNS vector
        states, one State per row of :meth:`_state_bank`."""
        return [State(self.algebra, row, check=False)
                for row in self._state_bank(n, seed)]

    def _state_bank(self, n: int, seed: int) -> np.ndarray:
        """The (n, d) checked duals of :meth:`sample_states`.

        Sample k is seeded by (seed, k) alone, so batches are reproducible
        however they are chunked: its generator is
        ``default_rng(SeedSequence(entropy=seed, spawn_key=(k,)))`` bit for
        bit, with the four PCG64 seed words of every sample computed in one
        vectorised pass (:func:`_spawn_words`), so no SeedSequence is built
        per sample.  Each sample draws m in {1, 2, 3}, then m standard
        exponentials (``dirichlet(ones(m))`` bit for bit) and its m vectors
        in one normal draw, into buffers for a block of rows
        (``algebra._block_rows``).  The block's vector states are formed in
        one contraction and checked together, then mixed in the order their
        vectors were drawn, and the mixes are checked together again.  Both
        checks stay: each is one stacked positivity check in the algebra's
        block frame (``algebra._positive_rows``).

        A seed that is not an integer raises TypeError, and SeedSequence
        rejects a negative one with ValueError; n is at most 2**32, one
        uint32 word of spawn key per sample.
        """
        seed = operator.index(seed)
        if n > 2 ** 32:
            raise ValueError(f"a state bank holds at most 2**32 samples, not {n}")
        from numpy.random import PCG64, Generator  # here: `import qperm` loads no numpy.random
        alg, d = self.algebra, self.dim
        block = _block_rows(d)
        words, seeded = _spawn_words(seed, np.arange(n)), _words_seed_sequence()
        out = np.empty((n, d), dtype=complex)
        for start in range(0, n, block):
            stop = min(start + block, n)
            counts = np.empty(stop - start, dtype=int)
            E = np.zeros((stop - start, 3))  # each sample's exponentials, zero-padded
            Z = np.empty((3 * (stop - start), 2, d))  # real, imaginary part of each vector
            row = 0
            for i, w in enumerate(words[start:stop]):
                rng = Generator(PCG64(seeded(w)))
                m = counts[i] = int(rng.integers(1, 4))
                rng.standard_exponential(out=E[i, :m])
                rng.standard_normal(out=Z[row:row + m])
                row += m
            weights = E * (1.0 / E.sum(axis=1))[:, np.newaxis]
            vectors, nonnull = _vector_duals(alg, Z[:row, 0] + 1j * Z[:row, 1])
            if not nonnull.all():
                raise AlgebraError("vector is null for the trace form")
            _require_states(alg, vectors)
            first = np.cumsum(counts) - counts
            mixes = np.zeros((counts.size, d), dtype=complex)
            for t in range(counts.max()):
                rows = np.flatnonzero(counts > t)
                mixes[rows] += weights[rows, t, np.newaxis] * vectors[first[rows] + t]
            _require_states(alg, mixes)
            out[start:stop] = mixes
        return out

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Residual per axiom.

        The group is immutable, so the checks run once, on first use.
        """
        return ValidationReport(list(self._checks))

    @cached_property
    def _checks(self) -> list[CheckResult]:
        alg, D, c = self.algebra, self.delta, self.algebra.mult
        tol, d = alg.tol, alg.dim
        checks = []

        def add(name, residual, tolerance=tol):
            checks.append(CheckResult(name, float(residual), tolerance))

        for axiom, res in alg.check_invariants().items():
            add(f"algebra.{axiom}", res)

        Dc, cc, ivc, Sc = _coo(D), alg._mult_coo, _coo(alg.involution), _coo(self.antipode)
        # (Delta (x) id) Delta against (id (x) Delta) Delta
        add("coassociativity", _identity_residual(
            ("iuk,uab->iabk", Dc, Dc), ("iau,ubk->iabk", Dc, Dc)))

        add("delta_unital", np.abs(self.delta_applied(alg.unit)
                                   - np.outer(alg.unit, alg.unit)).max())

        # Delta(e_i e_j) against Delta(e_i) Delta(e_j)
        # = sum D[i,a,b] c[a,A,k] D[j,A,B] c[b,B,l] e_k (x) e_l, as the sums
        # over a and over B, then over (A, b): d^2 pairs on C(G) and C*(Gamma)
        add("delta_multiplicative", _identity_residual(
            ("ijm,mkl->ijkl", cc, Dc),
            ("ibAk,jAbl->ijkl", _contract("iab,aAk->ibAk", Dc, cc),
             _contract("jAB,bBl->jAbl", Dc, cc))))

        # Delta(e_i*) against (* (x) *) Delta(e_i):
        # sum_k iv[i, k] D[k, a, b] against sum_uv conj(D[i, u, v]) iv[u, a] iv[v, b]
        rhs = _contract("iuv,ua->iav", Dc._replace(vals=np.conj(Dc.vals)), ivc)
        add("delta_star_map", _identity_residual(
            ("ik,kab->iab", ivc, Dc), ("iav,vb->iab", rhs, ivc)))

        eps = self.counit.duals
        add("counit_left", np.abs(np.einsum("iab,a->ib", D, eps) - np.eye(alg.dim)).max())
        add("counit_right", np.abs(np.einsum("iab,b->ia", D, eps) - np.eye(alg.dim)).max())
        mult_eps = np.einsum("ijk,k->ij", c, eps) - np.outer(eps, eps)
        add("counit_character", max(np.abs(mult_eps).max(),
                                    abs(eps @ alg.unit - 1.0)))

        S = self.antipode
        # m(S (x) id) Delta and m(id (x) S) Delta against eps(.) 1:
        # sum D[i, a, b] S[a, u] c[u, b, k] and sum D[i, a, b] S[b, u] c[a, u, k]
        target = _coo(np.outer(eps, alg.unit))
        add("antipode_left", _identity_residual(
            ("iab,abk->ik", Dc, _contract("au,ubk->abk", Sc, cc)), target))
        add("antipode_right", _identity_residual(
            ("iau,auk->ik", _contract("iab,bu->iau", Dc, Sc), cc), target))
        add("antipode_kac", np.abs(S @ S - np.eye(alg.dim)).max())
        # S(e_i e_j) against S(e_j) S(e_i): sum_uv S[j, u] S[i, v] c[u, v, k]
        add("antipode_antihom", _identity_residual(
            ("ijm,mk->ijk", cc, Sc),
            ("ju,iuk->ijk", Sc, _contract("iv,uvk->iuk", Sc, cc))))

        add("haar_state", 0.0 if _state_rows(alg, self.haar.duals[np.newaxis])[0] else 1.0, 0.5)
        left, right = np.abs(_absorption_operator(self, self.haar.duals)).reshape(2, -1).max(axis=1)
        add("haar_left_invariance", left)
        add("haar_right_invariance", right)

        N = self.N
        add("magic_projections", _projection_residuals(alg, self.magic.reshape(-1, d)).max())
        add("magic_row_sums", np.abs(self.magic.sum(axis=1) - alg.unit).max())
        add("magic_col_sums", np.abs(self.magic.sum(axis=0) - alg.unit).max())
        # Delta(u_ij) against sum_k u_ik (x) u_kj, the sum one product indexed
        # [(i, a), (j, b)], for a block of grid rows i at a time: N (d, d)
        # arrays a grid row, _block_rows(d) of them a block
        rows = max(1, _block_rows(d) // N)
        add("magic_comultiplication", max(np.abs(
            (self.magic[i:i + rows] @ D.reshape(d, d * d)).reshape(-1, N, d, d)
            - (self.magic[i:i + rows].transpose(0, 2, 1).reshape(-1, N)
               @ self.magic.reshape(N, N * d)).reshape(-1, d, N, d).transpose(0, 2, 1, 3)).max()
            for i in range(0, N, rows)))
        add("magic_antipode", np.abs(self.magic @ S - self.magic.transpose(1, 0, 2)).max())
        add("magic_counit", np.abs(self.magic @ eps - np.eye(N)).max())
        add("magic_generates", 0.0 if self._entries_generate() else 1.0, 0.5)
        return checks

    def _entries_generate(self) -> bool:
        """Whether the unit and the magic entries generate the algebra, by word
        growth: each round multiplies only the rows it last added by every
        generator and adds the part of those products off the span V, until V
        is the algebra or stops growing.  The operator is scaled to entries of
        at most 1, so that the rank cut admits no rounding in a rescaled basis."""
        alg, d = self.algebra, self.dim
        gens = _row_space(np.vstack([alg.unit, self.magic.reshape(-1, d)]))
        right = np.matmul(gens, alg.mult).reshape(d, -1)  # row a: e_a g for every g
        right /= max(1.0, np.abs(right).max())
        basis = new = gens
        while 0 < len(new) and len(basis) < d:
            prods = (new @ right).reshape(-1, d)
            new = _row_space(prods - (prods @ basis.conj().T) @ basis)
            basis = np.vstack([basis, new])
        return len(basis) == d

    def __repr__(self):
        return f"CompactQuantumGroup({self.name}, dim={self.dim}, N={self.N})"


def _sandwich_matrix(G: CompactQuantumGroup, q: np.ndarray) -> np.ndarray:
    """Matrix S with (S phi)(e_i) = phi(q e_i q)."""
    c, d = G.algebra.mult, G.dim
    # rows (e_i q)[k], times W[k, l] = (q e_k)[l]
    return (q @ c) @ (q @ c.reshape(d, d * d)).reshape(d, d)


def _vector_duals(alg: StarAlgebra, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector states tau(x* . x) / tau(x* x) of the rows x of X.

    Returns the (n, d) duals and the mask of rows that are not null for the
    trace form; null rows are left unnormalized.
    """
    d = alg.dim
    X = np.asarray(X, dtype=complex)
    # (e_i x)[k] for every row x: mult contracted on its second index, read
    # through the cached regular representation regular[i, k, j] = mult[i, j, k]
    right = (X @ alg.regular.reshape(d * d, d).T).reshape(-1, d, d)
    # tau(x* e_k)
    left = (np.conj(X) @ alg.involution) @ alg._pairing
    duals = (right @ left[:, :, np.newaxis])[:, :, 0]
    nrm = duals @ alg.unit
    nonnull = np.abs(nrm) >= 1e3 * np.finfo(float).eps
    duals[nonnull] /= nrm[nonnull, np.newaxis]
    return duals, nonnull


# SeedSequence's hash constants (NumPy, numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
# as uint64 columns, which hold every product of two words before the mask:
# _MULT_A^t for the hashes of the spawn key, the constants of the 8 output hashes
_POWERS_A = np.array([[pow(_MULT_A, t, 2 ** 32)] for t in range(5)], dtype=np.uint64)
_CONSTS_B = np.array([[_INIT_B * pow(_MULT_B, t, 2 ** 32) & _MASK32] for t in range(9)],
                     dtype=np.uint64)


def _spawn_words(seed: int, ks: np.ndarray) -> np.ndarray:
    """(len(ks), 4) uint64 array whose row for k is
    ``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)``,
    for a non-negative int seed and every 0 <= k < 2**32.

    SeedSequence mixes its entropy, the seed's w 32-bit words padded with
    zeros to the pool size 4 and then the one word k, into a pool of 4
    words.  k comes last, so the pool before it is ``SeedSequence(seed).pool``;
    the hash constant advances once per hash whatever the data, and 16 + 4
    max(0, w - 4) hashes precede k's four.  Those four, k mixed into each
    pool word, are done here as one (4, n) array in wrapping uint32
    arithmetic, and the pool then yields 8 words as one (8, n) array, read
    in pairs as 4 little-endian uint64.
    """
    from numpy.random import SeedSequence  # here: `import qperm` loads no numpy.random
    w = max(1, -(-seed.bit_length() // 32))
    const = (_INIT_A * pow(_MULT_A, 16 + 4 * max(0, w - 4), 2 ** 32) & _MASK32) * _POWERS_A \
        & _MASK32  # before each of k's hashes, and after the last
    value = (np.asarray(ks, dtype=np.uint64) ^ const[:4]) * const[1:] & _MASK32
    pool = (_MIX_L * SeedSequence(seed).pool.astype(np.uint64)[:, np.newaxis]
            - _MIX_R * (value ^ value >> 16)) & _MASK32
    pool ^= pool >> 16
    value = (np.concatenate([pool, pool]) ^ _CONSTS_B[:8]) * _CONSTS_B[1:] & _MASK32
    value ^= value >> 16
    return np.ascontiguousarray((value[0::2] | value[1::2] << 32).T)


@cache
def _words_seed_sequence() -> type:
    """An ``ISeedSequence`` that hands PCG64 given seed words: PCG64 asks
    its seed sequence for 4 uint64 words and seeds itself from their
    memory, so any other request is refused.  Built on first use, so that
    `import qperm` loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(f"seed words are 4 uint64, not {n_words} {dtype}")
            return self.words

    return Words


# -- Haar ----------------------------------------------------------------------


def _absorption_operator(G: CompactQuantumGroup, psi: np.ndarray) -> np.ndarray:
    """(2d, d) matrix [L_psi - psi u^T; R_psi - psi u^T] of duals psi, u the
    unit: it sends a unital phi to (psi * phi - psi, phi * psi - psi)."""
    rank_one = np.outer(psi, G.algebra.unit)
    return np.vstack([psi @ G.delta - rank_one, G.delta @ psi - rank_one])


# -- constructors ----------------------------------------------------------------


def _group_law(group: permgroups.FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law tensor T[a, b, ab] = 1, the diagonal tensor D[a, a, a] = 1 and
    the inversion matrix V[a, a^-1] = 1, the slice T[:, :, e], of a finite
    group: the products, coproducts and antipodes of C(Gamma) and C*(Gamma)."""
    n = group.order
    a = np.arange(n)
    T = np.zeros((n, n, n), dtype=complex)
    T[a[:, np.newaxis], a, np.array(group.table)] = 1.0
    D = np.zeros((n, n, n), dtype=complex)
    D[a, a, a] = 1.0
    return T, D, T[:, :, 0].copy()


def classical_group(perms: list[tuple], name: str | None = None,
                    tol: float = DEFAULT_TOL, check: bool = True) -> CompactQuantumGroup:
    """Algebra of functions on a finite permutation group.

    The magic unitary is u_ij = 1_{j -> i}; comultiplication dualizes the
    group law, so convolution of point masses is composition.
    """
    try:
        group = permgroups.FiniteGroup.from_permutations(perms)
    except ValueError as exc:  # not permutations, or not closed under composition
        raise AlgebraError(str(exc)) from exc
    order = group.perms
    n, deg = len(order), len(order[0])
    delta, mult, antipode = _group_law(group)
    delta = delta.transpose(2, 0, 1).copy()  # C order; T is freed before validation
    magic = np.zeros((deg, deg, n), dtype=complex)
    magic[np.array(order), np.arange(deg), np.arange(n)[:, np.newaxis]] = 1.0

    algebra = StarAlgebra([f"d[{l}]" for l in group.labels], mult,
                          involution=np.eye(n), unit=np.ones(n),
                          trace=np.full(n, 1.0 / n), tol=tol)
    G = CompactQuantumGroup(name or f"classical-{n}", algebra, delta,
                            np.eye(n)[0], antipode, magic, kind="classical", check=check)
    G.group = group
    G.group_elements = order
    return G


def uniform_state(G: CompactQuantumGroup, elements) -> State:
    """Uniform probability measure on a set of elements of a classical group."""
    if G.kind != "classical":
        raise AlgebraError("uniform states are for classical function algebras")
    elements = {tuple(p) for p in elements}
    if not elements or not elements <= set(G.group_elements):
        raise AlgebraError("the uniform state needs one or more elements of the group")
    duals = np.zeros(G.dim, dtype=complex)
    duals[[G.group_elements.index(p) for p in elements]] = 1.0 / len(elements)
    return State(G.algebra, duals)


def dual_group(group: permgroups.FiniteGroup, gens: list[tuple[int, int]],
               name: str | None = None, tol: float = DEFAULT_TOL,
               check: bool = True) -> CompactQuantumGroup:
    """Dual of a finite group: C*(Gamma) with a Fourier-type magic unitary.

    ``gens`` lists (element index, order) pairs; each generator of order d
    contributes a d x d block  F_d diag(1, lam, ..., lam^{d-1}) F_d*  with
    F_d the unitary DFT, and N is the sum of the orders.
    """
    n = group.order
    if not gens:
        raise AlgebraError("need at least one generator")
    for g, d in gens:
        if not (0 <= g < n and group.element_order(g) == d):
            raise AlgebraError(f"element {g} is not in the group or does not have order {d}")
    if not group.generates([g for g, _ in gens]):
        raise AlgebraError("listed elements do not generate the group")

    mult, delta, involution = _group_law(group)

    N = sum(d for _, d in gens)
    magic = np.zeros((N, N, n), dtype=complex)
    off = 0
    for g, d in gens:
        powers = [0]
        for _ in range(d - 1):
            powers.append(group.table[powers[-1]][g])
        j, k, m = np.indices((d, d, d))
        angle = 2 * np.pi * ((j - k) * m % d) / d
        magic[off + j, off + k, np.array(powers)[m]] = np.exp(1j * angle) / d
        off += d

    algebra = StarAlgebra([f"lam[{l}]" for l in group.labels], mult, involution,
                          unit=np.eye(n)[0], trace=np.eye(n)[0], tol=tol)
    G = CompactQuantumGroup(name or f"dual[{n}]", algebra, delta, np.ones(n),
                            involution, magic, kind="dual", check=check)
    G.group = group
    G.group_elements = group.perms if group.perms is not None else list(range(n))
    G.generator_indices = [g for g, _ in gens]
    return G


def dual_symmetric_group(n: int, check: bool = True) -> CompactQuantumGroup:
    """Dual of S_n on the generators (0 1) and (1 2 ... n-1).

    These generate S_n for n >= 4; n = 3 uses (0 1 2) instead.  N is 2 plus
    the cycle's order.
    """
    if n < 3:
        raise AlgebraError("need n >= 3")
    perms = permgroups.symmetric_group(n)
    group = permgroups.FiniteGroup.from_permutations(perms)
    sigma = permgroups.from_cycles(n, (0, 1))
    cycle = tuple(range(1, n)) if n >= 4 else (0, 1, 2)
    gi = group.perms.index(sigma)
    ti = group.perms.index(permgroups.from_cycles(n, cycle))
    return dual_group(group, [(gi, 2), (ti, group.element_order(ti))],
                      name=f"dual-S{n}", check=check)


def dual_dihedral(m: int, check: bool = True) -> CompactQuantumGroup:
    """Dual of the dihedral group of order 2m, on two reflection generators."""
    if m < 2:
        raise AlgebraError("need m >= 2")
    group = permgroups.FiniteGroup.dihedral(m)
    a, b = group.dihedral_reflections()
    return dual_group(group, [(a, 2), (b, 2)], name=f"dual-D{m}", check=check)


# -- Kac-Paljutkin ---------------------------------------------------------------


def _kp_block_vec(c1, c2, c3, c4, m):
    return np.array([c1, c2, c3, c4, m[0][0], m[0][1], m[1][0], m[1][1]],
                    dtype=complex)


def kac_paljutkin(tol: float = DEFAULT_TOL, check: bool = True) -> CompactQuantumGroup:
    """The eight-dimensional Kac-Paljutkin quantum group inside S_4^+.

    The algebra is C^4 (+) M_2 with basis f1..f4, E11, E12, E21, E22.  It is
    generated by commuting self-adjoint unitaries x, y and a unitary z with
    zx = yz, zy = xz and z^2 = (1 + x + y - xy)/2; the comultiplication is
    group-like on x, y and twisted on z:

        Delta(z) = (1(x)1 + 1(x)x + y(x)1 - y(x)x)(z(x)z) / 2.

    The counit is evaluation on the f1 block.  The magic unitary (N = 4)
    decomposes as trivial (+) (xy) (+) the two-dimensional irreducible
    corepresentation; its entries are frozen exactly below and validated.
    """
    dim = 8
    one = _kp_block_vec(1, 1, 1, 1, [[1, 0], [0, 1]])
    x = _kp_block_vec(1, -1, -1, 1, [[1, 0], [0, -1]])
    y = _kp_block_vec(1, -1, -1, 1, [[-1, 0], [0, 1]])
    z = _kp_block_vec(1, 1j, -1j, -1, [[0, 1], [1, 0]])

    mult = np.zeros((dim, dim, dim), dtype=complex)
    mult[range(4), range(4), range(4)] = 1.0  # f_i f_i = f_i
    a, b, c = np.indices((2, 2, 2))
    mult[4 + 2 * a + b, 4 + 2 * b + c, 4 + 2 * a + c] = 1.0  # E_ab E_bc = E_ac
    eye = np.eye(dim, dtype=complex)
    involution = np.eye(dim)[[0, 1, 2, 3, 4, 6, 5, 7]]  # E12* = E21
    trace = np.array([1, 1, 1, 1, 2, 0, 0, 2], dtype=complex) / 8.0

    algebra = StarAlgebra(["f1", "f2", "f3", "f4", "E11", "E12", "E21", "E22"],
                          mult, involution, unit=one, trace=trace, tol=tol)

    # comultiplication from the generator images, through the word basis
    M, prod = mult.reshape(dim * dim, dim), algebra.product_coeffs

    def tmul(X, Y):
        return M.T @ np.kron(X, Y) @ M

    twist = 0.5 * (np.outer(one, one) + np.outer(one, x) + np.outer(y, one) - np.outer(y, x))
    dx, dy = np.outer(x, x), np.outer(y, y)
    dz = tmul(twist, np.outer(z, z))
    words = [one, x, y, prod(x, y), z, prod(x, z), prod(y, z), prod(prod(x, y), z)]
    dwords = [np.outer(one, one), dx, dy, tmul(dx, dy), dz, tmul(dx, dz),
              tmul(dy, dz), tmul(tmul(dx, dy), dz)]
    Winv = np.linalg.inv(np.array(words).T)
    delta = np.einsum("wi,wab->iab", Winv, np.array(dwords))

    counit = eye[0]
    # antipode: the anti-automorphism fixing x, y, z.  On the word basis it
    # fixes everything except xz <-> yz (since S(xz) = zx = yz and vice versa).
    word_swap = np.eye(dim)[:, [0, 1, 2, 3, 4, 6, 5, 7]]
    antipode = (np.array(words).T @ word_swap @ Winv).T

    # frozen magic unitary: corners classical, off-diagonal blocks in M_2
    s = 1.0 / (2.0 * np.sqrt(2.0))
    om = s * (1 - 1j)

    def m2(a12):
        return _kp_block_vec(0, 0, 0, 0, [[0.5, a12], [np.conj(a12), 0.5]])

    A, B = m2(om), m2(-om)
    Ac, Bc = m2(np.conj(om)), m2(-np.conj(om))
    f = [eye[k] for k in range(4)]
    magic = np.array([
        [f[0] + f[2], f[1] + f[3], A, B],
        [f[1] + f[3], f[0] + f[2], B, A],
        [Ac, Bc, f[0] + f[1], f[2] + f[3]],
        [Bc, Ac, f[2] + f[3], f[0] + f[1]],
    ])
    return CompactQuantumGroup("kac-paljutkin", algebra, delta, counit, antipode,
                               magic, kind="kac_paljutkin", check=check)


# -- centre and characters ---------------------------------------------------------


def _row_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning a stack, cut at singular values 1e-10 of the
    largest.  A stack over twice as tall as wide is first reduced to its R
    factor, with the same singular values and row space."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    if rows.shape[0] > 2 * rows.shape[1]:
        rows = np.linalg.qr(rows, mode="r")
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    keep = s > 1e-10 * max(1.0, s[0] if s.size else 1.0)
    return vh[keep]


def centre(G: CompactQuantumGroup) -> np.ndarray:
    """Orthonormal rows spanning the centre Z(A), certified.

    The magic entries generate A, so Z(A) is the null space of [L_g - R_g]
    stacked over a basis g of their span, by one thin SVD.  Each row must
    commute with every basis element within tol: entries that do not
    generate A leave a larger null space, which this rejects.
    """
    alg, d = G.algebra, G.dim
    # comm[i] @ x = coefficients of e_i x - x e_i
    comm = alg.regular - alg.mult.transpose(1, 2, 0)
    gens = _row_space(G.magic.reshape(-1, d))
    _, s, vh = np.linalg.svd((gens @ comm.reshape(d, d * d)).reshape(-1, d),
                             full_matrices=False)
    Z = vh[s <= 1e-10 * max(1.0, s[0])].conj()
    _certify("centre certificate failed: the magic entries do not generate",
             np.abs(comm.reshape(d * d, d) @ Z.T).max(initial=0.0), alg.tol)
    return Z


def characters(G: CompactQuantumGroup) -> list[State]:
    """All characters (multiplicative states) of the algebra.

    Multiplication by a generic central element acts on Z(A) (:func:`centre`)
    with one eigenvalue per block, which must be separated.  The element is
    the block frame's seeded vector (``algebra._generic_coeffs``) in the
    coordinates of A, projected on Z(A) by Z^H Z, which no choice of the
    orthonormal basis Z of Z(A) changes.  Its eigenvectors, scaled to sum to
    the unit, are the minimal central projections z; those with tr L_z = 1
    bound the one-dimensional blocks, and each gives the character
    chi(a) = tau(a z) / tau(z), with support z.  All of them are checked as
    states and for multiplicativity within 100 max(1e-8, tol), in one stack.
    """
    return [State(G.algebra, row, check=False) for row in _character_stack(G)[1]]


def _character_stack(G: CompactQuantumGroup) -> tuple[np.ndarray, np.ndarray]:
    """The supports z and the characters of :func:`characters`, as (n, d) stacks."""
    alg, d = G.algebra, G.dim
    Z = centre(G)
    c = len(Z)
    generic = (_generic_coeffs(d) @ Z.conj().T) @ Z
    evals, V = np.linalg.eig(Z.conj() @ alg.left_mult_matrix(generic) @ Z.T)
    gaps = np.abs(np.subtract.outer(evals, evals))[~np.eye(c, dtype=bool)]
    if not gaps.min(initial=np.inf) > 1e-6 * max(1.0, np.abs(evals).max()):
        raise AlgebraError("generic central element does not separate the blocks")
    z = (V * np.linalg.solve(V, Z.conj() @ alg.unit)).T @ Z
    z = z[np.abs(z @ alg._regular_trace - 1) < 0.5]  # tr L_z = 1
    chi = z @ alg._pairing.T / (z @ alg.trace)[:, np.newaxis]
    _require_states(alg, chi)
    _certify("character is not multiplicative", _multiplicativity_residual(alg, chi),
             100 * max(1e-8, alg.tol))
    return z, chi


def birkhoff_matrix(G: CompactQuantumGroup, phi: LinearFunctional) -> np.ndarray:
    return G.magic @ phi.duals
