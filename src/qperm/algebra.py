"""Finite-dimensional *-algebras with a faithful trace.

An algebra is presented by structure constants over a fixed basis together
with an involution matrix, a unit vector and a faithful tracial functional.
All spectral work (spectral projections, supports, meets of projections)
routes through the left regular representation, which the faithful trace
makes injective; self-adjoint elements become Hermitian matrices in the
trace inner product ``<a, b> = tau(a* b)``.

Elements and functionals are coefficient vectors over the basis.  Everything
is immutable after construction and all operations are pure functions.
"""
from __future__ import annotations

import math
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np


class AlgebraError(ValueError):
    """Inconsistent algebra data or an operation outside its precondition."""


DEFAULT_TOL = 1e-9
ITER_TOL = 1e-7  # every iterative limit is checked at this fixed tolerance


def _certify(check: str, residual, tol: float) -> float:
    """The residual of a certificate, as a float, if it is at most tol;
    otherwise, NaN and inf included, AlgebraError naming the check."""
    residual = float(residual)
    if not residual <= tol:
        raise AlgebraError(f"{check} (residual {residual:.3e}, tolerance {tol:.3e})")
    return residual


# -- sparse contractions of structure constants ---------------------------------
#
# Every axiom on mult, Delta, the involution and the antipode contracts
# tensors of up to d^3 entries, with d^4 and d^5 intermediates, but about d^2
# non-zeros for the shipped families.  They are contracted here in coordinate
# form, so work and memory follow the number of matching pairs of non-zeros.


class _Coo(NamedTuple):
    """The non-zero entries of a tensor, at C-order flat positions ``keys``."""

    shape: tuple
    keys: np.ndarray
    vals: np.ndarray


def _coo(T: np.ndarray) -> _Coo:
    keys = np.flatnonzero(T)
    return _Coo(T.shape, keys, np.asarray(T.reshape(-1)[keys], dtype=complex))


def _summed(shape: tuple, keys: np.ndarray, vals: np.ndarray) -> _Coo:
    """Add up the values that share a key and drop exact zeros.

    A stable sort keeps each key's values in input order, and ``bincount``
    adds them one after another from zero, so every sum is the one
    ``np.add.at`` forms; ``np.add.reduceat`` adds in another order.
    """
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = keys != np.concatenate(([-1], keys[:-1]))  # keys are flat positions, never -1
    keys = keys[first]
    group = first.cumsum() - 1
    acc = np.empty(keys.size, dtype=complex)
    acc.real = np.bincount(group, vals.real[order], acc.size)
    acc.imag = np.bincount(group, vals.imag[order], acc.size)
    keep = acc != 0
    return _Coo(shape, keys[keep], acc[keep])


@cache
def _plan(spec: str, shape_a: tuple, shape_b: tuple):
    """The output shape of a contraction ``spec`` and, per operand, the
    divisors and sizes that read each label's coordinate off a flat key and
    the (labels, 2) weights that map the coordinates to the joint index over
    the summed labels and to the output position.  Kept per spec and shapes:
    parsing is most of the cost of a small contraction."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    size = dict(zip(sa, shape_a))
    summed = [x for x in sb if x in size]
    if (not summed or any(size[x] != n for x, n in zip(sb, shape_b) if x in size)
            or sorted(out) != sorted(set(sa + sb) - set(summed))):
        raise AlgebraError(f"unsupported contraction {spec!r} for these shapes")
    size.update(zip(sb, shape_b))
    weight = {x: math.prod(size[y] for y in labels[k + 1:])
              for labels in (out, summed) for k, x in enumerate(labels)}
    return (tuple(size[x] for x in out),) + tuple(
        (np.array([math.prod(shape[k + 1:]) for k in range(len(shape))]), np.array(shape),
         np.array([(weight[x], 0) if x in summed else (0, weight[x]) for x in labels]))
        for labels, shape in ((sa, shape_a), (sb, shape_b)))


def _pairs(spec: str, a: _Coo, b: _Coo) -> _Coo:
    """Every product of two non-zeros that meet in a two-operand einsum over
    non-zeros, e.g. ``"ijm,mkl->ijkl"``, unsummed: keys repeat.

    The labels shared by both operands are summed and every other label is
    an output axis.  b is sorted on its summed index and a's summed indices
    are located in it, so every product formed pairs two non-zeros that meet.
    """
    return _join(spec, a, b, 0)[3](0, a.keys.size)


def _join(spec: str, a: _Coo, b: _Coo, lead: int):
    """The pairs of :func:`_pairs`, a run of entries of one operand at a time.

    ``lead`` is 0 to run over a's entries, 1 over b's; the other operand is
    decoded and sorted on its summed index once.  Returns the output shape,
    the lead operand, ``ends``, where ends[s] counts the pairs of its
    entries before entry s (s = 0..n), and ``take(s0, s1)``: the pairs of
    its entries s0..s1-1, entry by entry, each entry's matches in the
    other's sorted order, every value a * b.  With lead 0 and every entry,
    that is :func:`_pairs`.
    """
    shape, (div_a, size_a, W_a), (div_b, size_b, W_b) = _plan(spec, a.shape, b.shape)
    ka, pa = (a.keys[:, np.newaxis] // div_a % size_a @ W_a).T
    kb, pb = (b.keys[:, np.newaxis] // div_b % size_b @ W_b).T
    kx, ky = (ka, kb)[::1 - 2 * lead]
    order = ky.argsort(kind="stable")
    ky = ky[order]
    lo = ky.searchsorted(kx, "left")
    counts = ky.searchsorted(kx, "right") - lo
    ends = np.concatenate(([0], counts.cumsum()))
    shift = lo - ends[:-1]  # pair p, counted over all entries, of entry x: match shift[x] + p

    def take(s0, s1):
        xi = np.arange(s0, s1).repeat(counts[s0:s1])
        yj = order[shift[xi] + np.arange(ends[s0], ends[s1])]
        ai, bj = (xi, yj)[::1 - 2 * lead]
        keys, vals = pa[ai], a.vals[ai]
        keys += pb[bj]
        vals *= b.vals[bj]
        return _Coo(shape, keys, vals)

    return shape, (a, b)[lead], ends, take


def _contract(spec: str, a: _Coo, b: _Coo) -> _Coo:
    """The einsum ``spec`` over non-zeros, summed (:func:`_pairs`)."""
    return _summed(*_pairs(spec, a, b))


def _max_abs_difference(x: _Coo, y: _Coo) -> float:
    """max |x - y| over the union of both non-zero patterns, x and y unsummed
    (:func:`_pairs`): the terms of x and of -y are added in one pass."""
    if x.shape != y.shape:
        raise AlgebraError("compared tensors have different shapes")
    diff = _summed(x.shape, np.concatenate([x.keys, y.keys]),
                   np.concatenate([x.vals, -y.vals]))
    return float(np.abs(diff.vals).max(initial=0.0))


def _identity_residual(x: tuple, y: tuple) -> float:
    """max |x - y| of an identity whose sides are contractions (spec, a, b)
    (:func:`_pairs`) or a _Coo, summed a block of the output's leading
    index at a time, about _BLOCK_ENTRIES // 2 terms of both sides to a
    block.

    Each side runs over the operand whose own first label is the output's
    (:func:`_join`), whose C-order keys put a block in one run.  A key's
    terms, which differ only in the summed labels, come in the order of
    ``_max_abs_difference(_pairs(*x), _pairs(*y))``, so the residual is that
    one bit for bit: a run over b orders them as one over a when one label
    is summed, as wherever b leads here.
    """
    runs = []
    for side in (x, y):
        if isinstance(side, _Coo):  # a tensor given whole: each entry is one term
            shape, lead, ends = side.shape, side, np.arange(side.keys.size + 1)
            take = lambda s0, s1, t=side: _Coo(t.shape, t.keys[s0:s1], t.vals[s0:s1])
        else:
            spec, a, b = side
            out = spec[spec.index(">") + 1]  # the output's first label
            shape, lead, ends, take = _join(
                spec, a, b, (spec[0], spec[spec.index(",") + 1]).index(out))
        runs.append((lead, ends, take))
    if sum(ends[-1] for _, ends, _ in runs) <= _BLOCK_ENTRIES // 2:  # one block
        return _max_abs_difference(*(take(0, lead.keys.size) for lead, _, take in runs))
    # each lead operand's first entry of each leading index, and the terms before it
    first = [lead.keys.searchsorted(np.arange(shape[0] + 1) * math.prod(lead.shape[1:]))
             for lead, _, _ in runs]
    block = sum(ends[f] for f, (_, ends, _) in zip(first, runs))[:-1] // (_BLOCK_ENTRIES // 2)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), shape[0]]
    return max(_max_abs_difference(*(take(f[lo], f[hi]) for f, (_, _, take) in zip(first, runs)))
               for lo, hi in zip(cuts, cuts[1:]))


@cache
def _generic_coeffs(d: int) -> np.ndarray:
    """Complex coefficients from a fixed seed, drawn once per dimension d
    (read-only): h + h^* is the generic self-adjoint element of
    :attr:`StarAlgebra._frame`."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h.flags.writeable = False
    return h


class StarAlgebra:
    """A *-algebra given by basis, structure constants, involution and trace.

    Parameters
    ----------
    basis_labels : list of str
    mult : (dim, dim, dim) complex array, ``e_i e_j = sum_k mult[i, j, k] e_k``.
    involution : (dim, dim) complex array, ``e_i^* = sum_k involution[i, k] e_k``.
    unit : (dim,) coefficients of the multiplicative unit.
    trace : (dim,) values ``tau(e_i)`` of a faithful positive tracial functional.
    tol : algebraic tolerance.  Iterative limits are checked at the fixed
        :data:`ITER_TOL`.
    """

    def __init__(self, basis_labels, mult, involution, unit, trace,
                 tol: float = DEFAULT_TOL, check: bool = True):
        self.labels = list(basis_labels)
        self.dim = len(self.labels)
        self.mult = np.ascontiguousarray(mult, dtype=complex)
        self.involution = np.asarray(involution, dtype=complex)
        self.unit = np.asarray(unit, dtype=complex)
        self.trace = np.asarray(trace, dtype=complex)
        self.tol = float(tol)
        if (self.mult.shape != (self.dim,) * 3
                or self.involution.shape != (self.dim, self.dim)
                or self.unit.shape != (self.dim,) or self.trace.shape != (self.dim,)):
            raise AlgebraError("algebra data shapes are inconsistent")
        if check:
            for axiom, residual in self.check_invariants().items():
                _certify(f"algebra axiom {axiom} violated", residual, self.tol)

    # -- arithmetic on raw coefficient vectors ------------------------------

    def product_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = self.dim
        return b @ (a @ self.mult.reshape(d, d * d)).reshape(d, d)

    def star_coeffs(self, a: np.ndarray) -> np.ndarray:
        return self.involution.T @ np.conj(a)

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    # -- cached geometry -----------------------------------------------------

    @cached_property
    def _pairing(self) -> np.ndarray:
        """The trace pairing T[i, j] = tau(e_i e_j)."""
        return self.mult @ self.trace

    @cached_property
    def gram(self) -> np.ndarray:
        """G[i, j] = tau(e_i^* e_j); Hermitian positive definite."""
        G = self.involution @ self._pairing
        return (G + G.conj().T) / 2.0

    @cached_property
    def _gram_range(self) -> tuple[float, float]:
        """The smallest and the largest eigenvalue of the Gram matrix."""
        evals = np.linalg.eigvalsh(self.gram)
        return float(evals[0]), float(evals[-1])

    @cached_property
    def _chol(self) -> np.ndarray:
        """Lower Cholesky factor of the Gram matrix."""
        low = self._gram_range[0]
        if not low > self.tol:
            raise AlgebraError(f"trace is not faithful (min Gram eigenvalue {low:.3e})")
        return np.linalg.cholesky(self.gram)

    @cached_property
    def regular(self) -> np.ndarray:
        """Left regular representation: regular[i] @ x == coefficients of e_i x."""
        _ = self._chol  # faithfulness check
        return np.ascontiguousarray(np.transpose(self.mult, (0, 2, 1)))

    @cached_property
    def _regular_trace(self) -> np.ndarray:
        """Tr(L_{e_i}), the trace of left multiplication by each basis element."""
        return np.einsum("ijj->i", self.mult)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        d = self.dim
        return (a @ self.regular.reshape(d, d * d)).reshape(d, d)

    def matrix_to_coeffs(self, M: np.ndarray) -> np.ndarray:
        """Invert the regular representation: L_x maps the unit to x.

        The candidate ``M @ unit`` is accepted only if its left
        multiplication matrix is within the algebra's ``tol`` of M; otherwise
        M is not the left multiplication operator of any algebra element.
        """
        sol = M @ self.unit
        _certify("matrix is outside the regular image",
                 np.abs(self.left_mult_matrix(sol) - M).max(),
                 max(self.tol, 1e3 * np.finfo(float).eps * max(1.0, np.abs(M).max())))
        return sol

    def to_hermitian_frame(self, M: np.ndarray) -> np.ndarray:
        """Conjugate an operator on the algebra into the trace-orthonormal frame."""
        L = self._chol
        return L.conj().T @ M @ np.linalg.inv(L.conj().T)

    def from_hermitian_frame(self, M: np.ndarray) -> np.ndarray:
        L = self._chol
        return np.linalg.solve(L.conj().T, M @ L.conj().T)

    @cached_property
    def _frame(self) -> tuple:
        """Per cluster size s, (s, K): K is the (d, g s^2) block of columns
        of the sesquilinear form on the g eigenvalue clusters of that size,
        so that (phi @ K).reshape(g, s, s) holds phi(u_a^* u_b) for the
        vectors u_a, u_b of each cluster.

        The u are the eigenvectors of L_h, for a self-adjoint h drawn once
        per dimension (:func:`_generic_coeffs`), orthonormal in the trace
        frame and cut into clusters by the rule of :func:`eigen_clusters`.
        A cluster spans e A for a spectral projection e of h, and the
        projections of two clusters multiply to 0, so phi(u_a^* u_b) = 0
        across clusters for every phi: the form is block diagonal in the
        basis W = L^-H U for any h, and a generic h only makes the blocks
        small, one of size n for each minimal projection of each block M_n
        of A.  The columns are sums over the non-zeros mult[m, j, k] of each
        k, u_a^*[m] mult[m, j, k] u_b[j], one batched product per size."""
        d, L = self.dim, self._chol
        h = _generic_coeffs(d)
        h = h + self.star_coeffs(h)
        M = self.to_hermitian_frame((h @ self.regular.reshape(d, d * d)).reshape(d, d))
        evals, U = np.linalg.eigh((M + M.conj().T) / 2)
        W = np.linalg.solve(L.conj().T, U)  # columns: the u, as coefficients
        V = self.involution.T @ W.conj()  # columns: the u^*
        split = np.diff(evals) > 1e-6 * np.maximum(1.0, np.abs(evals[:-1]))
        cuts = [0, *(np.flatnonzero(split) + 1).tolist(), d]
        # row k: the (m, j, value) of each non-zero mult[m, j, k], zero-padded
        m, j, k = np.unravel_index(self._mult_coo.keys, self.mult.shape)
        order = k.argsort(kind="stable")
        m, j, k = m[order], j[order], k[order]
        counts = np.bincount(k, minlength=d)
        slot = np.arange(k.size) - np.repeat(counts.cumsum() - counts, counts)
        left, right = np.zeros((2, d, counts.max()), dtype=int)
        vals = np.zeros((d, counts.max()), dtype=complex)
        left[k, slot], right[k, slot], vals[k, slot] = m, j, self._mult_coo.vals[order]
        forms = []
        for s in np.unique(np.diff(cuts)).tolist():
            idx = np.array([np.arange(a, b) for a, b in zip(cuts, cuts[1:]) if b - a == s])
            A = V[:, idx].transpose(1, 2, 0)[:, :, left]  # (g, s, d, c)
            B = W[:, idx].transpose(1, 0, 2)[:, right] * vals[:, :, np.newaxis]  # (g, d, c, s)
            K = A.transpose(2, 0, 1, 3) @ B.transpose(1, 0, 2, 3)  # (d, g, s, s)
            forms.append((s, K.reshape(d, -1)))
        return tuple(forms)

    # -- axioms ---------------------------------------------------------------

    @cached_property
    def _mult_coo(self) -> _Coo:
        return _coo(self.mult)

    def check_invariants(self) -> dict:
        """Max residual per axiom.

        The algebra is immutable, so the report is computed once, on first use.
        """
        return dict(self._invariants)

    @cached_property
    def _invariants(self) -> dict:
        out = {}
        c = self.mult
        # (e_i e_j) e_k against e_i (e_j e_k)
        cc = self._mult_coo
        out["associativity"] = _identity_residual(
            ("ijm,mkl->ijkl", cc, cc), ("jkm,iml->ijkl", cc, cc))
        out["unit"] = max(
            np.abs(np.einsum("ijk,i->jk", c, self.unit) - np.eye(self.dim)).max(),
            np.abs(np.einsum("ijk,j->ik", c, self.unit) - np.eye(self.dim)).max(),
        )
        iv = self.involution
        out["involution_squared"] = np.abs(np.conj(iv) @ iv - np.eye(self.dim)).max()
        # (e_i e_j)* = e_j* e_i*; the product coefficients conjugate through star:
        # sum_m conj(c[i, j, m]) iv[m, k] against sum_ab iv[j, a] iv[i, b] c[a, b, k]
        ivc = _coo(iv)
        out["involution_antihom"] = _identity_residual(
            ("ijm,mk->ijk", cc._replace(vals=np.conj(cc.vals)), ivc),
            ("ja,iak->ijk", ivc, _contract("ib,abk->iak", ivc, cc)))
        min_eig = self._gram_range[0]
        out["gram_positive_definite"] = 0.0 if min_eig > self.tol else 2 * self.tol - min_eig
        out["trace_symmetry"] = np.abs(self._pairing - self._pairing.T).max()
        return out

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim})"


class AlgebraElement:
    """Coefficient vector over a StarAlgebra basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StarAlgebra, coeffs):
        self.algebra = algebra
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.shape != (algebra.dim,):
            raise AlgebraError("coefficient length does not match the algebra")

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.star_coeffs(self.coeffs))

    def _binary(self, other, op):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise AlgebraError("elements live on different algebras")
            return AlgebraElement(self.algebra, op(self.coeffs, other.coeffs))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            if other.algebra is not self.algebra:
                raise AlgebraError("elements live on different algebras")
            return AlgebraElement(self.algebra,
                                  self.algebra.product_coeffs(self.coeffs, other.coeffs))
        if np.isscalar(other):
            return AlgebraElement(self.algebra, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if np.isscalar(other):
            return AlgebraElement(self.algebra, self.coeffs * other)
        return NotImplemented

    def __repr__(self):
        return f"AlgebraElement({np.round(self.coeffs, 6)})"


class Projection(AlgebraElement):
    """Self-adjoint idempotent; checked in Gram norm at construction."""

    def __init__(self, algebra, coeffs, check: bool = True):
        super().__init__(algebra, coeffs)
        if check:
            _certify("not a projection within tolerance",
                     _projection_residuals(algebra, self.coeffs[np.newaxis])[0], algebra.tol)


class LinearFunctional:
    """Dual vector: value on each basis element."""

    __slots__ = ("algebra", "duals")

    def __init__(self, algebra: StarAlgebra, duals):
        self.algebra = algebra
        self.duals = np.asarray(duals, dtype=complex)
        if self.duals.shape != (algebra.dim,):
            raise AlgebraError("dual length does not match the algebra")

    def __call__(self, a) -> complex:
        coeffs = a.coeffs if isinstance(a, AlgebraElement) else np.asarray(a)
        return complex(self.duals @ coeffs)

    def _binary(self, other, op):
        if isinstance(other, LinearFunctional):
            if other.algebra is not self.algebra:
                raise AlgebraError("functionals live on different algebras")
            return LinearFunctional(self.algebra, op(self.duals, other.duals))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        if np.isscalar(other):
            return LinearFunctional(self.algebra, self.duals * other)
        return NotImplemented

    __rmul__ = __mul__

    def distance(self, other: "LinearFunctional") -> float:
        """Sup distance over basis values."""
        return float(np.abs(self.duals - other.duals).max())

    def __repr__(self):
        return f"{type(self).__name__}({np.round(self.duals, 6)})"


class State(LinearFunctional):
    """Positive unital functional, checked (:func:`_require_states`) unless
    ``check=False``: positivity of the GNS form phi(e_i^* e_j), taken whole
    for one functional (:func:`_positive_rows`)."""

    __slots__ = ()

    def __init__(self, algebra, duals, check: bool = True):
        super().__init__(algebra, duals)
        if check:
            _require_states(algebra, self.duals[np.newaxis])


# -- spec operations ---------------------------------------------------------


def gram_norm(a: AlgebraElement) -> float:
    return float(_gram_norms(a.algebra, a.coeffs))


def _gram_norms(alg: StarAlgebra, R: np.ndarray) -> np.ndarray:
    """The Gram norm of each row, along the last axis, of a stack of coefficients."""
    return np.sqrt(np.maximum(((np.conj(R) @ alg.gram) * R).sum(axis=-1).real, 0.0))


def is_positive_functional(phi: LinearFunctional) -> bool:
    return bool(_positive_rows(phi.algebra, phi.duals[np.newaxis], phi.algebra.tol)[0])


# Stacked kernels take _block_rows(d) rows at a time: up to 2^16 entries
# (1 MB complex) per (rows, d, d) temporary, but never fewer than 32 rows,
# which amortise each block's read of a (d, d^2) operator at large d.  An
# identity on the structure tensors sums half that many pairs, of both sides,
# at a time (_identity_residual): one block for the shipped groups to d = 24.
_BLOCK_ENTRIES = 2 ** 16
_BLOCK_MIN_ROWS = 32


def _block_rows(d: int) -> int:
    return max(_BLOCK_MIN_ROWS, _BLOCK_ENTRIES // d ** 2)


def _positive_rows(alg: StarAlgebra, D: np.ndarray, tol: float) -> np.ndarray:
    """Per-row mask of an (n, d) stack of duals: the sesquilinear matrix
    F = phi(e_i^* e_j) of the row is Hermitian within tol and its Hermitian
    part H has a Cholesky factor after the shift H + tol I, that is, the
    smallest eigenvalue of H exceeds -tol up to rounding
    (:func:`_dense_positive`).

    One row takes that definition.  A stack is decided in the block frame
    (:attr:`StarAlgebra._frame`): F' = W^H F W is block diagonal, and with
    l and u the extreme eigenvalues of the Gram matrix, W's squared singular
    values lie in [1/u, 1/l].  So lambda_min(H) = theta lambda_min(H') for a
    theta in [l, u] (Ostrowski), max|F - F^H| <= u ||F' - F'^H||_F and
    ||F' - F'^H||_F <= d max|F - F^H| / l.  A row passes if every block of
    H' factors after the shift tol / (2u) and ||F' - F'^H||_F <= tol / (2u);
    it fails if a block does not factor after the shift 2 tol / l or
    ||F' - F'^H||_F > 2 d tol / l.  Either verdict is the definition's,
    clear of tol by a factor 2; the rows in between take the definition.
    A row that is not finite fails, and takes no product.

    Per block of rows (:func:`_block_rows`), the clusters of one size take
    one product with their columns and one batched Cholesky; only a block
    of rows that fails to factor takes eigenvalues.  A 1 x 1 block [h]
    takes both tests in closed form: [h] - [h]^* is 2i Im h, and [Re h + c]
    has a Cholesky factor iff Re h + c > 0.  A row costs
    O(d sum s^2 + sum s^3) for clusters of sizes s, not O(d^3).
    """
    if len(D) < 2:
        return np.array([_dense_positive(alg, row, tol) for row in D], dtype=bool)
    finite = np.isfinite(D).all(axis=1)
    if not finite.all():
        finite[finite] = _positive_rows(alg, D[finite], tol)
        return finite
    low, high = alg._gram_range
    shift, shift_fail = tol / (2 * high), 2 * tol / low
    # bounds on the squared Frobenius norm of (F' - F'^H) / 2
    skew_pass, skew_fail = shift ** 2 / 4, (alg.dim * tol / low) ** 2
    block = _block_rows(alg.dim)
    ok = np.zeros(D.shape[0], dtype=bool)
    for start in range(0, D.shape[0], block):
        rows = D[start:start + block]
        lowest, skew = np.full(len(rows), np.inf), np.zeros(len(rows))
        for s, K in alg._frame:
            if s == 1:  # as (g, n): NumPy reduces over short rows slowly
                P = K.T @ rows.T
                skew += np.einsum("ij,ij->j", P.imag, P.imag)
                np.minimum(lowest, P.real.min(axis=0), out=lowest)
                continue
            P = (rows @ K).reshape(len(rows), -1, s, s)
            H = P + P.conj().swapaxes(-1, -2)
            H *= 0.5
            P -= H  # the anti-Hermitian part, (F' - F'^H) / 2
            A = P.reshape(len(rows), -1).view(float)
            skew += np.einsum("ij,ij->i", A, A)
            try:
                np.linalg.cholesky(H + shift * np.eye(s))
            except np.linalg.LinAlgError:
                np.minimum(lowest, np.linalg.eigvalsh(H)[..., 0].min(axis=1), out=lowest)
        passed = (lowest > -shift) & (skew <= skew_pass)
        if not passed.all():
            failed = (lowest <= -shift_fail) | (skew > skew_fail)
            for k in np.flatnonzero(~passed & ~failed):  # the band
                passed[k] = _dense_positive(alg, rows[k], tol)
        ok[start:start + block] = passed
    return ok


def _dense_positive(alg: StarAlgebra, row: np.ndarray, tol: float) -> bool:
    """The definition for one dual: F = phi(e_i^* e_j), as
    involution @ (mult @ phi), is Hermitian within tol, entrywise, and
    (F + F^H) / 2 + tol I has a Cholesky factor.  A row that is not finite
    fails before any product."""
    if not np.isfinite(row).all():
        return False
    P = alg.involution @ (alg.mult @ row)
    Ph = P.conj().T
    if not np.abs(P - Ph).max() <= tol:
        return False
    try:
        np.linalg.cholesky((P + Ph) / 2 + tol * np.eye(alg.dim))
    except np.linalg.LinAlgError:
        return False
    return True


def _state_rows(alg: StarAlgebra, D: np.ndarray) -> np.ndarray:
    """Per-row mask of an (n, d) stack of duals that are states at the
    algebra's tolerance: unital within 10 max(tol, 1e-12), Hermitian within
    100 tol, and H + 100 tol I has a Cholesky factor (:func:`_positive_rows`)."""
    unital = np.abs(D @ alg.unit - 1.0) <= 10 * max(alg.tol, 1e-12)
    return unital & _positive_rows(alg, D, 100 * alg.tol)


def _require_states(alg: StarAlgebra, D: np.ndarray) -> None:
    """Raise unless every row of an (n, d) stack of duals is a state."""
    bad = np.flatnonzero(~_state_rows(alg, D))
    if bad.size:
        k = int(bad[0])
        unital = abs(D[k] @ alg.unit - 1.0)
        raise AlgebraError(f"functional is not a state within tolerance "
                           f"(row {k}, unital residual {unital:.3e})")


def _multiplicativity_residual(alg: StarAlgebra, D: np.ndarray) -> float:
    """max |phi(e_i e_j) - phi(e_i) phi(e_j)| over the rows phi of an (n, d)
    stack of duals, in one product with mult as a (d, d^2) matrix."""
    d = alg.dim
    prods = (D @ alg.mult.reshape(d * d, d).T).reshape(-1, d, d)
    return float(np.abs(prods - D[:, :, np.newaxis] * D[:, np.newaxis]).max(initial=0.0))


def _projection_residuals(alg: StarAlgebra, X: np.ndarray) -> np.ndarray:
    """Per row of an (n, d) stack of coefficients, the larger Gram norm of
    x x - x and x* - x.  The squares of a block of rows (:func:`_block_rows`)
    take one product with mult as a (d, d^2) matrix."""
    d = alg.dim
    block = _block_rows(d)
    out = np.empty(len(X))
    for start in range(0, len(X), block):
        x = X[start:start + block]
        squares = np.matmul(x[:, np.newaxis], (x @ alg.mult.reshape(d, d * d)).reshape(-1, d, d))
        R = np.stack([squares[:, 0] - x, np.conj(x) @ alg.involution - x])
        out[start:start + block] = _gram_norms(alg, R).max(axis=0)
    return out


def eigen_clusters(evals: np.ndarray):
    """Group sorted eigenvalues whose gaps are below 1e-6 * max(1, |lambda|)."""
    order = np.argsort(evals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        prev = evals[clusters[-1][-1]]
        if abs(evals[idx] - prev) <= 1e-6 * max(1.0, abs(prev)):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters


def _self_adjoint_eig(f: AlgebraElement):
    """Eigendecomposition of left multiplication by a self-adjoint element.

    Returns (evals, U) with U orthonormal in the trace inner product frame.
    """
    alg = f.algebra
    _certify("element is not self-adjoint", gram_norm(f.star() - f), 100 * alg.tol)
    M = alg.to_hermitian_frame(alg.left_mult_matrix(f.coeffs))
    return np.linalg.eigh((M + M.conj().T) / 2)


def _selected_projection(alg: StarAlgebra, evals: np.ndarray, U: np.ndarray,
                         select) -> Projection:
    """The projection onto the columns of U, eigenvectors in the trace frame,
    of every cluster (:func:`eigen_clusters`) whose mean passes ``select``,
    pulled back with its back-map residual enforced; zero if none passes."""
    sel = [k for cluster in eigen_clusters(evals)
           if select(float(np.mean(evals[cluster]))) for k in cluster]
    if not sel:
        return Projection(alg, np.zeros(alg.dim), check=False)
    V = U[:, sel]
    return Projection(alg, alg.matrix_to_coeffs(alg.from_hermitian_frame(V @ V.conj().T)))


def spectral_projection(f: AlgebraElement, intervals) -> Projection:
    """Spectral projection 1_E(f) for self-adjoint f, E a union of intervals:
    a whole eigenvalue cluster is selected iff its mean lies in E
    (:func:`_selected_projection`)."""
    if isinstance(intervals, tuple) and np.isscalar(intervals[0]):
        intervals = [intervals]
    return _selected_projection(f.algebra, *_self_adjoint_eig(f),
                                lambda mean: any(lo <= mean <= hi for lo, hi in intervals))


def spectral_partition(f: AlgebraElement):
    """All (cluster mean, Projection) pairs of a self-adjoint element, in
    increasing order: :func:`eigen_clusters` walks the eigenvalues' argsort."""
    evals, U = _self_adjoint_eig(f)
    means = [float(np.mean(evals[cluster])) for cluster in eigen_clusters(evals)]
    return [(lam, _selected_projection(f.algebra, evals, U, lambda mean: mean == lam))
            for lam in means]


def support_projection(phi: State) -> Projection:
    """Smallest projection p with phi(p) = 1.

    The density d with phi = tau(d .) is solved from the trace pairing,
    Hermitized, and its strictly positive spectral part is the support.
    """
    alg = phi.algebra
    if not isinstance(phi, State):
        phi = State(alg, phi.duals)
    d = np.linalg.solve(alg._pairing.T, phi.duals)
    d_el = alg.element(d)
    evals, U = _self_adjoint_eig(0.5 * (d_el + d_el.star()))
    thresh = max(alg.tol, 1e3 * np.finfo(float).eps * max(1.0, float(evals.max())))
    p = _selected_projection(alg, evals, U, lambda mean: mean >= thresh)
    _certify("support postcondition failed: phi(p) is not 1", abs(phi(p) - 1.0), 100 * alg.tol)
    return p


def meet(ps) -> Projection:
    """Largest projection below every p in ps.

    L is linear, so L of the mean of the ps is the mean of the L_p: in the
    trace frame a positive contraction fixing exactly what every L_p fixes.
    The meet is its spectral projection above 1 - 1e3 ITER_TOL, and must lie
    below every p: p r = r p = r within 100 ITER_TOL, all p in one stack.
    """
    ps = list(ps)
    if not ps:
        raise AlgebraError("meet of an empty family")
    alg = ps[0].algebra
    if any(p.algebra is not alg for p in ps):
        raise AlgebraError("projections live on different algebras")
    P, d, tol = np.array([p.coeffs for p in ps]), alg.dim, ITER_TOL
    _certify("meet input is not a projection", _projection_residuals(alg, P).max(), 100 * alg.tol)
    mean = alg.element(sum(P) / len(P))
    r = _selected_projection(alg, *_self_adjoint_eig(mean), lambda lam: lam > 1.0 - 1e3 * tol)
    x, mult = r.coeffs, alg.mult.reshape(d, d * d)
    # the rows p r - r, then r p - r, of every p (as in product_coeffs)
    below = np.vstack([x @ (P @ mult).reshape(-1, d, d), P @ (x @ mult).reshape(d, d)]) - x
    _certify("meet postcondition failed: result not below inputs",
             _gram_norms(alg, below).max(), 100 * tol)
    return r
