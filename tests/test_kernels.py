"""Oracle for the per-call contraction kernels.

Each kernel is a fixed matmul/reshape expression; here it is compared with
the ``np.einsum`` expression that states its index meaning, on every CLI
builtin and on seeded random coefficient vectors.
"""
import numpy as np
import pytest

from qperm import permgroups
from qperm.algebra import LinearFunctional, spectral_projection, support_projection
from qperm.cli import BUILTIN_GROUPS
from qperm.cqg import birkhoff_matrix, characters, dual_group
from qperm.idempotent import _sandwich_matrix, left_convolution_operator
from qperm.permutation import is_central, is_character

# Fixed before the kernels were written: complex128 sums of at most d^2
# terms of size ~1 agree to a few hundred ulps at d <= 24.
RTOL = 1e-12


@pytest.fixture(scope="module", params=sorted(BUILTIN_GROUPS))
def G(request):
    return BUILTIN_GROUPS[request.param]()


def assert_matches(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= RTOL * max(1.0, float(np.abs(ref).max()))


def random_vectors(G, n, seed):
    rng = np.random.default_rng([seed, G.dim])
    return [rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim)
            for _ in range(n)]


def test_algebra_kernels(G):
    alg = G.algebra
    for seed in range(3):
        a, b = random_vectors(G, 2, seed)
        assert_matches(alg.product_coeffs(a, b),
                       np.einsum("ijk,i,j->k", alg.mult, a, b))
        assert_matches(alg.left_mult_matrix(a),
                       np.einsum("i,ikj->kj", a, alg.regular))
        assert_matches(LinearFunctional(alg, b).sesquilinear_matrix(),
                       np.einsum("ia,ajk,k->ij", alg.involution, alg.mult, b))


def test_cqg_kernels(G):
    alg = G.algebra
    for seed in range(3):
        a, phi, rho = random_vectors(G, 3, seed)
        assert_matches(G.delta_applied(a), np.einsum("iab,i->ab", G.delta, a))
        conv = G.convolve(LinearFunctional(alg, phi), LinearFunctional(alg, rho),
                          check=False)
        assert_matches(conv.duals, np.einsum("iab,a,b->i", G.delta, phi, rho))
        assert_matches(birkhoff_matrix(G, LinearFunctional(alg, phi)),
                       np.einsum("ijc,c->ij", G.magic, phi))
        sx = alg.star_coeffs(a)
        ex = np.einsum("ijk,j->ik", alg.mult, a)
        full = np.einsum("a,ik,akl->il", sx, ex, alg.mult) @ alg.trace
        assert_matches(G.vector_state(a).duals, full / (full @ alg.unit))


def test_idempotent_kernels(G):
    c = G.algebra.mult
    for seed in range(3):
        phi, q = random_vectors(G, 2, seed)
        assert_matches(left_convolution_operator(G, LinearFunctional(G.algebra, phi)),
                       np.einsum("iab,a->ib", G.delta, phi))
        t1 = np.einsum("ijk,j->ik", c, q)
        assert_matches(_sandwich_matrix(G, q), np.einsum("a,ik,akl->il", q, t1, c))


def test_support_projection_pairing(G):
    alg = G.algebra
    for x in random_vectors(G, 2, 7):
        psi = G.vector_state(x)
        pair = np.einsum("jik,k->ij", alg.mult, alg.trace)
        density = alg.element(np.linalg.solve(pair, psi.duals))
        herm = 0.5 * (density + density.star())
        evals = np.linalg.eigvalsh(alg.to_hermitian_frame(alg.left_mult_matrix(herm.coeffs)))
        thresh = max(alg.tol, 1e3 * np.finfo(float).eps * max(1.0, float(evals.max())))
        ref = spectral_projection(herm, [(thresh, np.inf)])
        assert_matches(support_projection(psi).coeffs, ref.coeffs)


def assert_centre_matches(alg, a):
    L = np.einsum("i,ikj->kj", a, alg.regular)
    R = np.einsum("jik,i->kj", alg.mult, a)
    assert is_central(alg.element(a)) == bool(np.abs(L - R).max() <= alg.tol)


def test_centre_kernel(G):
    alg = G.algebra
    for a in random_vectors(G, 2, 11) + [alg.unit, G.fix_element().coeffs]:
        assert_centre_matches(alg, a)


def test_centre_kernel_on_a_cyclic_dual():
    # on the builtins every central element has a symmetric translation
    # matrix, so only a cyclic dual tells right from left multiplication
    G = dual_group(permgroups.FiniteGroup.cyclic(3), [(1, 3)])
    for a in [np.eye(3)[1]] + random_vectors(G, 2, 13):
        assert is_central(G.algebra.element(a))
        assert_centre_matches(G.algebra, a)


def test_character_kernels(G):
    alg = G.algebra
    chars = characters(G)
    assert chars
    for chi in chars:
        assert is_character(G, chi) is not None
        mres = np.einsum("ijk,k->ij", alg.mult, chi.duals) - np.outer(chi.duals, chi.duals)
        assert np.abs(mres).max() < 1e-9
