"""Core *-algebra arithmetic, spectral calculus and projection lattice."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qperm
from qperm import permgroups
from qperm.algebra import (
    AlgebraError,
    LinearFunctional,
    Projection,
    State,
    _block_rows,
    _require_states,
    _state_rows,
    gram_norm,
    is_positive_functional,
    meet,
    spectral_partition,
    spectral_projection,
    support_projection,
)
from qperm.cqg import (
    classical_group,
    dual_dihedral,
    dual_group,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)


@pytest.fixture(scope="module")
def cs3():
    return classical_group(permgroups.symmetric_group(3))


@pytest.fixture(scope="module")
def dual_z2():
    return dual_group(permgroups.FiniteGroup.cyclic(2), [(1, 2)])


@pytest.fixture(scope="module")
def dual_s4():
    return dual_symmetric_group(4)


def basis_element(alg, i):
    return alg.element(np.eye(alg.dim)[i])


def test_pointwise_idempotent_basis(cs3):
    # delta_sigma * delta_sigma = delta_sigma in C(S_3)
    for i in range(cs3.algebra.dim):
        d = basis_element(cs3.algebra, i)
        assert gram_norm(d * d - d) < 1e-12


def test_order_two_generator(dual_z2):
    lam_a = basis_element(dual_z2.algebra, 1)
    lam_e = basis_element(dual_z2.algebra, 0)
    assert gram_norm(lam_a * lam_a - lam_e) < 1e-12


def test_unit_absorbs(cs3):
    rng = np.random.default_rng(3)
    one = cs3.algebra.element(cs3.algebra.unit)
    for _ in range(5):
        a = cs3.algebra.element(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert gram_norm(one * a - a) < 1e-12
        assert gram_norm(a * one - a) < 1e-12


def test_adjoint_group_algebra(dual_s4):
    # adjoint of lambda_gamma is lambda_{gamma^{-1}}
    perms = dual_s4.group_elements
    for i, p in enumerate(perms[:8]):
        lam = basis_element(dual_s4.algebra, i)
        expected = basis_element(dual_s4.algebra, perms.index(tuple(np.argsort(p).tolist())))
        assert gram_norm(lam.star() - expected) < 1e-12


def test_trace_is_positive_functional(cs3, dual_s4):
    for G in (cs3, dual_s4):
        tau = LinearFunctional(G.algebra, G.algebra.trace)
        assert is_positive_functional(tau)
        assert not is_positive_functional(LinearFunctional(G.algebra, -G.algebra.trace))


def test_regular_representation_shapes(dual_s4, dual_z2):
    L = dual_s4.algebra.regular
    assert L.shape == (24, 24, 24)
    # unit maps to the identity
    one = np.einsum("i,ikj->kj", dual_s4.algebra.unit, L)
    assert np.abs(one - np.eye(24)).max() < 1e-12
    Lz = dual_z2.algebra.regular
    assert np.abs(Lz[1] - np.array([[0, 1], [1, 0]])).max() < 1e-12
    # L is an algebra map: L_{e_i} L_{e_j} = L_{e_i e_j}
    alg = dual_s4.algebra
    i, j = 3, 17
    lhs = L[i] @ L[j]
    rhs = alg.left_mult_matrix(alg.mult[i, j])
    assert np.abs(lhs - rhs).max() < 1e-12


def test_spectral_projection_fixes_projections(kp=None):
    G = kac_paljutkin()
    p = G.magic_projection(0, 0)
    q = spectral_projection(p, [(0.5, 1.5)])
    assert gram_norm(q - p) < 1e-9


def test_spectral_projection_full_interval(cs3):
    f = cs3.fix_element()
    one = spectral_projection(f, [(-0.5, 3.5)])
    assert gram_norm(one - cs3.algebra.element(cs3.algebra.unit)) < 1e-9


def test_spectral_partition_sums_to_one(dual_s4):
    f = dual_s4.fix_element()
    parts = spectral_partition(f)
    total = dual_s4.algebra.element(sum(p.coeffs for _, p in parts))
    assert gram_norm(total - dual_s4.algebra.element(dual_s4.algebra.unit)) < 1e-8
    lams = sorted(lam for lam, _ in parts)
    lam_p = (5 + np.sqrt(17)) / 2
    assert min(abs(l - lam_p) for l in lams) < 1e-9


def test_meet_idempotent_cases(dual_z2):
    alg = dual_z2.algebra
    p = Projection(alg, 0.5 * (alg.unit + np.array([0, 1.0])))
    assert gram_norm(meet([p, p]) - p) < 1e-9
    q = Projection(alg, 0.5 * (alg.unit - np.array([0, 1.0])))
    assert gram_norm(meet([p, q])) < 1e-9


def test_meet_rejects_bad_families(dual_z2, cs3):
    with pytest.raises(AlgebraError, match="empty"):
        meet([])
    alg = dual_z2.algebra
    half = Projection(alg, 0.5 * alg.unit, check=False)
    with pytest.raises(AlgebraError, match="not a projection"):
        meet([dual_z2.magic_projection(0, 0), half])
    with pytest.raises(AlgebraError, match="different algebras"):
        meet([dual_z2.magic_projection(0, 0), cs3.magic_projection(0, 0)])


def test_matrix_to_coeffs_inverts_only_left_multiplications(in_centre):
    G = kac_paljutkin()
    alg = G.algebra
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        assert np.abs(alg.matrix_to_coeffs(alg.left_mult_matrix(x)) - x).max() < 1e-12
    with pytest.raises(AlgebraError, match="outside the regular image"):
        alg.matrix_to_coeffs(rng.standard_normal((alg.dim, alg.dim)))
    # right multiplication by a: if it were L_b, then b = R_a(1) = a and a
    # would be central
    a = basis_element(alg, 4)
    assert not in_centre(G, a.coeffs)
    with pytest.raises(AlgebraError, match="outside the regular image"):
        alg.matrix_to_coeffs((a.coeffs @ alg.mult).T)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_meet_dihedral_matches_group_average(m):
    # meet(u_11, u_33) = meet((1+a)/2, (1+b)/2): the uniform projection, trace 1/(2m)
    G = dual_dihedral(m)
    pa = G.magic_projection(0, 0)
    pb = G.magic_projection(2, 2)
    r = meet([pa, pb])
    avg = G.algebra.element(np.full(2 * m, 1.0 / (2 * m)))
    assert gram_norm(r - avg) < 1e-8
    tau = LinearFunctional(G.algebra, G.algebra.trace)
    assert abs(tau(r) - 1.0 / (2 * m)) < 1e-10
    # brute-force cross-check: intersection of eigenspaces in the regular rep
    La = G.algebra.left_mult_matrix(pa.coeffs)
    Lb = G.algebra.left_mult_matrix(pb.coeffs)
    both = np.vstack([La - np.eye(2 * m), Lb - np.eye(2 * m)])
    rank = 2 * m - np.linalg.matrix_rank(both, tol=1e-10)
    Lr = G.algebra.left_mult_matrix(r.coeffs)
    assert int(round(np.trace(Lr).real)) == rank


def test_support_projection_point_mass(cs3):
    sigma = cs3.group_elements[2]
    ev = uniform_state(cs3, [sigma])
    p = support_projection(ev)
    expected = basis_element(cs3.algebra, 2)
    assert gram_norm(p - expected) < 1e-9


def test_support_projection_faithful_trace(cs3):
    h = cs3.haar
    p = support_projection(h)
    assert gram_norm(p - cs3.algebra.element(cs3.algebra.unit)) < 1e-9


def test_support_projection_reproduces_state(dual_s4):
    rng = np.random.default_rng(11)
    phi = dual_s4.sample_states(1, seed=5)[0]
    p = support_projection(phi)
    assert abs(phi(p) - 1) < 1e-8
    for _ in range(100):
        f = dual_s4.algebra.element(rng.standard_normal(24) + 1j * rng.standard_normal(24))
        assert abs(phi(p * f * p) - phi(f)) < 1e-8


def test_projection_constructor_rejects_non_projection(cs3):
    with pytest.raises(AlgebraError):
        Projection(cs3.algebra, 0.5 * cs3.algebra.unit)


def test_state_constructor_rejects_non_state(cs3):
    with pytest.raises(AlgebraError):
        State(cs3.algebra, -np.asarray(cs3.haar.duals))
    with pytest.raises(AlgebraError):
        State(cs3.algebra, 2.0 * np.asarray(cs3.haar.duals))


@pytest.fixture(scope="module")
def dual_s3():
    return dual_symmetric_group(3)


def one_test_short_of_a_state(G, kind):
    """A row on dual-S3 that fails exactly one of the three state tests."""
    e = np.eye(G.dim)
    g = G.group.perms.index(permgroups.from_cycles(3, (0, 1)))
    return {"non-unital": 2 * e[0],
            # Hermitian part e_0*, which is positive
            "non-Hermitian": e[0] + 0.5j * e[g],
            # phi(e_a* e_b) = 1 + 2 R_g with R_g an involution: eigenvalues 3, -1
            "negative": e[0] + 2 * e[g]}[kind]


@pytest.mark.parametrize("kind", ["non-unital", "non-Hermitian", "negative"])
def test_state_check_flags_one_bad_row_in_a_stack(dual_s3, kind, force_block):
    # the stacked check works a block of rows at a time, here forced to 8
    # rows: bad rows on either side of each block boundary and in a last,
    # partial block
    alg = dual_s3.algebra
    row = one_test_short_of_a_state(dual_s3, kind)
    assert is_positive_functional(LinearFunctional(alg, row)) == (kind == "non-unital")
    with pytest.raises(AlgebraError):
        State(alg, row)
    b = force_block(alg.dim, 8)
    for n, bad in [(1, 0), (b, 0), (b, b - 1), (b + 1, 0), (b + 1, b - 1), (b + 1, b),
                   (2 * b + 1, 0), (2 * b + 1, b - 1), (2 * b + 1, b), (2 * b + 1, 2 * b)]:
        D = np.array([phi.duals for phi in dual_s3.sample_states(n, seed=n)])
        D[bad] = row
        assert np.array_equal(_state_rows(alg, D), np.arange(n) != bad), (n, bad)
        with pytest.raises(AlgebraError, match=f"row {bad},"):
            _require_states(alg, D)


def test_state_positivity_checked_under_optimize():
    # phi = 2 f1* - f2* on kp: phi(1) = 2 - 1 = 1, but phi(f2) = -1 < 0; it
    # must be rejected alone and as the last row of a stack one row longer
    # than the library's block, so that it sits alone in a partial block
    b = _block_rows(8)
    script = ("import numpy as np\n"
              "from qperm.algebra import AlgebraError, State, _state_rows\n"
              "from qperm.cqg import kac_paljutkin\n"
              "G = kac_paljutkin()\n"
              "duals = 2 * np.eye(8)[0] - np.eye(8)[1]\n"
              f"D = np.array([phi.duals for phi in G.sample_states({b + 1}, seed=1)])\n"
              f"D[{b}] = duals\n"
              f"if _state_rows(G.algebra, D).tolist() != [True] * {b} + [False]:\n"
              "    raise SystemExit('non-positive row of a stack accepted')\n"
              "try:\n"
              "    State(G.algebra, duals)\n"
              "except AlgebraError:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit('non-positive functional accepted as a state')\n")
    src = str(Path(qperm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_gram_matrices_positive_definite():
    groups = [classical_group(permgroups.symmetric_group(3)),
              dual_dihedral(6),
              kac_paljutkin()]
    for G in groups:
        evals = np.linalg.eigvalsh(G.algebra.gram)
        assert evals.min() > G.algebra.tol


def test_non_faithful_trace_rejected():
    from qperm.algebra import StarAlgebra
    # pointwise functions on two points, trace ignoring the second point
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    with pytest.raises(AlgebraError):
        StarAlgebra(["p", "q"], mult, np.eye(2), unit=np.ones(2),
                    trace=np.array([1.0, 0.0]))


def test_spectral_projection_rejects_non_self_adjoint(dual_s4):
    lam = basis_element(dual_s4.algebra, 3)  # a non-involution group element
    with pytest.raises(AlgebraError):
        spectral_projection(lam, [(0.5, 1.5)])
