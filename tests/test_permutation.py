"""Birkhoff matrices, classical versions, stabilisers and the fix observable."""
import dataclasses

import numpy as np
import pytest

from qperm import permgroups
from qperm.algebra import AlgebraError, Projection, State, gram_norm, support_projection
from qperm.cqg import (
    CompactQuantumGroup,
    birkhoff_matrix,
    classical_group,
    dual_dihedral,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from qperm.dynamics import verify_bounds_empirically
from qperm.idempotent import _sandwich_matrix, condition, face_idempotent, is_group_like
from qperm.permutation import (
    _bound_identity_residuals,
    _slice_permutations,
    _slices,
    canonical_partition,
    classical_version,
    decompose,
    fix_eigenvector_seed,
    fix_spectrum,
    has_integer_fixed_points,
    projection_rank,
    quantum_fraction,
    stabiliser_idempotent,
    stabiliser_membership,
    stabiliser_projection,
)


@pytest.fixture(scope="module")
def cs3():
    return classical_group(permgroups.symmetric_group(3))


@pytest.fixture(scope="module")
def ds4():
    return dual_symmetric_group(4)


@pytest.fixture(scope="module")
def kp():
    return kac_paljutkin()


@pytest.fixture(scope="module")
def kp_cv(kp):
    return classical_version(kp)


@pytest.fixture(scope="module")
def ds4_cv(ds4):
    return classical_version(ds4)


# -- Birkhoff matrices -----------------------------------------------------------


def test_slice_of_counit_is_identity(kp, ds4):
    for G in (kp, ds4):
        assert np.abs(birkhoff_matrix(G, G.counit) - np.eye(G.N)).max() < 1e-12


def test_slice_of_haar_uniform_classical(cs3):
    assert np.abs(birkhoff_matrix(cs3, cs3.haar) - 1 / 3).max() < 1e-12


def test_slice_multiplicative_under_convolution(kp):
    states = kp.sample_states(20, seed=31)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(0, 20, size=2)
        lhs = birkhoff_matrix(kp, kp.convolve(states[i], states[j]))
        rhs = birkhoff_matrix(kp, states[i]) @ birkhoff_matrix(kp, states[j])
        assert np.abs(lhs - rhs).max() < 1e-8


def test_slice_affine(kp):
    a, b = kp.sample_states(2, seed=32)
    mix = State(kp.algebra, 0.3 * a.duals + 0.7 * b.duals)
    assert np.abs(birkhoff_matrix(kp, mix)
                  - 0.3 * birkhoff_matrix(kp, a)
                  - 0.7 * birkhoff_matrix(kp, b)).max() < 1e-12


def test_slice_permutations_classical(cs3):
    # the point states' slices are their permutations, the Haar state's is none
    states = [uniform_state(cs3, [sigma]) for sigma in cs3.group_elements] + [cs3.haar]
    perms = _slice_permutations(_slices(cs3, np.array([phi.duals for phi in states])))
    assert perms == cs3.group_elements + [None]


def test_sign_character_on_dual(ds4, ds4_cv):
    sign = np.array([np.linalg.det(np.eye(4)[list(p)]) for p in ds4.group_elements])
    k = ds4_cv.permutations.index((1, 0, 2, 3, 4))  # swaps the two-block labels
    assert np.abs(ds4_cv.characters[k].duals - sign).max() < 1e-12


# -- classical versions -----------------------------------------------------------


def test_classical_version_of_classical_group(cs3):
    cv = classical_version(cs3)
    assert len(cv) == 6
    assert gram_norm(cv.p_Q) < 1e-10
    assert sorted(cv.permutations) == sorted(cs3.group_elements)


def with_trivial_magic(G):
    """G, unchecked, with the magic grid u_ij = delta_ij 1 of the same N:
    its entries generate only the scalars."""
    magic = np.zeros_like(G.magic)
    magic[range(G.N), range(G.N)] = G.algebra.unit
    return CompactQuantumGroup(G.name, G.algebra, G.delta, G.counit, G.antipode,
                               magic, check=False)


@pytest.mark.parametrize("name, message", [
    # the characters are the algebra's whatever the grid, and under the
    # trivial grid each of them, two on C*(S3) and six on C(S3), has the
    # identity slice
    ("dual-s3", "not distinct"),
    ("s3", "not distinct"),
])
def test_classical_version_rejects_non_generating_magic(name, message):
    from qperm.cli import BUILTIN_GROUPS

    with pytest.raises(AlgebraError, match=message):
        classical_version(with_trivial_magic(BUILTIN_GROUPS[name]()))


def test_classical_version_kp(kp, kp_cv):
    assert len(kp_cv) == 4
    perms = set(kp_cv.permutations)
    # the Klein group inside S_4 on the pairing {1,2} {3,4}
    assert perms == {(0, 1, 2, 3), (1, 0, 3, 2)} | {(0, 1, 3, 2), (1, 0, 2, 3)}


def test_classical_version_dual_s4(ds4, ds4_cv):
    assert len(ds4_cv) == 2
    assert set(ds4_cv.permutations) == {(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)}


def test_character_supports_orthogonal_central(kp_cv, kp, in_centre):
    for i, p in enumerate(kp_cv.supports):
        assert in_centre(kp, p.coeffs)
        for j, q in enumerate(kp_cv.supports):
            prod = p * q
            if i == j:
                assert gram_norm(prod - p) < 1e-9
            else:
                assert gram_norm(prod) < 1e-9


def test_p_c_group_like_and_matches_abelianization_support(kp, kp_cv, morphisms):
    assert is_group_like(kp, kp_cv.p_C)
    h_cl = morphisms.haar_idempotent(morphisms.abelianization(kp))
    assert h_cl.distance(face_idempotent(kp, kp_cv.p_C)) < 1e-12
    p = support_projection(h_cl)
    assert gram_norm(p - kp_cv.p_C) < 1e-9


def test_quantum_fractions(kp, kp_cv, ds4, ds4_cv):
    assert abs(quantum_fraction(kp.haar, kp_cv) - 0.5) < 1e-9
    assert abs(quantum_fraction(ds4.haar, ds4_cv) - (1 - 2 / 24)) < 1e-9
    for chi in kp_cv.characters:
        assert quantum_fraction(chi, kp_cv) < 1e-9


def test_decompose_reconstructs(kp, kp_cv):
    for phi in kp.sample_states(10, seed=41):
        alpha, phi_c, phi_q = decompose(kp, phi, kp_cv)
        recon = np.zeros(kp.dim, dtype=complex)
        if phi_c is not None:
            recon += (1 - alpha) * phi_c.duals
        if phi_q is not None:
            recon += alpha * phi_q.duals
        assert np.abs(recon - phi.duals).max() < 1e-9
        if phi_c is not None:
            assert quantum_fraction(phi_c, kp_cv) < 1e-9
        if phi_q is not None:
            assert quantum_fraction(phi_q, kp_cv) > 1 - 1e-9


def test_quantum_fraction_is_range_checked(kp, kp_cv):
    # phi(p_Q) of 1.5, -0.5 and 0.5 + 1e-6 i: not the fraction of a state
    p_q = kp_cv.p_Q.coeffs
    tilt = np.conj(p_q) / np.vdot(p_q, p_q).real
    for duals in (3 * kp.haar.duals, -kp.haar.duals, kp.haar.duals + 1e-6j * tilt):
        with pytest.raises(AlgebraError, match="out of range"):
            quantum_fraction(State(kp.algebra, duals, check=False), kp_cv)


def test_decompose_rejects_a_non_central_split(kp, kp_cv, in_centre):
    # u_02 is not central on kp, so phi(q . q) + phi(q' . q') with q' = 1 - q
    # misses phi's cross terms and cannot reconstruct phi
    q = kp.magic_projection(0, 2)
    assert not in_centre(kp, q.coeffs)
    q_c = kp.algebra.unit - q.coeffs
    split = dataclasses.replace(
        kp_cv, p_C=q, p_Q=Projection(kp.algebra, q_c),
        S_C=_sandwich_matrix(kp, q.coeffs), S_Q=_sandwich_matrix(kp, q_c))
    with pytest.raises(AlgebraError, match="reconstruct"):
        decompose(kp, kp.sample_states(1, seed=41)[0], split)
    with pytest.raises(AlgebraError, match="reconstruct"):
        verify_bounds_empirically(kp, split, n_samples=3, seed=1)


def test_classical_absorption_forces_random(kp, kp_cv, absorbs):
    psi_cl = face_idempotent(kp, kp_cv.p_C)
    for phi in kp.sample_states(30, seed=43):
        if absorbs(kp, psi_cl, phi):
            assert quantum_fraction(phi, kp_cv) <= 1e-7
    # and conversely random states are absorbed
    for phi in kp_cv.characters:
        assert absorbs(kp, psi_cl, phi)


# -- stabilisers --------------------------------------------------------------------


def test_stabiliser_full_partition_is_haar(kp):
    psi = stabiliser_idempotent(kp, [list(range(4))])
    assert psi.distance(kp.haar) < 1e-9


def test_stabiliser_single_point_is_conditioned_haar(kp):
    for j in range(4):
        blocks = [[j], [k for k in range(4) if k != j]]
        psi = stabiliser_idempotent(kp, blocks)
        hj = condition(kp, kp.haar, kp.magic_projection(j, j))
        assert psi.distance(hj) < 1e-8
        assert stabiliser_membership(kp, psi, blocks)


def test_canonical_partition_rejects_an_empty_block():
    # [[0], []] was the stabiliser experiment's default partition at N = 1;
    # a point listed twice in a block is no partition either
    assert canonical_partition([[0]], 1) == [[0]]
    for partition, N in (([[0], []], 1), ([[], [1, 0]], 2), ([[0, 0], [1, 2, 3]], 4)):
        with pytest.raises(AlgebraError, match="partition"):
            canonical_partition(partition, N)


def test_stabiliser_membership_pattern(kp):
    blocks = [[0], [1, 2, 3]]
    assert stabiliser_membership(kp, kp.counit, blocks)
    assert not stabiliser_membership(kp, kp.haar, blocks)


def test_stabiliser_rigid_partition_on_dihedral_dual():
    G = dual_dihedral(6)
    blocks = [[0], [2], [1, 3]]
    psi = stabiliser_idempotent(G, blocks)
    assert psi.distance(G.counit) < 1e-8


def test_stabiliser_diagonal_masses_positive(kp, ds4):
    psi = stabiliser_idempotent(kp, [[0], [1, 2, 3]])
    for j in range(kp.N):
        assert psi(kp.magic_projection(j, j)).real > 1e-9


def test_stabiliser_projection_single_point_is_ujj(kp):
    r = stabiliser_projection(kp, [[2], [0, 1, 3]])
    assert gram_norm(r - kp.magic_projection(2, 2)) < 1e-9


# -- centrality ----------------------------------------------------------------------


def test_centrality(cs3, ds4, in_centre):
    assert in_centre(cs3, cs3.algebra.unit)
    for j in range(cs3.N):
        assert in_centre(cs3, cs3.magic[j, j])
    assert not in_centre(ds4, ds4.magic[0, 0])


# -- fix observable --------------------------------------------------------------------


def test_fix_spectrum_classical(cs3):
    fs = fix_spectrum(cs3)
    assert set(round(l) for l in fs.eigenvalues) <= {0, 1, 3}
    for phi in [cs3.haar, cs3.counit] + cs3.sample_states(5, seed=51):
        assert has_integer_fixed_points(phi, fs)


def test_fix_spectrum_dual_s4(ds4):
    fs = fix_spectrum(ds4)
    lam_p = (5 + np.sqrt(17)) / 2
    lam_m = (5 - np.sqrt(17)) / 2
    assert min(abs(l - lam_p) for l in fs.eigenvalues) < 1e-9
    assert min(abs(l - lam_m) for l in fs.eigenvalues) < 1e-9
    assert all(-1e-9 <= l <= 5 + 1e-9 for l in fs.eigenvalues)


@pytest.mark.parametrize("name", ["kp", "ds4"])
def test_fix_eigenvector_seed_decomposes_fix_once(request, name, retired_routes, monkeypatch):
    # both eigenvectors come from one eigh of fix, and the seed is the one
    # that one eigh per eigenvector gave, byte for byte
    G, calls, eigh = request.getfixturevalue(name), [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M) or eigh(M))
    seed = fix_eigenvector_seed(G)
    assert len(calls) == 1
    want = retired_routes.fix_seed(G)
    assert len(calls) == 3
    assert seed.duals.tobytes() == want.duals.tobytes()


def test_counit_distribution_at_n(kp, ds4):
    for G in (kp, ds4):
        dist = fix_spectrum(G).distribution(G.counit)
        top = max(dist, key=lambda t: t[1])
        assert abs(top[0] - G.N) < 1e-9 and abs(top[1] - 1) < 1e-9


def test_distribution_weights_sum_to_one(ds4):
    fs = fix_spectrum(ds4)
    for phi in ds4.sample_states(5, seed=52):
        dist = fs.distribution(phi)
        assert abs(sum(w for _, w in dist) - 1) < 1e-9
        assert all(w >= -1e-12 for _, w in dist)


def test_classical_versions_across_registry():
    from qperm.cli import BUILTIN_GROUPS, load_group

    # number of characters: all of |G| for function algebras, the number of
    # one-dimensional representations for duals
    expected = {"trivial": 1, "s2": 2, "s3": 6, "s4": 24, "klein-s4": 4,
                "z4-s4": 4, "kp": 4, "dual-z2": 2, "dual-s3": 2, "dual-s4": 2}
    expected.update({f"dual-d{m}": (4 if m % 2 == 0 else 2)
                     for m in range(3, 13)})
    for name in BUILTIN_GROUPS:
        G = load_group(name)
        cv = classical_version(G)
        assert len(cv) == expected[name], name
        assert abs(quantum_fraction(G.haar, cv)
                   - (1 - len(cv) / G.dim)) < 1e-9, name
        # each support, a rank-one minimal central projection, is the
        # support projection of its character
        for chi, p in zip(cv.characters, cv.supports):
            supp = support_projection(chi)
            assert gram_norm(supp - p) < 1e-7, name
            assert projection_rank(supp) == projection_rank(p), name


# the non-classical builtins: p_C and p_Q both non-zero
QUANTUM = ["kp", "dual-s3", "dual-s4"] + [f"dual-d{m}" for m in range(3, 13)]


def test_classical_version_carries_the_convolution_identities():
    from qperm.cli import BUILTIN_GROUPS

    for name, build in BUILTIN_GROUPS.items():
        G = build()
        cv = classical_version(G)
        assert len(cv.identity_residuals) == 3, name
        assert max(cv.identity_residuals) <= 1e-15, name
        assert cv.identity_residuals == _bound_identity_residuals(
            G, cv.p_Q.coeffs, _sandwich_matrix(G, cv.p_C.coeffs),
            _sandwich_matrix(G, cv.p_Q.coeffs)), name
        # the sandwiches kept for the decomposition are the ones formed here
        assert cv.S_C.tobytes() == _sandwich_matrix(G, cv.p_C.coeffs).tobytes(), name
        assert cv.S_Q.tobytes() == _sandwich_matrix(G, cv.p_Q.coeffs).tobytes(), name


@pytest.mark.parametrize("name", QUANTUM)
def test_convolution_identities_catch_swapped_projections(name, monkeypatch):
    # with p_C and p_Q swapped the identities fail: by 1.0 on kp, by 0.076
    # to 0.25 on the duals, far past tol, so classical_version raises
    from qperm import permutation
    from qperm.cli import BUILTIN_GROUPS

    G = BUILTIN_GROUPS[name]()
    cv = classical_version(G)
    swapped = max(_bound_identity_residuals(G, cv.p_C.coeffs, cv.S_Q, cv.S_C))
    assert swapped >= (1.0 - 1e-12 if name == "kp" else 0.07), swapped
    right = permutation._bound_identity_residuals
    monkeypatch.setattr(permutation, "_bound_identity_residuals",
                        lambda G, p_Q, S_C, S_Q: right(G, G.algebra.unit - p_Q, S_Q, S_C))
    with pytest.raises(AlgebraError, match="fails a convolution identity"):
        classical_version(G)


@pytest.mark.parametrize("name", QUANTUM)
def test_convolution_identities_are_not_symmetric_in_the_sandwiches(name):
    # the first identity with S_C^T replaced by S_Q^T, S_Q^T X S_C, is far
    # from 0: it holds outer(p_Q, p_C) plus S_Q^T (X - J) S_C, which is 0
    from qperm.cli import BUILTIN_GROUPS

    G = BUILTIN_GROUPS[name]()
    cv = classical_version(G)
    p_C, p_Q = cv.p_C.coeffs, cv.p_Q.coeffs
    X = G.delta_applied(p_Q)
    S_C, S_Q = _sandwich_matrix(G, p_C), _sandwich_matrix(G, p_Q)
    mutated = S_Q.T @ X @ S_C
    assert np.abs(mutated).max() >= 0.07
    assert np.abs(mutated - np.outer(p_Q, p_C)).max() <= 1e-15

