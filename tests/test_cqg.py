"""Quantum group constructors, validation, convolution and the Haar state."""
import functools
import json
import tracemalloc

import numpy as np
import pytest

from qperm import cli, cqg, permgroups
from qperm.algebra import AlgebraError, Projection, StarAlgebra, State, gram_norm
from qperm.cli import BUILTIN_GROUPS, exp_haar
from qperm.cqg import (
    CompactQuantumGroup,
    centre,
    characters,
    classical_group,
    dual_dihedral,
    dual_group,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from qperm.idempotent import cesaro_idempotent, face_idempotent, is_group_like
from qperm.permutation import classical_version


@pytest.fixture(scope="module")
def cs3():
    return classical_group(permgroups.symmetric_group(3))


@pytest.fixture(scope="module")
def cs4():
    return classical_group(permgroups.symmetric_group(4))


@pytest.fixture(scope="module")
def ds4():
    return dual_symmetric_group(4)


@pytest.fixture(scope="module")
def kp():
    return kac_paljutkin()


def test_shipped_groups_validate(cs3, cs4, ds4, kp):
    for G in (cs3, cs4, ds4, kp, dual_dihedral(6),
              classical_group(permgroups.klein_four())):
        report = G.validate()
        assert report.ok, str(report)


def test_classical_s3_nearly_exact(cs3):
    assert cs3.dim == 6 and cs3.N == 3
    assert max(c.residual for c in cs3.validate().checks) < 1e-12


def test_trivial_group():
    G = classical_group([permgroups.identity_perm(1)])
    assert G.dim == 1 and G.N == 1
    assert np.abs(G.magic[0, 0] - 1).max() < 1e-14


def test_z4_subgroup_of_s4():
    c4 = permgroups.from_cycles(4, (0, 1, 2, 3))
    G = classical_group(permgroups.closure([c4]))
    assert G.dim == 4 and G.N == 4
    assert G.validate().ok


def _elementary_abelian(k):
    n = 2 ** k
    return permgroups.FiniteGroup([f"g{i}" for i in range(n)],
                                  [[i ^ j for j in range(n)] for i in range(n)])


def _quaternion():
    i = permgroups.from_cycles(8, (0, 1, 3, 6), (2, 5, 7, 4))
    j = permgroups.from_cycles(8, (0, 2, 3, 7), (1, 4, 6, 5))
    return permgroups.FiniteGroup.from_permutations(permgroups.closure([i, j]))


@pytest.mark.parametrize("make, count", [
    (lambda: _elementary_abelian(3), 16),
    (lambda: _elementary_abelian(4), 67),
    (_quaternion, 6),
    (lambda: permgroups.FiniteGroup.dihedral(6), 16),
    (lambda: permgroups.FiniteGroup.from_permutations(permgroups.symmetric_group(4)), 30),
], ids=["Z2^3", "Z2^4", "Q8", "D6", "S4"])
def test_subgroup_counts(make, count):
    group = make()
    subs = group.subgroups()
    assert len(subs) == count == len(set(subs))
    assert all(group.is_subgroup(s) for s in subs)
    assert frozenset(range(group.order)) in subs


def test_classical_group_rejects_non_closed():
    t = permgroups.from_cycles(3, (0, 1))
    c = permgroups.from_cycles(3, (0, 1, 2))
    with pytest.raises(AlgebraError):
        classical_group([permgroups.identity_perm(3), t, c])


def test_perturbed_magic_fails_validation(kp):
    bad = kp.magic.copy()
    bad[0, 0] = bad[0, 0] + 0.05
    with pytest.raises(AlgebraError):
        CompactQuantumGroup("broken", kp.algebra, kp.delta, kp.counit,
                            kp.antipode, bad)
    report = CompactQuantumGroup("broken", kp.algebra, kp.delta, kp.counit,
                                 kp.antipode, bad, check=False).validate()
    names = [c.name for c in report.failures()]
    assert "magic_projections" in names


def test_point_mass_convolution_matches_group_law(cs3):
    # exhaustive over S_3
    for a in cs3.group_elements:
        for b in cs3.group_elements:
            got = cs3.convolve(uniform_state(cs3, [a]), uniform_state(cs3, [b]))
            want = uniform_state(cs3, [permgroups.compose(a, b)])
            assert got.distance(want) < 1e-12


def test_uniform_state_is_the_mean_of_point_states(cs3, ds4):
    t = permgroups.from_cycles(3, (0, 1))
    coset = [permgroups.compose(p, t) for p in permgroups.closure([t])]
    want = np.mean([uniform_state(cs3, [p]).duals for p in coset], axis=0)
    assert np.abs(uniform_state(cs3, coset).duals - want).max() == 0
    # a repeated element is counted once
    assert uniform_state(cs3, coset + coset[:1]).distance(uniform_state(cs3, coset)) == 0
    with pytest.raises(AlgebraError):
        uniform_state(cs3, [])
    with pytest.raises(AlgebraError):
        uniform_state(ds4, [permgroups.identity_perm(4)])


def test_dual_convolution_is_pointwise_multiplication(ds4):
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi, rho = ds4.sample_states(2, seed=int(rng.integers(1 << 30)))
        conv = ds4.convolve(phi, rho)
        assert np.abs(conv.duals - phi.duals * rho.duals).max() < 1e-10


def test_haar_absorbs_everything(kp, ds4):
    for G in (kp, ds4):
        for phi in G.sample_states(20, seed=11):
            assert G.convolve(G.haar, phi).distance(G.haar) < 1e-10
            assert G.convolve(phi, G.haar).distance(G.haar) < 1e-10


def test_haar_values(cs3, ds4, kp):
    # uniform measure on the classical group
    for i in range(3):
        for j in range(3):
            assert abs(cs3.haar(cs3.algebra.element(cs3.magic[i, j])) - 1 / 3) < 1e-12
    # delta at the identity on a dual
    expected = np.zeros(24)
    expected[0] = 1.0
    assert np.abs(ds4.haar.duals - expected).max() < 1e-12
    # Kac-Paljutkin weights: 1/8 on each character block, 1/4 on the matrix diagonal
    assert np.abs(kp.haar.duals
                  - np.array([1, 1, 1, 1, 2, 0, 0, 2]) / 8.0).max() < 1e-12


def test_haar_state_cesaro_cross_check():
    # the Haar state comes from one linear solve; the Cesaro limit of the
    # trace, the unique faithful idempotent, is its oracle on every builtin
    for name, build in BUILTIN_GROUPS.items():
        G = build()
        res = cesaro_idempotent(G, State(G.algebra, G.algebra.trace))
        assert res.converged, name
        assert res.limit.distance(G.haar) <= 1e-7, name


def test_validator_catches_field_perturbations(kp):
    def rebuilt(haar=None, **kwargs):
        data = {"name": "perturbed", "algebra": kp.algebra, "delta": kp.delta,
                "counit": kp.counit, "antipode": kp.antipode,
                "magic": kp.magic, "check": False}
        data.update(kwargs)
        G = CompactQuantumGroup(**data)
        if haar is not None:  # validate certifies whatever state G.haar holds
            G.haar = State(G.algebra, haar, check=False)
        return G.validate()

    bad_delta = kp.delta.copy()
    bad_delta[4, 0, 4] += 0.02
    assert not rebuilt(delta=bad_delta).ok

    bad_s = kp.antipode.copy()
    bad_s[5, 5] += 0.02
    assert not rebuilt(antipode=bad_s).ok

    bad_h = np.asarray(kp.haar.duals).copy()
    bad_h[0] += 0.02
    bad_h[1] -= 0.02
    assert not rebuilt(haar=bad_h).ok
    bad_h[[0, 1]] = [-0.25, 0.5]  # h(1) stays 1, h(f1) < 0: not a state
    assert "haar_state" in {c.name for c in rebuilt(haar=bad_h).failures()}

    bad_eps = np.asarray(kp.counit.duals).copy()
    bad_eps[3] += 0.02
    bad_eps[0] -= 0.02
    assert not rebuilt(counit=bad_eps).ok

    a = kp.algebra
    bad_mult = a.mult.copy()
    bad_mult[4, 5, 5] += 0.02  # E11 E12 = 1.02 E12
    bad_alg = StarAlgebra(a.labels, bad_mult, a.involution, a.unit, a.trace, check=False)
    failed = {c.name for c in rebuilt(algebra=bad_alg).failures()}
    assert {"algebra.associativity", "delta_multiplicative"} <= failed


def test_convolution_associative(kp):
    states = kp.sample_states(9, seed=3)
    triples = [states[i:i + 3] for i in range(0, 9, 3)]
    # plus shuffled triples to reach 50 without extra sampling cost
    rng = np.random.default_rng(0)
    for _ in range(47):
        triples.append([states[k] for k in rng.integers(0, 9, size=3)])
    for a, b, c in triples:
        left = kp.convolve(kp.convolve(a, b), c)
        right = kp.convolve(a, kp.convolve(b, c))
        assert left.distance(right) < 1e-10


def test_counit_is_identity_for_convolution(kp, ds4):
    for G in (kp, ds4):
        for phi in G.sample_states(5, seed=2):
            assert G.convolve(G.counit, phi).distance(phi) < 1e-10
            assert G.convolve(phi, G.counit).distance(phi) < 1e-10


def test_reverse_classical_inverse(cs4):
    for sigma in cs4.group_elements[:8]:
        got = cs4.reverse(uniform_state(cs4, [sigma]))
        want = uniform_state(cs4, [np.argsort(sigma)])  # the inverse permutation
        assert got.distance(want) < 1e-12


def test_reverse_on_dual_is_group_inverse(ds4):
    phi = ds4.sample_states(1, seed=9)[0]
    rev = ds4.reverse(phi)
    for i, p in enumerate(ds4.group_elements):
        j = ds4.group_elements.index(tuple(np.argsort(p).tolist()))  # p^-1
        assert abs(rev.duals[i] - phi.duals[j]) < 1e-12


def test_reverse_of_haar_is_haar(kp, ds4, cs3):
    for G in (kp, ds4, cs3):
        assert G.reverse(G.haar).distance(G.haar) < 1e-10


def test_reverse_antihomomorphism(kp):
    # (phi * rho) o S = (rho o S) * (phi o S)
    for phi, rho in zip(kp.sample_states(6, seed=4), kp.sample_states(6, seed=5)):
        lhs = kp.reverse(kp.convolve(phi, rho))
        rhs = kp.convolve(kp.reverse(rho), kp.reverse(phi))
        assert lhs.distance(rhs) < 1e-10


def test_dual_z2_block():
    G = dual_group(permgroups.FiniteGroup.cyclic(2), [(1, 2)])
    half = np.array([0.5, 0.5])
    offhalf = np.array([0.5, -0.5])
    assert np.abs(G.magic[0, 0] - half).max() < 1e-12
    assert np.abs(G.magic[0, 1] - offhalf).max() < 1e-12
    assert G.validate().ok


def test_dual_s4_shape(ds4):
    assert ds4.dim == 24 and ds4.N == 5
    assert ds4.validate().ok


def test_dual_dihedral_shape():
    G = dual_dihedral(5)
    assert G.dim == 10 and G.N == 4
    assert G.validate().ok


def test_dual_group_rejects_bad_generators():
    group = permgroups.FiniteGroup.from_permutations(permgroups.symmetric_group(4))
    t12 = group.perms.index(permgroups.from_cycles(4, (0, 1)))
    with pytest.raises(AlgebraError):
        dual_group(group, [(t12, 3)])  # wrong order
    with pytest.raises(AlgebraError):
        dual_group(group, [(t12, 2)])  # does not generate


@pytest.mark.parametrize("name", sorted(set(BUILTIN_GROUPS) - {"kp"}))
def test_builtin_group_laws_match_the_loop_constructors(name, group_law_oracle):
    assert group_law_oracle(BUILTIN_GROUPS[name]()) == []


def test_kac_paljutkin_basics(kp):
    assert kp.dim == 8 and kp.N == 4
    # counit is evaluation on the first one-dimensional block
    assert np.abs(kp.counit.duals - np.eye(8)[0]).max() < 1e-12
    assert kp.validate().ok


def test_kp_noncommutative_noncocommutative(kp):
    c = kp.algebra.mult
    assert np.abs(c - np.transpose(c, (1, 0, 2))).max() > 0.5
    assert np.abs(kp.delta - np.transpose(kp.delta, (0, 2, 1))).max() > 0.1


def test_kp_corner_hulls_convolution_closed(kp):
    # co(f^1, f^4, E^11) and co(f^1, f^4, E^22) are closed under convolution
    # and reverses, and contain the counit
    eye = np.eye(8)
    for corner in (4, 7):
        gens = [State(kp.algebra, eye[0]), State(kp.algebra, eye[3]),
                State(kp.algebra, eye[corner])]
        Mh = np.array([g.duals for g in gens]).T
        for a in gens:
            for b in gens:
                for prod in (kp.convolve(a, b), kp.reverse(a)):
                    s, *_ = np.linalg.lstsq(Mh, prod.duals, rcond=None)
                    assert np.abs(Mh @ s - prod.duals).max() < 1e-10
                    assert s.real.min() > -1e-10
        assert any(g.distance(kp.counit) < 1e-12 for g in gens)


def test_characters_counts(cs3, ds4, kp):
    assert len(characters(cs3)) == 6
    assert len(characters(ds4)) == 2
    assert len(characters(kp)) == 4


def conjugacy_classes(group):
    """Number of conjugacy classes, from the multiplication table alone."""
    return len({frozenset(group.mul(group.mul(h, g), group.inv(h)) for h in range(group.order))
                for g in range(group.order)})


def abelianization_order(group):
    """|Gamma / [Gamma, Gamma]|, from the multiplication table alone."""
    n = group.order
    commutators = {group.mul(group.mul(group.inv(a), group.inv(b)), group.mul(a, b))
                   for a in range(n) for b in range(n)}
    return n // len(group.generated_by(sorted(commutators)))


def test_centre_and_characters_count_from_the_group_table():
    # C*(Gamma): one block per irreducible, so dim Z = #classes, and one
    # character per one-dimensional irreducible, |Gamma^ab| of them; C(G):
    # commutative, one character per point
    duals = [name for name in BUILTIN_GROUPS if name.startswith("dual-")]
    cyclic = [dual_group(permgroups.FiniteGroup.cyclic(n), [(1, n)]) for n in (3, 5, 6)]
    for G in [BUILTIN_GROUPS[name]() for name in duals] + cyclic:
        assert len(centre(G)) == conjugacy_classes(G.group), G.name
        assert len(characters(G)) == abelianization_order(G.group), G.name
    for name in ("trivial", "s2", "s3", "s4", "klein-s4", "z4-s4"):
        G = BUILTIN_GROUPS[name]()
        assert len(centre(G)) == G.dim == len(G.group_elements), name
        assert len(characters(G)) == G.group.order, name


@pytest.mark.parametrize("name", ["kp", "s3", "dual-s4", "dual-d6"])
def test_generic_central_element_ignores_the_centre_basis(name, monkeypatch):
    # the generic element is drawn in the coordinates of A and projected on
    # Z(A), so a unitary Q mixing the orthonormal rows of Z leaves it, and the
    # characters and their supports, where they were; drawn in the
    # coordinates of Z, it moves by O(1)
    G = BUILTIN_GROUPS[name]()
    Z = centre(G)
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((len(Z),) * 2)
                     + 1j * rng.standard_normal((len(Z),) * 2))[0]
    generic, left_mult = [], G.algebra.left_mult_matrix
    monkeypatch.setattr(G.algebra, "left_mult_matrix", lambda a: generic.append(a) or left_mult(a))
    found = []
    for basis in (Z, Q @ Z):
        monkeypatch.setattr(cqg, "centre", lambda G, basis=basis: basis)
        found.append(cqg._character_stack(G))
    assert len(generic) == 2
    assert np.abs(generic[0] - generic[1]).max() <= 1e-12
    for before, after in zip(*found):  # supports, then characters, in any order
        assert before.shape == after.shape
        gaps = np.abs(before[:, np.newaxis] - after[np.newaxis]).max(axis=2)
        assert gaps.min(axis=1).max() <= 1e-12


# The quotient route (tests/conftest.py) is the oracle for the face
# idempotent of p_C; these pin the oracle itself.


def test_abelianization_morphism(kp, morphisms):
    pi = morphisms.abelianization(kp)
    assert pi.target.dim == 4
    res = pi.check_residuals()
    assert max(res.values()) < 1e-8
    phi = morphisms.haar_idempotent(pi)
    assert kp.convolve(phi, phi).distance(phi) < 1e-10
    assert phi.distance(face_idempotent(kp, classical_version(kp).p_C)) < 1e-12


def test_quotient_to_trivial_gives_counit(cs3, morphisms):
    e = classical_group([permgroups.identity_perm(1)])
    M = np.zeros((1, 6))
    M[0, 0] = 1.0  # evaluation at the identity
    pi = morphisms.QuantumGroupMorphism(cs3, e, M)
    phi = morphisms.haar_idempotent(pi)
    assert phi.distance(cs3.counit) < 1e-12
    # the face of the point projection at the identity is the counit alone
    point = Projection(cs3.algebra, np.eye(6)[0])
    assert face_idempotent(cs3, point).distance(cs3.counit) < 1e-12


def test_identity_morphism_haar(kp, morphisms):
    pi = morphisms.QuantumGroupMorphism(kp, kp, np.eye(8))
    assert morphisms.haar_idempotent(pi).distance(kp.haar) < 1e-12


def test_morphism_rejects_non_homomorphism(cs3, kp, morphisms):
    with pytest.raises(AlgebraError):
        morphisms.QuantumGroupMorphism(kp, cs3, np.ones((6, 8)))


def test_magic_diagonal_group_like_identity(kp, ds4, cs3):
    # Delta(u_jj)(1 (x) u_jj) = u_jj (x) u_jj checked directly in coefficients:
    # entry [a, b] of each side is its coefficient of e_a (x) e_b
    for G in (kp, ds4, cs3):
        for j in range(G.N):
            u = G.magic[j, j]
            times_u = np.einsum("bjk,j->bk", G.algebra.mult, u)  # (e_b u)[k]
            lhs = G.delta_applied(u) @ times_u
            assert np.abs(lhs - np.outer(u, u)).max() < 1e-10


def test_magic_projection_checks_only_the_entry_asked_for(monkeypatch):
    # construction builds no Projection, and each call builds and checks the
    # one entry it returns, so on an unchecked group with a non-projection
    # entry only that entry raises
    built = []

    class CountingProjection(Projection):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cqg, "Projection", CountingProjection)
    G = kac_paljutkin()
    assert not built
    for i in range(G.N):
        for j in range(G.N):
            assert np.array_equal(G.magic_projection(i, j).coeffs, G.magic[i, j])
    assert len(built) == G.N ** 2
    magic = G.magic.copy()
    magic[0, 1] *= 2
    bad = CompactQuantumGroup("bad", G.algebra, G.delta, G.counit, G.antipode, magic,
                              check=False)
    assert np.array_equal(bad.magic_projection(0, 0).coeffs, magic[0, 0])
    with pytest.raises(AlgebraError):
        bad.magic_projection(0, 1)


def test_validator_catches_a_grid_that_does_not_generate():
    # one reflection block of dual-D6 is a magic unitary of its own, whose
    # entries span only the two-dimensional algebra of that reflection
    G = dual_dihedral(6)
    sub = CompactQuantumGroup("sub", G.algebra, G.delta, G.counit, G.antipode,
                              G.magic[:2, :2], check=False)
    assert [c.name for c in sub.validate().failures()] == ["magic_generates"]


def test_algebra_invariants_checked_once(monkeypatch):
    # counts computations of the invariant report, however many kernel
    # calls each one makes
    calls = []
    real = StarAlgebra._invariants.func

    def counting(self):
        calls.append(1)
        return real(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(StarAlgebra, "_invariants")
    monkeypatch.setattr(StarAlgebra, "_invariants", counted)
    G = kac_paljutkin()  # checks the algebra, then validates the group
    G.validate().checks.clear()  # the group's cached report is not handed out
    assert len(calls) == 1 and G.validate().ok and G.validate().checks
    report = G.algebra.check_invariants()
    report["associativity"] = 1.0
    assert G.algebra.check_invariants()["associativity"] == 0.0
    a = G.algebra
    lazy = StarAlgebra(a.labels, a.mult, a.involution, a.unit, a.trace, check=False)
    assert len(calls) == 1
    assert lazy.check_invariants() == a.check_invariants()
    lazy.check_invariants()
    assert len(calls) == 2


def test_validation_memory_scales_with_non_zeros():
    # dual-D30 has dim 60, where one dense d^4 complex array takes 207 MB;
    # its mult and delta have d^2 and d non-zeros.  Z40 acting regularly has
    # N = d = 40, where one (N, N, d, d) complex array takes 41 MB
    z40 = [tuple((j + k) % 40 for j in range(40)) for k in range(40)]
    for build, bound in ((lambda: dual_dihedral(30, check=True), 100 * 2**20),
                         (lambda: classical_group(z40), 32 * 2**20)):
        tracemalloc.start()
        try:
            G = build()
            ok = G.validate().ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < bound


def test_identities_are_summed_in_bounded_memory():
    # dual-D20's associativity and classical D20's coassociativity (dim 40)
    # have 64 000 pairs a side; with both sides formed whole and sorted
    # together, each check peaked 9.9 MB above its inputs
    a = dual_dihedral(20).algebra
    lazy = StarAlgebra(a.labels, a.mult, a.involution, a.unit, a.trace, check=False)
    d20 = classical_group(permgroups.closure([tuple((j + 1) % 20 for j in range(20)),
                                              tuple(-j % 20 for j in range(20))]), check=False)
    assert d20.dim == 40
    for check in (lazy.check_invariants, d20.validate):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_group_likeness_memory_stays_at_d_squared():
    # at dim 60 the tensor square's Gram matrix would be a (d^2, d^2) complex
    # array of 207 MB; the Gram-form norm needs only (d, d) arrays
    G = dual_dihedral(30)
    p = G.magic_projection(0, 0)
    tracemalloc.start()
    try:
        group_like = is_group_like(G, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group_like
    assert peak < 10 * 2**20


def test_dual_s5_validates():
    # (0 1) and the 4-cycle (1 2 3 4) generate S5; N = 2 + 4
    G = dual_symmetric_group(5, check=False)
    assert (G.dim, G.N) == (120, 6)
    assert G.validate().ok


def test_sample_states_deterministic(kp):
    a = kp.sample_states(5, seed=42)
    b = kp.sample_states(5, seed=42)
    for x, y in zip(a, b):
        assert x.distance(y) == 0.0


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-2 ** 70, ValueError),
                                         (1.5, TypeError), ("3", TypeError), (None, TypeError)])
def test_state_bank_rejects_seeds_that_seed_sequence_rejects(kp, seed, error):
    # a negative seed has no 32-bit words to split into, and None would ask
    # the operating system for fresh entropy
    with pytest.raises(error):
        kp._state_bank(3, seed)
    with pytest.raises(error):
        kp.sample_states(3, seed)


def test_state_bank_takes_at_most_one_spawn_word_of_samples(kp):
    # the spawn key is one uint32 word per sample: n past 2**32 is rejected
    # before any array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most 2\\*\\*32 samples"):
            kp._state_bank(2 ** 32 + 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_state_bank_seed_may_be_a_numpy_integer(kp):
    assert kp._state_bank(4, np.uint64(9)).tobytes() == kp._state_bank(4, 9).tobytes()


def test_convolve_rejects_group_mismatch(kp, ds4):
    with pytest.raises(AlgebraError):
        kp.convolve(kp.haar, ds4.haar)


def two_s2(check):
    """The direct sum of two copies of C(S_2), whose unit is the sum of the
    two block units: Delta(1) = 1_1 (x) 1_1 + 1_2 (x) 1_2 is not 1 (x) 1, so
    no state is invariant.  The regular trace h is still a state, 1/4 at
    each point, but (h (x) id) Delta(e_a) lives on the block of e_a and
    h(e_a) 1 on both blocks: both invariance residuals are 1/4."""
    s2 = classical_group(permgroups.symmetric_group(2))
    d = 4
    mult = np.zeros((d, d, d), dtype=complex)
    delta = np.zeros((d, d, d), dtype=complex)
    mult[:2, :2, :2] = s2.algebra.mult
    mult[2:, 2:, 2:] = s2.algebra.mult
    delta[:2, :2, :2] = s2.delta
    delta[2:, 2:, 2:] = s2.delta
    algebra = StarAlgebra(["a", "b", "c", "d"], mult, np.eye(d),
                          unit=np.ones(d), trace=np.full(d, 0.25), check=False)
    return CompactQuantumGroup("two-s2", algebra, delta, np.eye(d)[0], np.eye(d),
                               algebra.unit[np.newaxis, np.newaxis], check=check)


def test_haar_solver_rejects_degenerate_invariance(haar_oracle):
    # validate is the Haar state's one certificate: construction names both
    # invariance rows at 1/4, and an unchecked group's report fails exactly
    # those of its Haar rows, the regular trace being a state
    with pytest.raises(AlgebraError, match=r"haar_left_invariance\s+2.500e-01[^\n]*FAIL"
                                           r"\nhaar_right_invariance\s+2.500e-01[^\n]*FAIL"):
        two_s2(check=True)
    G = two_s2(check=False)
    rows = {c.name: c for c in G.validate().checks if c.name.startswith("haar")}
    assert {name for name, c in rows.items() if not c.passed} == {
        "haar_left_invariance", "haar_right_invariance"}
    assert rows["haar_left_invariance"].residual == rows["haar_right_invariance"].residual == 0.25
    assert rows["haar_state"].passed
    with pytest.raises(AlgebraError):
        haar_oracle(G.algebra, G.delta)


def test_haar_experiment_writes_the_invariance_residual(tmp_path, monkeypatch):
    # the haar experiment reports max |A_h| under "matches_stored": 1/4 on
    # the degenerate group, built unchecked.  Every builtin's residuals are
    # exactly 0, so only this group, which is no quantum group, shows the key
    # holds the residual.  Its classical version fails its certificates, and
    # the experiment raises rather than write an artifact without alpha
    G = two_s2(check=False)
    with pytest.raises(AlgebraError, match="character permutations are not distinct"):
        exp_haar(G, {}, tmp_path)
    assert not (tmp_path / "haar.json").exists()
    # stubbed, the classical version lets the experiment reach its write
    monkeypatch.setattr(cli.permutation, "classical_version", lambda G: None)
    monkeypatch.setattr(cli.permutation, "quantum_fraction", lambda phi, cv: 0.5)
    exp_haar(G, {}, tmp_path)
    assert json.loads((tmp_path / "haar.json").read_text())["matches_stored"] == 0.25
