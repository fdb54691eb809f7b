"""Cesaro idempotents, quasi-subgroups, group-like projections, collapse."""
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import _criterion8_census  # noqa: E402
from qperm import idempotent, permgroups
from qperm.algebra import ITER_TOL, AlgebraError, Projection, State, gram_norm, support_projection
from qperm.cli import BUILTIN_GROUPS
from qperm.cqg import (
    _absorption_operator,
    classical_group,
    dual_dihedral,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from qperm.idempotent import (
    CesaroResult,
    _sandwich_matrix,
    cesaro_idempotent,
    classify_idempotent,
    collapse_stability_probe,
    condition,
    dual_subgroup_idempotent,
    face_idempotent,
    generated_idempotent,
    idempotent_census,
    is_group_like,
    is_idempotent,
)
from qperm.permutation import classical_version, stabiliser_idempotent, stabiliser_projection


@pytest.fixture(scope="module")
def cs4():
    return classical_group(permgroups.symmetric_group(4))


@pytest.fixture(scope="module")
def ds4():
    return dual_symmetric_group(4)


@pytest.fixture(scope="module")
def kp():
    return kac_paljutkin()


# -- cesaro ---------------------------------------------------------------------


def test_cesaro_from_cyclic_point_mass(cs4):
    sigma = permgroups.from_cycles(4, (0, 1, 2))
    res = cesaro_idempotent(cs4, uniform_state(cs4, [sigma]))
    assert res.converged
    expect = uniform_state(cs4, permgroups.closure([sigma]))
    assert res.limit.distance(expect) < 1e-12


def test_cesaro_from_haar_is_haar(kp):
    res = cesaro_idempotent(kp, kp.haar)
    assert res.converged and res.limit.distance(kp.haar) < 1e-12


def test_cesaro_from_e11_lands_in_corner_hull(kp):
    e11 = State(kp.algebra, np.eye(8)[4])
    res = cesaro_idempotent(kp, e11)
    assert res.converged
    # limit within co(f^1, f^4, E^11): nonnegative hull coordinates
    gens = np.array([np.eye(8)[0], np.eye(8)[3], np.eye(8)[4]]).T
    s, *_ = np.linalg.lstsq(gens, res.limit.duals, rcond=None)
    assert np.abs(gens @ s - res.limit.duals).max() < 1e-10
    assert s.real.min() > -1e-10
    assert abs(s.real.sum() - 1) < 1e-10


def test_cesaro_limit_invariance_and_idempotency(kp, ds4):
    for G in (kp, ds4):
        for seed_state in G.sample_states(5, seed=21):
            res = cesaro_idempotent(G, seed_state)
            assert res.converged
            lim = res.limit
            assert lim.distance(G.convolve(lim, lim)) < 1e-7
            assert G.convolve(seed_state, lim).distance(lim) < 1e-6
            assert res.residual < 1e-6


def test_generated_idempotent_two_transpositions(cs4):
    s1 = permgroups.from_cycles(4, (0, 1))
    s2 = permgroups.from_cycles(4, (0, 1, 2, 3))
    res = generated_idempotent(cs4, [uniform_state(cs4, [s1]), uniform_state(cs4, [s2])])
    assert res.converged
    expect = uniform_state(cs4, permgroups.closure([s1, s2]))  # the whole of S_4
    assert res.limit.distance(expect) < 1e-10


def test_generated_idempotent_single_haar(kp):
    res = generated_idempotent(kp, [kp.haar])
    assert res.converged and res.limit.distance(kp.haar) < 1e-10


def test_generated_strictly_above_classical_part(kp, absorbs):
    # classical Haar idempotent plus a truly quantum state generate an
    # idempotent absorbing strictly more than the classical one
    h_cl = face_idempotent(kp, classical_version(kp).p_C)
    e11 = State(kp.algebra, np.eye(8)[4])
    res = generated_idempotent(kp, [h_cl, e11])
    assert res.converged
    assert absorbs(kp, res.limit, h_cl)
    assert absorbs(kp, res.limit, e11)
    # e11 is not absorbed by the classical idempotent itself
    assert not absorbs(kp, h_cl, e11)
    assert res.limit.distance(h_cl) > 0.1


def test_generated_idempotent_rejects_no_input_and_another_algebra(kp):
    with pytest.raises(AlgebraError, match="at least one state"):
        generated_idempotent(kp, [])
    with pytest.raises(AlgebraError, match="different algebra"):
        generated_idempotent(kp, [kp.haar, kac_paljutkin().haar])


@pytest.mark.parametrize("case", ["two-transpositions", "single-haar",
                                  "classical-and-e11", "kp-bank", "dual-s4-bank"])
def test_generated_idempotent_ignores_input_order(case, request, member_bank):
    # oracle: the idempotent generated by a set of states does not depend on
    # the order in which the inputs are convolved
    if case == "two-transpositions":
        G = request.getfixturevalue("cs4")
        states = [uniform_state(G, [permgroups.from_cycles(4, (0, 1))]),
                  uniform_state(G, [permgroups.from_cycles(4, (0, 1, 2, 3))])]
    elif case == "single-haar":
        G = request.getfixturevalue("kp")
        states = [G.haar]
    elif case == "classical-and-e11":
        G = request.getfixturevalue("kp")
        states = [face_idempotent(G, classical_version(G).p_C), State(G.algebra, np.eye(8)[4])]
    else:
        G = request.getfixturevalue("kp" if case == "kp-bank" else "ds4")
        r = stabiliser_projection(G, [[0], list(range(1, G.N))])
        states = [G.counit] + member_bank(G, r, 24, 0)
    tol = ITER_TOL
    given = generated_idempotent(G, states)
    order = np.random.default_rng(1).permutation(len(states))
    permuted = generated_idempotent(G, [states[k] for k in order])
    assert given.converged and permuted.converged
    assert given.limit.distance(permuted.limit) <= 100 * tol


# -- membership ---------------------------------------------------------------


def test_haar_absorbs_all_sampled(kp, absorbs):
    for phi in kp.sample_states(10, seed=8):
        assert absorbs(kp, kp.haar, phi)


def test_face_absorption_residual_reads_each_side():
    # on C(S_3) the face of the point projection at g is {delta_g}, so the
    # certificate max|A S_r| of face_idempotent is the larger absorption
    # distance of delta_g.  A uniform state on a left coset of <t> absorbs on
    # one side only, on a right coset on the other, so both sides are read
    cs3 = classical_group(permgroups.symmetric_group(3))
    t = permgroups.from_cycles(3, (0, 1))
    sub = permgroups.closure([t])
    sides = set()
    for k in cs3.group_elements:
        for coset in ([permgroups.compose(k, h) for h in sub],
                      [permgroups.compose(h, k) for h in sub]):
            psi = uniform_state(cs3, coset)
            for i, g in enumerate(cs3.group_elements):
                r = Projection(cs3.algebra, np.eye(cs3.dim)[i])  # indicator of g
                dg = uniform_state(cs3, [g])
                left = psi.distance(cs3.convolve(psi, dg, check=False))
                right = psi.distance(cs3.convolve(dg, psi, check=False))
                S = _sandwich_matrix(cs3, r.coeffs)
                residual = np.abs(_absorption_operator(cs3, psi.duals) @ S).max()
                assert abs(residual - max(left, right)) < 1e-12
                sides.add((left < 1e-12, right < 1e-12))
    assert {(True, False), (False, True)} <= sides


@pytest.mark.parametrize("name, i, j", [("s3", 0, 1), ("kp", 0, 2)])
def test_face_idempotent_rejects_a_face_not_closed_under_convolution(name, i, j):
    # an off-diagonal magic entry u_ij: convolving two states on it puts
    # mass off it, so its face holds no idempotent that the theorem gives
    G = BUILTIN_GROUPS[name]()
    with pytest.raises(AlgebraError, match="not closed under convolution"):
        face_idempotent(G, G.magic_projection(i, j))


def test_face_idempotent_rejects_the_zero_projection(kp):
    with pytest.raises(AlgebraError, match="zero mass"):
        face_idempotent(kp, Projection(kp.algebra, np.zeros(kp.dim)))


def test_face_idempotent_forms_one_sandwich(kp, monkeypatch):
    # the one S_r gives psi = S_r h / h(r) and serves the closure and
    # absorption certificates
    r = stabiliser_projection(kp, [[0], [1, 2, 3]])
    calls, real = [], idempotent._sandwich_matrix
    monkeypatch.setattr(idempotent, "_sandwich_matrix", lambda G, q: calls.append(q) or real(G, q))
    psi = face_idempotent(kp, r)
    assert len(calls) == 1 and np.array_equal(calls[0], r.coeffs)
    assert is_idempotent(kp, psi) and abs(psi(r) - 1) <= kp.algebra.tol


def test_counit_absorbs_only_itself(kp, cs4, absorbs):
    for G in (kp, cs4):
        assert absorbs(G, G.counit, G.counit)
        for phi in G.sample_states(10, seed=13):
            if phi.distance(G.counit) > 1e-6:
                assert not absorbs(G, G.counit, phi)


def test_membership_pointwise_criterion_on_dual(ds4, absorbs):
    a4 = sorted(ds4.group.generated_by(
        [ds4.group.perms.index(permgroups.from_cycles(4, (0, 1, 2)))]
        + [ds4.group.perms.index(permgroups.from_cycles(4, (1, 2, 3)))]))
    assert len(a4) == 12
    psi = dual_subgroup_idempotent(ds4, a4)
    # sign character: member (equals 1 on A_4); haar: not a member
    sign_duals = np.array([np.linalg.det(np.eye(4)[list(p)])
                           for p in ds4.group_elements])
    sign = State(ds4.algebra, sign_duals)
    assert absorbs(ds4, psi, sign)
    assert not absorbs(ds4, psi, ds4.haar)


# -- group-like projections ------------------------------------------------------


def test_unit_is_group_like(kp, ds4):
    for G in (kp, ds4):
        assert is_group_like(G, Projection(G.algebra, G.algebra.unit))
        assert not is_group_like(G, Projection(G.algebra, np.zeros(G.dim)))


def test_magic_diagonals_group_like(kp, ds4, cs4):
    for G in (kp, ds4, cs4):
        for j in range(G.N):
            assert is_group_like(G, G.magic_projection(j, j))


def test_subgroup_indicator_group_like_criterion():
    cs3 = classical_group(permgroups.symmetric_group(3))
    e = permgroups.identity_perm(3)
    t = permgroups.from_cycles(3, (0, 1))
    c = permgroups.from_cycles(3, (0, 1, 2))
    idx = {p: i for i, p in enumerate(cs3.group_elements)}
    ind = lambda els: Projection(
        cs3.algebra, sum(np.eye(6)[idx[p]] for p in els))
    assert is_group_like(cs3, ind([e, t]))
    assert not is_group_like(cs3, ind([e, c]))


# -- conditioning -----------------------------------------------------------------


def test_condition_on_unit_is_identity(kp):
    phi = kp.sample_states(1, seed=5)[0]
    q = Projection(kp.algebra, kp.algebra.unit)
    assert condition(kp, phi, q).distance(phi) < 1e-12


def test_condition_haar_on_point_mass(cs4):
    sigma = permgroups.from_cycles(4, (1, 2))
    q = Projection(cs4.algebra, np.eye(24)[cs4.group_elements.index(sigma)])
    assert condition(cs4, cs4.haar, q).distance(uniform_state(cs4, [sigma])) < 1e-12


def test_condition_rejects_zero_mass(cs4):
    sigma = permgroups.from_cycles(4, (1, 2))
    q = Projection(cs4.algebra, np.eye(24)[cs4.group_elements.index(sigma)])
    with pytest.raises(AlgebraError):
        condition(cs4, cs4.counit, q)


def test_hj_idempotent_on_all_groups(kp, ds4):
    for G in (kp, ds4):
        for j in range(G.N):
            hj = condition(G, G.haar, G.magic_projection(j, j))
            assert is_idempotent(G, hj)


# -- null space and classification -------------------------------------------------


def test_classify_haar_faithful(kp):
    cls = classify_idempotent(kp, kp.haar)
    assert cls.kind == "Haar" and cls.null_space_dim == 0


def test_classify_normal_vs_nonnormal_subgroup(ds4):
    group = ds4.group
    a4 = [i for i in range(24)
          if np.linalg.det(np.eye(4)[list(ds4.group_elements[i])]) > 0]
    psi = dual_subgroup_idempotent(ds4, a4)
    assert classify_idempotent(ds4, psi).kind == "Haar"
    t12 = group.perms.index(permgroups.from_cycles(4, (0, 1)))
    pair = sorted(group.generated_by([t12]))
    psi2 = dual_subgroup_idempotent(ds4, pair)
    cls2 = classify_idempotent(ds4, psi2)
    assert cls2.kind == "NonHaar" and cls2.residual > 1e-7


def test_classification_matches_normality_exhaustively(ds4):
    for sub in ds4.group.subgroups():
        psi = dual_subgroup_idempotent(ds4, sorted(sub))
        cls = classify_idempotent(ds4, psi)
        assert (cls.kind == "Haar") == ds4.group.is_normal(sub)


# -- dual subgroup idempotents ------------------------------------------------------


def test_dual_subgroup_trivial_and_full(ds4):
    assert dual_subgroup_idempotent(ds4, [0]).distance(ds4.haar) < 1e-12
    assert dual_subgroup_idempotent(
        ds4, range(24)).distance(ds4.counit) < 1e-12


def test_dual_subgroup_a4_is_character_average(ds4):
    a4 = [i for i in range(24)
          if np.linalg.det(np.eye(4)[list(ds4.group_elements[i])]) > 0]
    psi = dual_subgroup_idempotent(ds4, a4)
    sign = np.array([np.linalg.det(np.eye(4)[list(p)])
                     for p in ds4.group_elements])
    expect = State(ds4.algebra, (np.ones(24) + sign) / 2)
    assert psi.distance(expect) < 1e-12


def test_dual_subgroup_rejects_non_subgroup(ds4):
    with pytest.raises(AlgebraError):
        dual_subgroup_idempotent(ds4, [0, 3])  # {e, x} with x of order > 2


# -- wave-function collapse ----------------------------------------------------------


def test_collapse_probe_haar_clean(kp, ds4):
    for G in (kp, ds4):
        report = collapse_stability_probe(G, G.haar)
        assert report.stable


def test_collapse_probe_classical_quotient_clean(morphisms):
    cs3 = classical_group(permgroups.symmetric_group(3))
    # quotient C(S_3) -> C(S_2): restriction of functions to the subgroup
    # {e, (12)}; the face of its indicator has the pulled-back Haar state
    s2 = classical_group(permgroups.symmetric_group(2))
    M = np.zeros((2, 6))
    M[0, cs3.group_elements.index(permgroups.identity_perm(3))] = 1.0
    M[1, cs3.group_elements.index(permgroups.from_cycles(3, (0, 1)))] = 1.0
    pi = morphisms.QuantumGroupMorphism(cs3, s2, M)
    psi = face_idempotent(cs3, Projection(cs3.algebra, M.sum(axis=0)))
    assert psi.distance(morphisms.haar_idempotent(pi)) < 1e-12
    report = collapse_stability_probe(cs3, psi)
    assert report.stable


def test_collapse_probe_reuses_one_sandwich_stack(kp, ds4):
    # the (N^2, d, d) stack of magic sandwiches is built once per group, the
    # same bytes as one sandwich per entry, and a probe reads the same
    # residuals from it on a first and a later call
    for G in (kp, ds4):
        G.__dict__.pop("_magic_sandwiches", None)
        first = collapse_stability_probe(G, G.counit)
        stack = G._magic_sandwiches
        assert collapse_stability_probe(G, G.counit) == first
        assert G._magic_sandwiches is stack
        for (i, j), S in zip(np.ndindex(G.N, G.N), stack):
            assert S.tobytes() == _sandwich_matrix(G, G.magic[i, j]).tobytes()


def test_collapse_probe_corner_idempotent_violates(kp):
    e11 = State(kp.algebra, np.eye(8)[4])
    corner = cesaro_idempotent(kp, e11).limit
    assert classify_idempotent(kp, corner).kind == "NonHaar"
    assert is_group_like(kp, support_projection(corner))
    report = collapse_stability_probe(kp, corner)
    assert len(report.violations) >= 1


def test_collapse_probe_nonnormal_dual_violates(ds4):
    t12 = ds4.group.perms.index(permgroups.from_cycles(4, (0, 1)))
    psi = dual_subgroup_idempotent(ds4, sorted(ds4.group.generated_by([t12])))
    assert classify_idempotent(ds4, psi).kind == "NonHaar"
    report = collapse_stability_probe(ds4, psi)
    assert len(report.violations) >= 1


def test_collapse_probe_matches_per_member_oracle(kp, ds4, cs4, collapse_probe_oracle):
    # the library certifies collapse stability on the span of all members;
    # on the criterion-8 census and on stabiliser idempotents it must give
    # the verdict and the violated entries that sampled members give
    inputs = list(_criterion8_census(kp, ds4))
    for G in (kp, dual_symmetric_group(3), ds4, cs4, dual_dihedral(4), dual_dihedral(6)):
        for partition in ([[0], list(range(1, G.N))], [[i] for i in range(G.N)]):
            inputs.append((G, stabiliser_idempotent(G, partition)))
    assert len(inputs) == 27
    for G, psi in inputs:
        got = collapse_stability_probe(G, psi)
        ref = collapse_probe_oracle(G, psi, 8, 12)
        assert got.stable == ref.stable, G.name
        assert {v[0] for v in got.violations} == {v[0] for v in ref.violations}, G.name


def test_collapse_probe_spans_the_support(kp, ds4):
    # members_tested is the rank of the sandwich by supp psi: every
    # functional on pAp, not psi alone
    assert collapse_stability_probe(kp, kp.haar).members_tested == 8
    assert collapse_stability_probe(ds4, ds4.haar).members_tested == 24
    assert collapse_stability_probe(kp, kp.counit).members_tested == 1


def test_collapse_probe_rejects_non_idempotent(kp):
    e11 = State(kp.algebra, np.eye(8)[4])
    assert not is_idempotent(kp, e11)
    with pytest.raises(AlgebraError, match="idempotent"):
        collapse_stability_probe(kp, e11)


def test_noncentral_diagonal_equivalences(ds4, in_centre):
    # u_00 on the dual of S_4 is non-central, so the conditioned Haar state
    # h_0 is a non-Haar idempotent whose quasi-subgroup is collapse-unstable,
    # and it is the invariant idempotent of the {0}-stabiliser
    assert not in_centre(ds4, ds4.magic[0, 0])
    h0 = condition(ds4, ds4.haar, ds4.magic_projection(0, 0))
    assert is_idempotent(ds4, h0)
    assert classify_idempotent(ds4, h0).kind == "NonHaar"
    assert is_group_like(ds4, support_projection(h0))
    report = collapse_stability_probe(ds4, h0)
    assert len(report.violations) >= 1
    psi = stabiliser_idempotent(ds4, [[0], [1, 2, 3, 4]])
    assert psi.distance(h0) < 1e-8


# -- structural propositions ----------------------------------------------------------


def test_convolution_preserves_group_like_support(kp):
    # states supported on a group-like projection convolve to one
    p = kp.magic_projection(0, 0)
    assert is_group_like(kp, p)
    members = []
    Lp = kp.algebra.left_mult_matrix(p.coeffs)
    for k in range(6):
        rng = np.random.default_rng(100 + k)
        x = Lp @ (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        members.append(kp.vector_state(x))
    for phi in members:
        assert abs(phi(p) - 1) < 1e-10
        for rho in members:
            assert abs(kp.convolve(phi, rho)(p) - 1) < 1e-9


def test_conditioned_haar_membership_iff_full_mass(kp, absorbs):
    # for group-like p with h(p) > 0 and psi = condition(h, p):
    # membership in the quasi-subgroup of psi is exactly phi(p) = 1
    p = kp.magic_projection(1, 1)
    psi = condition(kp, kp.haar, p)
    Lp = kp.algebra.left_mult_matrix(p.coeffs)
    for k in range(12):
        rng = np.random.default_rng(200 + k)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        inside = kp.vector_state(Lp @ x)
        assert absorbs(kp, psi, inside)
        outside = kp.vector_state(x)
        member = absorbs(kp, psi, outside)
        assert member == (abs(outside(p) - 1) < 1e-7)


def test_members_live_on_group_like_support(kp, absorbs):
    # idempotent with group-like support: every member gives the support mass 1
    e11 = State(kp.algebra, np.eye(8)[4])
    psi = cesaro_idempotent(kp, e11).limit
    p = support_projection(psi)
    assert is_group_like(kp, p)
    for phi in [psi, kp.convolve(psi, psi)]:
        assert abs(phi(p) - 1) < 1e-9
    for phi in kp.sample_states(20, seed=17):
        if absorbs(kp, psi, phi):
            assert abs(phi(p) - 1) < 1e-6


def test_dominated_functional_absorption(kp):
    # 0 <= rho <= phi and phi * psi = psi imply rho * psi = rho(1) psi
    psi = kp.haar
    phi = kp.sample_states(1, seed=23)[0]
    q = kp.magic_projection(2, 2)
    sandwich = np.einsum("ijk,j->ik", kp.algebra.mult, q.coeffs, optimize=True)
    sandwich = np.einsum("a,ik,akl->il", q.coeffs, sandwich, kp.algebra.mult,
                         optimize=True)
    rho_duals = sandwich @ phi.duals      # rho = phi(q . q), subordinate to phi
    rho_mass = rho_duals @ kp.algebra.unit
    conv = np.einsum("iab,a,b->i", kp.delta, rho_duals, psi.duals)
    assert np.abs(conv - rho_mass * psi.duals).max() < 1e-10


def test_idempotents_are_reverse_invariant(kp, ds4, cs4):
    # every idempotent found here satisfies phi o S = phi
    found = [kp.haar, kp.counit,
             cesaro_idempotent(kp, State(kp.algebra, np.eye(8)[4])).limit,
             condition(kp, kp.haar, kp.magic_projection(0, 0)),
             ds4.haar, cs4.haar]
    t12 = ds4.group.perms.index(permgroups.from_cycles(4, (0, 1)))
    found.append(dual_subgroup_idempotent(
        ds4, sorted(ds4.group.generated_by([t12]))))
    homes = [kp, kp, kp, kp, ds4, cs4, ds4]
    for psi, G in zip(found, homes):
        assert G.reverse(psi).distance(psi) < 1e-9


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_census_matches_per_seed_oracle(experiment_oracles, name):
    G = BUILTIN_GROUPS[name]()
    extra = [G.counit, G.haar, State(G.algebra, G.algebra.trace)]
    got = idempotent_census(G, 8, seed=11, extra_seeds=extra)
    want = experiment_oracles.census(G, 8, 11, extra)
    assert len(got) == len(want) == 11
    for res, ref in zip(got, want):
        assert res.limit.distance(ref.limit) <= 1e-12
        assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    one = cesaro_idempotent(G, extra[2])
    assert np.array_equal(one.limit.duals, got[2].limit.duals)
    assert (one.iterations, one.residual, one.converged) \
        == (got[2].iterations, got[2].residual, got[2].converged)
    assert idempotent_census(G, 0) == []


def test_census_converges(kp):
    results = idempotent_census(kp, 6, seed=40)
    assert all(r.converged for r in results)
    for r in results:
        assert is_idempotent(kp, r.limit)
        # idempotents are antipode-invariant
        assert kp.reverse(r.limit).distance(r.limit) < 1e-8
