"""Property tests on generated groups: the face idempotent of every subgroup.

Groups are generated by one or two random permutations of at most four
points, as functions on the group and as its dual; their structure arrays
are checked entry for entry against the per-entry constructor loops.  On C(G) the face of the
indicator of a subgroup H is the set of measures on H, and its idempotent
is the uniform measure on H; on C*(G) the face of |H|^-1 sum_h lambda_h is
the set of states equal to 1 on H, and its idempotent is the indicator of
H.  On C(G) the face of a subset that is not a subgroup is not closed
under convolution.

The idempotent generated by point masses at a set X of elements of G is the
uniform measure on the subgroup X generates (Kawada-Ito); on C*(G), where
convolution is pointwise, the one generated by the indicators of H and K is
the indicator of their intersection.

The generation check on the magic entries, which grows their span one
word length a round through one right-multiplication operator, decides as
sparse word growth and span squaring do, on the generated groups and on
every builtin, dual-D20 and a sub-grid that does not generate, and on that
sub-grid and dual-D6 in rescaled and complex bases.

The direct summands of each generated group's algebra, the union-find
components of its non-zeros, are one point each on C(G) and one summand on
C*(G) in the group basis, with the same sizes after a relabelling of the
basis, and the dense form is zero between them; the block frame of the
positivity check has clusters of size 1 on C(G).  The positivity check,
which runs in that frame, gives the dense kernel's mask on bank states, on
rows shifted by the trace to singular and to just past it either way, and
on non-Hermitian and NaN rows, in both labellings.

On each generated group the Haar state, the regular trace, is checked
against the invariance SVD.  The regular trace is not the algebra's trace,
which may be any faithful trace: C(S_3) with a skewed one keeps the uniform
Haar state.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm import permgroups
from qperm.algebra import AlgebraError, Projection, StarAlgebra, _positive_rows
from qperm.cli import BUILTIN_GROUPS
from qperm.cqg import (
    CompactQuantumGroup,
    classical_group,
    dual_dihedral,
    dual_group,
    uniform_state,
)
from qperm.idempotent import dual_subgroup_idempotent, face_idempotent, generated_idempotent

from conftest import complex_basis, in_basis

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def generators(draw):
    """One or two permutations of n <= 4 points."""
    n = draw(st.integers(1, 4))
    return [tuple(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 2)))]


def indicator(G, subset):
    """Coefficients of sum_{s in subset} e_s."""
    r = np.zeros(G.dim)
    r[sorted(subset)] = 1.0
    return r


@PROPERTY
@given(generators())
def test_subgroup_faces_of_a_generated_classical_group(haar_oracle, gens):
    G = classical_group(permgroups.closure(gens))
    assert np.abs(G.haar.duals - haar_oracle(G.algebra, G.delta).duals).max() < 1e-12
    for sub in G.group.subgroups():
        psi = face_idempotent(G, Projection(G.algebra, indicator(G, sub)))
        expect = uniform_state(G, [G.group_elements[i] for i in sub])
        assert psi.distance(expect) < 1e-12, sorted(sub)


@PROPERTY
@given(generators())
def test_subgroup_faces_of_a_generated_dual_group(haar_oracle, gens):
    group = permgroups.FiniteGroup.from_permutations(permgroups.closure(gens))
    index = [group.perms.index(g) for g in gens]
    G = dual_group(group, [(i, group.element_order(i)) for i in index])
    assert np.abs(G.haar.duals - haar_oracle(G.algebra, G.delta).duals).max() < 1e-12
    for sub in group.subgroups():
        r = Projection(G.algebra, indicator(G, sub) / len(sub))
        assert np.abs(face_idempotent(G, r).duals - indicator(G, sub)).max() < 1e-12, sorted(sub)


@PROPERTY
@given(generators(), st.data())
def test_non_subgroup_faces_of_a_generated_classical_group_are_not_closed(gens, data):
    # a non-empty subset S of a finite group with S S in S is a subgroup, so
    # the face of any other subset puts mass off S under convolution
    G = classical_group(permgroups.closure(gens))
    subset = data.draw(st.sets(st.integers(0, G.dim - 1), min_size=1))
    r = Projection(G.algebra, indicator(G, subset))
    if G.group.is_subgroup(subset):
        expect = uniform_state(G, [G.group_elements[i] for i in subset])
        assert face_idempotent(G, r).distance(expect) < 1e-12
    else:
        with pytest.raises(AlgebraError, match="not closed under convolution"):
            face_idempotent(G, r)


@PROPERTY
@given(generators(), st.data())
def test_point_masses_generate_the_uniform_measure_on_their_subgroup(gens, data):
    G = classical_group(permgroups.closure(gens))
    X = data.draw(st.lists(st.integers(0, G.dim - 1), min_size=1, max_size=3))
    res = generated_idempotent(G, [uniform_state(G, [G.group_elements[i]]) for i in X])
    expect = uniform_state(G, [G.group_elements[i] for i in G.group.generated_by(X)])
    assert res.converged and res.limit.distance(expect) < 1e-12, X


@PROPERTY
@given(generators(), st.data())
def test_subgroup_indicators_generate_the_indicator_of_their_intersection(gens, data):
    group = permgroups.FiniteGroup.from_permutations(permgroups.closure(gens))
    index = [group.perms.index(g) for g in gens]
    G = dual_group(group, [(i, group.element_order(i)) for i in index])
    H, K = (data.draw(st.sampled_from(group.subgroups())) for _ in range(2))
    res = generated_idempotent(G, [dual_subgroup_idempotent(G, H), dual_subgroup_idempotent(G, K)])
    assert res.converged
    assert np.abs(res.limit.duals - indicator(G, H & K)).max() < 1e-12, (sorted(H), sorted(K))


@PROPERTY
@given(generators())
def test_generated_group_laws_match_the_loop_constructors(group_law_oracle, gens):
    perms = permgroups.closure(gens)
    group = permgroups.FiniteGroup.from_permutations(perms)
    index = [group.perms.index(g) for g in gens]
    assert group_law_oracle(classical_group(perms)) == []
    assert group_law_oracle(dual_group(group, [(i, group.element_order(i)) for i in index])) == []


def test_generation_matches_word_growth(generation_oracle, squaring_oracle):
    # word growth against sparse word growth and span squaring: every
    # builtin; dual-D20, whose entries need words of length 20 (20 word
    # rounds, 5 squaring rounds); one reflection block of dual-D6, a magic
    # unitary whose entries do not generate; the generated groups, as
    # functions and as duals; and that block and dual-D6 in uniformly
    # rescaled bases and in rescaled complex ones, where rounding scales with
    # the products (without scaling the right-multiplication operator, the
    # rank cut finds the block generating in 1e6 times the complex basis)
    def agree(G):
        got = G._entries_generate()
        assert got == generation_oracle(G) == squaring_oracle(G), G.name
        return got

    assert all(agree(build()) for build in BUILTIN_GROUPS.values())
    assert agree(dual_dihedral(20))
    d6 = dual_dihedral(6)
    grid = CompactQuantumGroup("sub", d6.algebra, d6.delta, d6.counit, d6.antipode,
                               d6.magic[:2, :2], check=False)
    assert not agree(grid)
    for G, generates in [(grid, False), (d6, True)]:
        for B in [*(c * np.eye(G.dim) for c in (1e-5, 1e-3, 1e3, 1e5)),
                  *(c * complex_basis(G, 3) for c in (1e-6, 1.0, 1e6))]:
            assert agree(in_basis(G, B)) == generates

    @PROPERTY
    @given(generators())
    def generated(gens):
        perms = permgroups.closure(gens)
        group = permgroups.FiniteGroup.from_permutations(perms)
        index = [group.perms.index(g) for g in gens]
        assert agree(classical_group(perms))
        assert agree(dual_group(group, [(i, group.element_order(i)) for i in index]))

    generated()


def test_haar_state_ignores_a_skewed_trace():
    # C(S_3) with the faithful trace weights 1..6 is a valid group; its Haar
    # state is still uniform, so the solver must not start from this trace
    cs3 = classical_group(permgroups.symmetric_group(3))
    alg = cs3.algebra
    skewed = StarAlgebra(alg.labels, alg.mult, alg.involution, alg.unit, np.arange(1.0, 7.0))
    G = CompactQuantumGroup("skewed-s3", skewed, cs3.delta, cs3.counit.duals, cs3.antipode,
                            cs3.magic)
    assert np.abs(G.haar.duals - 1 / 6).max() < 1e-15


def generated_group(gens, kind):
    """The group the permutations generate, as functions or as its dual."""
    perms = permgroups.closure(gens)
    if kind == "classical":
        return classical_group(perms)
    group = permgroups.FiniteGroup.from_permutations(perms)
    return dual_group(group, [(i, group.element_order(i)) for i in
                              (group.perms.index(g) for g in gens)])


def relabelled(alg, perm):
    """The algebra in the basis e_perm[0], e_perm[1], ..., unchecked."""
    return StarAlgebra([alg.labels[i] for i in perm], alg.mult[np.ix_(perm, perm, perm)],
                       alg.involution[np.ix_(perm, perm)], alg.unit[perm], alg.trace[perm],
                       check=False)


def probe_rows(G):
    """Bank states; each shifted by t tau to t = t*, where its sesquilinear
    matrix H - t Gram turns singular, and to t* -+ 1e-3; a non-Hermitian
    row and a NaN row."""
    alg = G.algebra
    bank = G._state_bank(6, 11)
    L = np.linalg.cholesky(alg.gram)
    rows = list(bank)
    for phi in bank[:3]:
        P = alg.involution @ (alg.mult @ phi)
        W = np.linalg.solve(L, np.linalg.solve(L, (P + P.conj().T) / 2).conj().T)
        t = np.linalg.eigvalsh((W + W.conj().T) / 2)[0]
        rows += [phi - (t + dt) * alg.trace for dt in (-1e-3, 0.0, 1e-3)]
    rows.append((1 + 0.1j) * bank[0])
    rows.append(np.full(G.dim, np.nan))
    return np.array(rows)


@PROPERTY
@given(generators(), st.sampled_from(["classical", "dual"]), st.randoms(use_true_random=False))
def test_positivity_per_summand_on_generated_groups(summand_oracle, sesquilinear_oracle,
                                                     kernel_oracles, gens, kind, rnd):
    G = generated_group(gens, kind)
    alg, d = G.algebra, G.dim
    sizes = [1] * d if kind == "classical" else [d]
    perm = np.array(rnd.sample(range(d), d))
    D = probe_rows(G)
    for a, rows in ((alg, D), (relabelled(alg, perm), D[:, perm])):
        parts = summand_oracle(a)
        assert sorted(len(p) for p in parts) == sizes
        part = np.empty(d, dtype=int)
        for b, p in enumerate(parts):
            part[p] = b
        form = sesquilinear_oracle(a).reshape(d, d, d)
        assert not form[:, part[:, np.newaxis] != part].any()
        if kind == "classical":
            assert [s for s, _ in a._frame] == [1]
        for tol in (a.tol, 100 * a.tol):
            got = _positive_rows(a, rows, tol)
            assert np.array_equal(got, kernel_oracles.positive_rows(a, rows, tol)), tol
            assert got[:6].all() and not got[-2:].any(), tol

