"""Oracle for the contraction kernels.

Each per-call kernel is a fixed matmul/reshape expression; here it is
compared with the ``np.einsum`` expression that states its index meaning, on
every CLI builtin and on seeded random coefficient vectors.  The Hopf-axiom
residuals, which the library contracts sparsely, are compared with the dense
einsums in the same way, on the builtins and on dense perturbations.  The
group-likeness norm, which the library takes as a (d, d) Gram form, is
compared with the norm in the tensor square's dense (d^2, d^2) Gram matrix.
``meet``, which the library takes as one spectral projection of L of the
mean of the inputs, is compared with the limit of alternating products and
with the spectral projection of the mean of the L_p, each taken into the
trace frame on its own.  The
classical version, which the library reads off the centre, is compared with
the commutator-ideal route with meets of magic entries as supports, also in
a complex basis, and its Haar fraction h(p_Q) with the closed form
1 - |G| / dim.  The Haar state, the regular trace, is compared with the
invariance SVD and with the trace-seeded Cesaro limit that it replaced.  The
face idempotent, the conditioned Haar state behind the stabiliser,
dual-subgroup and p_C idempotents, is compared with that Cesaro limit on
each face, the hand-built indicator and the pulled-back Haar state of the
abelianization; it is checked to absorb sampled members of its face, and to
agree with itself in a complex basis.  The state
bank, which the library builds in blocks, is compared with the bank built
one sample at a time, and byte for byte with the bank seeded through one
SeedSequence per sample; the vectorised seed words with SeedSequence's own.
The bounds sampler, which the library works as
stacks of pairs, is compared with the sampler one pair at a time.  The
stacked Cholesky positivity check, which the library runs in a block
frame of eigenvalue clusters and, near the tolerance, on the dense form, is
compared with the smallest eigenvalue of each row's sesquilinear matrix, in
the builtin basis and a complex one, rows just past the tolerance either
way taking the dense form; the frame's cluster sizes are pinned, and only
a stacked check builds it; the direct summands, the union-find components
of the non-zeros, split the dense form, also after a relabelling of the
basis; and rows negative on one summand only are rejected.  The generated idempotent, which the
library takes as the one Cesaro limit of the inputs' mean, is compared with
the rounds of per-input limits, convolutions and membership tests it
replaced, and the stacked convolution powers behind ``trajectory`` and
``detect_period`` with one convolution per step.  The hot kernels are
compared with their earlier forms: the sort-and-count duplicate sums with
``np.add.at`` bit for bit, the positivity check in the block frame with the
unfolded dense one (in the builtin, a relabelled and a complex basis), the Cesaro projector (the kernel/range projector of
I - T from one SVD) with the sorted Schur form and ``solve_sylvester``,
also on defective, rotating and non-normal operators, the pair-kernel
``validate`` residuals with their einsums, each identity summed a block of
its output's leading index at a time with both sides formed whole, bit for
bit (on the builtins, in a complex basis and perturbed), and the row space of a tall stack, taken through its R factor, with the SVD of the
whole stack.  The Haar / non-Haar classifier, which the library decides by
whether the null space is closed under the star, is compared with the test
of the null space for a two-sided ideal one basis element at a time, on the
counit, Haar, stabiliser, dual-subgroup and census idempotents, and in a
complex basis; its sesquilinear matrix with the one read from the dense
(d, d^2) form it replaced.
"""
import dataclasses
import json

import numpy as np
import pytest
from scipy.optimize import brentq

from qperm import algebra, cqg, permgroups
from qperm.algebra import (
    AlgebraError,
    LinearFunctional,
    Projection,
    StarAlgebra,
    State,
    _positive_rows,
    _state_rows,
    _summed,
    gram_norm,
    meet,
    spectral_projection,
    support_projection,
)
from qperm.cli import BUILTIN_GROUPS
from qperm.cqg import (
    CompactQuantumGroup,
    _row_space,
    _spawn_words,
    _words_seed_sequence,
    birkhoff_matrix,
    characters,
    dual_group,
    uniform_state,
)
from qperm.dynamics import detect_period, trajectory, verify_bounds_empirically
from qperm.idempotent import (
    _cesaro_projector,
    _group_like_residual,
    _sandwich_matrix,
    cesaro_idempotent,
    classify_idempotent,
    condition,
    dual_subgroup_idempotent,
    face_idempotent,
    generated_idempotent,
    idempotent_census,
    is_group_like,
    left_convolution_operator,
)
from qperm.permutation import (
    _slice_permutations,
    _slices,
    classical_version,
    projection_rank,
    quantum_fraction,
    stabiliser_idempotent,
    stabiliser_projection,
)

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


def test_algebra_kernels(G, sesquilinear_oracle):
    alg = G.algebra
    for seed in range(3):
        a, b = random_vectors(G, 2, seed)
        assert_matches(alg.product_coeffs(a, b),
                       np.einsum("ijk,i,j->k", alg.mult, a, b))
        assert_matches(alg.left_mult_matrix(a),
                       np.einsum("i,ikj->kj", a, alg.regular))
        assert_matches((b @ sesquilinear_oracle(alg)).reshape(alg.dim, alg.dim),
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


def test_sample_states_match_per_sample_oracle(G, sample_states_oracle, force_block):
    # the library builds the bank a block of samples at a time, here forced
    # to 8; whatever the block boundaries, it must equal the bank built one
    # sample at a time, and no samples give an empty bank
    b = force_block(G.dim, 8)
    for seed in (3, 11):
        ref = np.array([phi.duals for phi in sample_states_oracle(G, 4 * b + 1, seed)])
        for n in (0, 1, b, b + 1, 4 * b + 1):
            bank = G.sample_states(n, seed)
            assert len(bank) == n
            got = np.array([phi.duals for phi in bank]).reshape(n, G.dim)
            assert np.abs(got - ref[:n]).max(initial=0.0) <= 1e-14, (seed, n)


def test_state_bank_matches_seed_sequence_oracle(G, state_bank_oracle, force_block):
    # the seed words computed for a whole block at once against one
    # SeedSequence per sample: the bank is the same bytes, across forced
    # block boundaries and for seeds of 1, 3 and 7 words
    b = force_block(G.dim, 8)
    for seed in (0, 7, 2 ** 64 + 5, 2 ** 200 + 12345):
        for n in (0, 1, b, b + 1):
            got, ref = G._state_bank(n, seed), state_bank_oracle(G, n, seed)
            assert got.shape == ref.shape == (n, G.dim)
            assert got.tobytes() == ref.tobytes(), (seed, n)


@pytest.mark.parametrize("words, seeds", [
    (1, [0, 7, 2 ** 32 - 1]),
    (2, [2 ** 32, 2 ** 64 - 1]),
    (4, [2 ** 96 + 3, 2 ** 127, 2 ** 128 - 1]),
    (5, [2 ** 128, 2 ** 128 + 9]),
    (7, [2 ** 200 + 12345]),
])
def test_spawn_words_match_seed_sequence(words, seeds):
    # seeds of 1 to 7 uint32 words (the pool holds 4: shorter seeds are
    # padded, longer ones mixed in after it), spawn keys at both ends of one
    # uint32 word and in between
    ks = [0, 1, 2, 3, 1000, 2 ** 31, 2 ** 32 - 1]
    for seed in seeds:
        assert max(1, -(-seed.bit_length() // 32)) == words
        got = _spawn_words(seed, np.array(ks))
        for k, row in zip(ks, got):
            ref = np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
            assert row.dtype == ref.dtype and np.array_equal(row, ref), (seed, k)


def test_seed_words_refuse_any_other_request():
    # PCG64 seeds itself from the memory of the 4 uint64 words it asks for,
    # so a request for any other count or type must not be handed them
    words = _words_seed_sequence()(_spawn_words(3, np.arange(1))[0])
    assert np.array_equal(words.generate_state(4, np.uint64),
                          np.random.SeedSequence(3, spawn_key=(0,)).generate_state(4, np.uint64))
    for request in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="seed words are 4 uint64"):
            words.generate_state(*request)


def test_bounds_sampler_matches_per_pair_oracle(G, bounds_oracle, force_block):
    # fewer than, exactly and more than the 8 decomposed pairs; with blocks
    # forced to 4 rows, the bank and the convolutions of every batch of 7 or
    # more pairs cross block boundaries and end in a partial block
    cv = classical_version(G)
    force_block(G.dim, 4)
    for seed in (3, 11):
        for n in (1, 7, 8, 17):
            ref, violations = bounds_oracle(G, cv, n, seed)
            assert not violations
            report = verify_bounds_empirically(G, cv, n_samples=n, seed=seed)
            assert report.samples.shape == ref.shape, (seed, n)
            assert np.abs(report.samples - ref).max() <= 1e-14, (seed, n)


def test_bounds_sampler_reports_the_oracles_first_violation(bounds_oracle):
    # with p_C and p_Q swapped, classical pairs convolve to quantum mass
    G = BUILTIN_GROUPS["kp"]()
    cv = classical_version(G)
    swapped = dataclasses.replace(cv, p_C=cv.p_Q, p_Q=cv.p_C, S_C=cv.S_Q, S_Q=cv.S_C)
    # the report holds every violating pair's witness, in pair order
    rows, violations = bounds_oracle(G, swapped, 17, 3)
    assert violations
    report = verify_bounds_empirically(G, swapped, n_samples=17, seed=3)
    assert not report.ok
    assert len(report.violations) == len(violations)
    for witness, (reason, phi, rho) in zip(report.violations, violations):
        assert witness["reason"] == reason
        json.dumps(witness)  # a witness is plain JSON
        for key, ref in (("phi", phi), ("rho", rho)):
            got = np.array(witness[key]) @ [1, 1j]
            assert np.abs(got - ref).max() <= 1e-14, key
    assert np.abs(report.samples - rows).max() <= 1e-14


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


def alternating_meet(alg, ps):
    """Rank and coefficients of the limit of (L_p1 ... L_pn)^(2^k).

    In the trace-orthonormal frame the powers of the product converge to the
    orthogonal projection onto the common fixed space; the squaring must
    become stationary, and the limit is snapped to its eigenvalues above 1/2.
    """
    frames = [alg.to_hermitian_frame(alg.left_mult_matrix(p.coeffs)) for p in ps]
    T = frames[0]
    for F in frames[1:]:
        T = T @ F
    for _ in range(60):
        T2 = T @ T
        stationary = np.abs(T2 - T).max() < 1e-13
        T = T2
        if stationary:
            break
    assert stationary
    evals, U = np.linalg.eigh((T + T.conj().T) / 2)
    V = U[:, evals > 0.5]
    if V.shape[1] == 0:
        return 0, np.zeros(alg.dim)
    return V.shape[1], alg.matrix_to_coeffs(alg.from_hermitian_frame(V @ V.conj().T))


def set_partitions(items):
    if not items:
        yield []
        return
    for part in set_partitions(items[1:]):
        for k in range(len(part)):
            yield part[:k] + [[items[0]] + part[k]] + part[k + 1:]
        yield [[items[0]]] + part


def off_pattern_complements(G, part):
    """1 - u_ij for every i and j in different blocks of the partition."""
    block = {x: b for b, xs in enumerate(part) for x in xs}
    return [G.algebra.element(G.algebra.unit - G.magic[i, j])
            for i in range(G.N) for j in range(G.N) if block[i] != block[j]]


def test_meet_matches_alternating_products(G):
    # the families the library meets: each character's magic entries, every
    # pair of diagonal entries (the dihedral sweep's u_11, u_33 among them),
    # and the off-pattern complements of every stabiliser partition
    alg = G.algebra
    cases = []
    for sigma in classical_version(G).permutations:
        ps = [G.magic_projection(sigma[j], j) for j in range(G.N)]
        cases.append((ps, meet(ps)))
    for i in range(G.N):
        for j in range(i + 1, G.N):
            ps = [G.magic_projection(i, i), G.magic_projection(j, j)]
            cases.append((ps, meet(ps)))
    for part in set_partitions(list(range(G.N))):
        ps = off_pattern_complements(G, part)
        if ps:
            cases.append((ps, stabiliser_projection(G, part)))
    for ps, r in cases:
        rank, coeffs = alternating_meet(alg, ps)
        assert projection_rank(r) == rank
        assert_matches(r.coeffs, coeffs)


@pytest.mark.parametrize("name", ["kp", "s4", "dual-s4"])
def test_stabiliser_meets_match_mean_of_frames_oracle(name, meet_oracle):
    G = BUILTIN_GROUPS[name]()
    for part in set_partitions(list(range(G.N))):
        ps = off_pattern_complements(G, part)
        if ps:
            assert_matches(stabiliser_projection(G, part).coeffs, meet_oracle(ps))


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_meet_matches_mean_of_frames_oracle(m, meet_oracle):
    # the dihedral sweep's meet of u_11 and u_33
    G = BUILTIN_GROUPS[f"dual-d{m}"]()
    ps = [G.magic_projection(0, 0), G.magic_projection(2, 2)]
    assert_matches(meet(ps).coeffs, meet_oracle(ps))


def stabiliser_cases(G):
    """(partition, r): every set partition on kp and dual-S4, the
    single-point partitions {j} | rest, where r = u_jj, everywhere."""
    labels = list(range(G.N))
    if G.name in ("kac-paljutkin", "dual-S4"):
        return [(part, stabiliser_projection(G, part)) for part in set_partitions(labels)]
    return [([b for b in ([j], [k for k in labels if k != j]) if b], G.magic_projection(j, j))
            for j in labels]


def test_stabiliser_idempotent_absorbs_sampled_members(G, member_bank, absorbs):
    # psi must absorb the counit and 24 sampled states on the face of r, on
    # both sides, within 1e-12 (the face route's certificate allows 10 ITER_TOL)
    for part, r in stabiliser_cases(G):
        psi = stabiliser_idempotent(G, part)
        members = member_bank(G, r, 24, 0)
        assert len(members) == 25, part
        for phi in members:
            assert absorbs(G, psi, phi, 1e-12), part


def test_haar_face_matches_invariance_oracle(G, haar_oracle, face_oracle):
    # the regular trace against the removed routes: the invariance system's
    # SVD and lstsq, and the trace-seeded Cesaro limit on the face of r = 1
    ref = haar_oracle(G.algebra, G.delta).duals
    assert np.abs(G.haar.duals - ref).max() <= 1e-12
    assert np.abs(face_oracle(G, G.algebra.element(G.algebra.unit)).duals - ref).max() <= 1e-12


def test_stabiliser_face_matches_haar_seeded_oracle(G, face_oracle):
    # against the removed route, the Cesaro limit of the trace conditioned on
    # the stabiliser projection (the name is from when the seed was Haar)
    for part, _ in stabiliser_cases(G):
        ref = face_oracle(G, stabiliser_projection(G, part)).duals
        assert np.abs(stabiliser_idempotent(G, part).duals - ref).max() <= 1e-12, part


@pytest.mark.parametrize("name", sorted(n for n in BUILTIN_GROUPS if n.startswith("dual-")))
def test_dual_subgroup_faces_match_indicator_oracle(name, dual_indicator_oracle, face_oracle):
    # every subgroup face of every dual builtin against the written-down
    # indicator and the trace-seeded Cesaro limit
    G = BUILTIN_GROUPS[name]()
    for sub in G.group.subgroups():
        ref = dual_indicator_oracle(G, sub).duals
        psi = dual_subgroup_idempotent(G, sub).duals
        assert np.abs(psi - ref).max() <= 1e-12, sorted(sub)
        r = np.zeros(G.dim)
        r[sorted(sub)] = 1 / len(sub)
        assert np.abs(face_oracle(G, Projection(G.algebra, r)).duals - ref).max() <= 1e-12


def test_p_c_face_matches_quotient_oracle(G, morphisms, face_oracle):
    # against the removed routes: the Haar state of the classical version,
    # pulled back through the abelianization, and the trace-seeded Cesaro limit
    ref = morphisms.haar_idempotent(morphisms.abelianization(G)).duals
    p_C = classical_version(G).p_C
    assert np.abs(face_idempotent(G, p_C).duals - ref).max() <= 1e-12
    assert np.abs(face_oracle(G, p_C).duals - ref).max() <= 1e-12


def classification_cases(G):
    """Idempotents of G: the counit and the Haar state; every stabiliser
    idempotent on kp, S4 and dual-S4; every dual-subgroup idempotent on
    dual-S3, dual-S4 and dual-D4..D6; the seed-0 census limits on kp and
    dual-S4; and on kp the Cesaro limits of the basis functionals that are
    states."""
    cases = [G.counit, G.haar]
    if G.name in ("kac-paljutkin", "s4", "dual-S4"):
        cases += [stabiliser_idempotent(G, part) for part in set_partitions(list(range(G.N)))]
    if G.name in ("dual-S3", "dual-S4", "dual-D4", "dual-D5", "dual-D6"):
        cases += [dual_subgroup_idempotent(G, sub) for sub in G.group.subgroups()]
    if G.name in ("kac-paljutkin", "dual-S4"):
        cases += [res.limit for res in idempotent_census(G, 50, seed=0,
                                                         extra_seeds=[G.counit, G.haar])]
    if G.name == "kac-paljutkin":
        eye = np.eye(G.dim)
        cases += [cesaro_idempotent(G, State(G.algebra, row)).limit
                  for row in eye[_state_rows(G.algebra, eye)]]
    return cases


def test_classify_matches_basis_loop_oracle(G, classify_oracle):
    # the star-closure test against the per-basis two-sided-ideal test it
    # replaced, with the residual's gap between the classes
    for psi in classification_cases(G):
        cls = classify_idempotent(G, psi)
        assert (cls.kind, cls.null_space_dim) == classify_oracle(G, psi)
        if cls.kind == "Haar":
            assert cls.residual <= 1e-12
        else:
            assert cls.residual >= 1e-2


def test_classify_matches_the_dense_form_route(G, classify_dense_form_oracle):
    # phi(e_i^* e_j) as involution @ (mult @ phi) against the cached dense
    # (d, d^2) form it replaced: the same class and null dimension, and
    # residuals that agree to rounding
    for psi in classification_cases(G):
        cls = classify_idempotent(G, psi)
        kind, null_dim, residual = classify_dense_form_oracle(G, psi)
        assert (cls.kind, cls.null_space_dim) == (kind, null_dim)
        assert abs(cls.residual - residual) <= 1e-12


def test_classify_builds_no_dense_form_on_a_split_algebra():
    # C(S4) splits into 24 points, so its state checks never need the dense
    # (d, d^2) sesquilinear form, and classifying must not build it: the
    # only cached form is the block frame's, 24 clusters of size 1
    G = BUILTIN_GROUPS["s4"]()
    for psi in classification_cases(G):
        classify_idempotent(G, psi)
    assert [K.shape for _, K in G.algebra._frame] == [(G.dim, G.dim)]


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp"])
def test_classify_in_a_complex_basis(name):
    # the null space and its star closure are basis-free: in a complex,
    # non-orthogonal basis B psi has the class and null dimension of psi
    G = BUILTIN_GROUPS[name]()
    B = complex_basis(G, 11)
    H = in_basis(G, B)
    for psi in classification_cases(G):
        got = classify_idempotent(H, State(H.algebra, B @ psi.duals, check=False))
        ref = classify_idempotent(G, psi)
        assert (got.kind, got.null_space_dim) == (ref.kind, ref.null_space_dim)


def state_pool(G):
    """The counit, the basis functionals that are states (at most three), the
    idempotents of the cyclic subgroups of the first two non-identity
    elements on classical and dual groups, and a bank state."""
    basis = []
    for row in np.eye(G.dim):
        try:
            basis.append(State(G.algebra, row))
        except AlgebraError:
            continue
    cyclic = []
    for i in range(1, min(G.dim, 3)):
        if G.kind == "classical":
            sub = G.group.generated_by([i])
            cyclic.append(uniform_state(G, [G.group_elements[k] for k in sub]))
        elif G.kind == "dual":
            cyclic.append(dual_subgroup_idempotent(G, G.group.generated_by([i])))
    return [G.counit] + basis[:3] + cyclic + G.sample_states(1, seed=19)


def test_generated_idempotent_matches_rounds_oracle(G, generated_oracle):
    # the Cesaro limit of the mean against the removed route of per-input
    # limits, convolutions and membership rounds: every pool state alone,
    # every consecutive pair and the first three together
    pool = state_pool(G)
    cases = [[phi] for phi in pool] + [pool[k:k + 2] for k in range(len(pool) - 1)]
    for states in cases + [pool[:3]]:
        res = generated_idempotent(G, states)
        assert res.converged and res.residual <= 1e-12
        assert np.abs(res.limit.duals - generated_oracle(G, states).duals).max() <= 1e-12


def test_power_stack_matches_per_step_oracle(G, dynamics_oracle):
    # the stacked powers against one convolution per step: distances and
    # fractions within 1e-12, the same periods
    cv = classical_version(G)
    for seed in state_pool(G):
        traj = trajectory(G, seed, 64, cv)
        states, alphas, dists = dynamics_oracle.trajectory(G, seed, 64, cv)
        assert_matches([phi.duals for phi in traj.states], [phi.duals for phi in states])
        assert np.abs(np.subtract(traj.alphas, alphas)).max() <= 1e-12
        assert np.abs(np.subtract(traj.distances_to_haar, dists)).max() <= 1e-12
        assert detect_period(G, seed) == dynamics_oracle.detect_period(G, seed)


def assert_centre_matches(G, a, in_centre):
    # membership in the span of centre(G) against e_i a = a e_i for every i
    alg = G.algebra
    L = np.einsum("i,ikj->kj", a, alg.regular)
    R = np.einsum("jik,i->kj", alg.mult, a)
    assert in_centre(G, a) == bool(np.abs(L - R).max() <= alg.tol)


def test_centre_kernel(G, in_centre):
    alg = G.algebra
    for a in random_vectors(G, 2, 11) + [alg.unit, G.fix_element().coeffs]:
        assert_centre_matches(G, a, in_centre)


def test_centre_kernel_on_a_cyclic_dual(in_centre):
    # on the builtins every central element has a symmetric translation
    # matrix, so only a cyclic dual tells right from left multiplication
    G = dual_group(permgroups.FiniteGroup.cyclic(3), [(1, 3)])
    for a in [np.eye(3)[1]] + random_vectors(G, 2, 13):
        assert in_centre(G, a)
        assert_centre_matches(G, a, in_centre)


def test_character_kernels(G):
    alg = G.algebra
    chars = characters(G)
    assert chars
    assert None not in _slice_permutations(_slices(G, np.array([chi.duals for chi in chars])))
    for chi in chars:
        mres = np.einsum("ijk,k->ij", alg.mult, chi.duals) - np.outer(chi.duals, chi.duals)
        assert np.abs(mres).max() < 1e-9


def test_classical_version_matches_oracle(G, classical_version_oracle):
    # the centre route against the commutator ideal, the retry loop and the
    # meets of magic entries
    perms, chars, supports = classical_version_oracle(G)
    cv = classical_version(G)
    assert cv.permutations == perms
    assert_matches([chi.duals for chi in cv.characters], chars)
    assert_matches([p.coeffs for p in cv.supports], supports)
    assert_matches(cv.p_Q.coeffs, G.algebra.unit - supports.sum(axis=0))


def test_haar_fraction_matches_the_finite_formula(G):
    # h(p_Q), which the library computes, against the closed form
    # 1 - |classical version| / dim, within 1e-9
    cv = classical_version(G)
    assert abs(quantum_fraction(G.haar, cv) - (1.0 - len(cv) / G.dim)) <= 1e-9


def test_character_kernels_on_a_cyclic_dual():
    # the dual of Z/3 has two non-real characters, complex conjugates of each
    # other, so the character values tell e_i v from a transposed contraction
    G = dual_group(permgroups.FiniteGroup.cyclic(3), [(1, 3)])
    w = np.exp(2j * np.pi / 3)
    table = np.array([[w ** (k * i) for i in range(3)] for k in range(3)])
    chars = np.array([chi.duals for chi in characters(G)])
    assert chars.shape == (3, 3)
    for ref in table:
        assert_matches(chars[np.abs(chars - ref).max(axis=1).argmin()], ref)


# -- Hopf-axiom residuals against the dense einsums ----------------------------

HOPF_AXIOMS = ("algebra.associativity", "coassociativity", "delta_multiplicative")


def dense_hopf_residuals(G):
    """max |LHS - RHS| of the three axioms, over every dense entry."""
    c, D = G.algebra.mult, G.delta
    assoc = np.einsum("ijm,mkl->ijkl", c, c, optimize=True) \
        - np.einsum("jkm,iml->ijkl", c, c, optimize=True)
    coassoc = np.einsum("iuk,uab->iabk", D, D, optimize=True) \
        - np.einsum("iau,ubk->iabk", D, D, optimize=True)
    res_mult = 0.0
    for i in range(G.dim):
        lhs_i = np.einsum("jm,mab->jab", c[i], D, optimize=True)
        t1 = np.einsum("ab,aAk->bAk", D[i], c, optimize=True)
        t2 = np.einsum("bAk,jAB->bkjB", t1, D, optimize=True)
        rhs_i = np.einsum("bkjB,bBl->jkl", t2, c, optimize=True)
        res_mult = max(res_mult, np.abs(lhs_i - rhs_i).max())
    return dict(zip(HOPF_AXIOMS, (np.abs(assoc).max(), np.abs(coassoc).max(), res_mult)))


def assert_hopf_residuals_match(G):
    """Compare the three residuals of ``validate``; return its failed checks."""
    report = G.validate()
    residuals = {c.name: c.residual for c in report.checks}
    for axiom, ref in dense_hopf_residuals(G).items():
        assert abs(residuals[axiom] - ref) <= RTOL * max(1.0, ref), axiom
    return {c.name for c in report.failures()}


def test_hopf_residuals_match_dense(G):
    assert not assert_hopf_residuals_match(G) & set(HOPF_AXIOMS)


def perturbed(G, seed, mult=True, delta=True, size=1e-3):
    """G with a dense complex perturbation of its structure constants."""
    rng = np.random.default_rng([seed, G.dim])

    def noise(shape):
        return size * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a = G.algebra
    alg = StarAlgebra(a.labels, a.mult + noise(a.mult.shape) if mult else a.mult,
                      a.involution, a.unit, a.trace, check=False)
    return CompactQuantumGroup(
        "perturbed", alg, G.delta + noise(G.delta.shape) if delta else G.delta,
        State(alg, G.counit.duals, check=False), G.antipode, G.magic,
        check=False)


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp"])
@pytest.mark.parametrize("mult, delta", [(True, False), (False, True), (True, True)],
                         ids=["mult", "delta", "both"])
def test_hopf_residuals_match_dense_under_perturbation(name, mult, delta):
    G = BUILTIN_GROUPS[name]()
    for seed in range(2):
        failed = assert_hopf_residuals_match(perturbed(G, seed, mult, delta)) & set(HOPF_AXIOMS)
        assert failed == {"delta_multiplicative"} \
            | ({"algebra.associativity"} if mult else set()) \
            | ({"coassociativity"} if delta else set())


def assert_blocked_identities_match_whole_sides(H, monkeypatch):
    """Validate H, whose checks have not run, with each identity summed one
    leading index to a block, and compare every blocked residual bit for
    bit with both sides formed whole, ``_max_abs_difference(_pairs(x),
    _pairs(y))``; return the validated report."""
    real_residual, real_difference = algebra._identity_residual, algebra._max_abs_difference
    seen, leads = [], []

    def recording(x, y):
        seen.append((x, y, real_residual(x, y)))
        return seen[-1][2]

    def per_block(x, y):
        leads.append(np.unique(np.concatenate([x.keys, y.keys]) // np.prod(x.shape[1:])))
        return real_difference(x, y)

    with monkeypatch.context() as m:
        m.setattr(algebra, "_BLOCK_ENTRIES", 2)  # one product to a block
        m.setattr(algebra, "_identity_residual", recording)
        m.setattr(cqg, "_identity_residual", recording)
        m.setattr(algebra, "_max_abs_difference", per_block)
        report = H.validate()
    assert len(seen) == 8  # associativity, involution_antihom, the six of the group
    assert all(lead.size <= 1 for lead in leads)
    residuals = {c.residual for c in report.checks}
    for x, y, got in seen:  # a side is a contraction (spec, a, b) or a tensor given whole
        whole = algebra._max_abs_difference(
            *(side if isinstance(side, algebra._Coo) else algebra._pairs(*side) for side in (x, y)))
        assert np.float64(got).tobytes() == np.float64(whole).tobytes(), (x[0], y[0])
        assert got in residuals
    return report


def test_blocked_identities_match_whole_sides(G, monkeypatch):
    report = assert_blocked_identities_match_whole_sides(perturbed(G, 0, False, False),
                                                         monkeypatch)
    assert report.ok


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp"])
def test_blocked_identities_match_whole_sides_off_the_builtins(name, monkeypatch):
    # in a complex basis every tensor is dense; perturbed, every identity
    # that the perturbation touches fails, and its residual must not move
    G = BUILTIN_GROUPS[name]()
    assert assert_blocked_identities_match_whole_sides(in_basis(G, complex_basis(G, 5)),
                                                       monkeypatch).ok
    for seed in range(2):
        for mult, delta in [(True, False), (False, True), (True, True)]:
            assert_blocked_identities_match_whole_sides(perturbed(G, seed, mult, delta),
                                                        monkeypatch)


def per_entry_magic_residuals(G):
    """The magic-grid residuals of ``validate``, one entry at a time."""
    alg, N, m = G.algebra, G.N, G.magic
    grid = [(i, j) for i in range(N) for j in range(N)]
    ref = {"magic_projections": 0.0, "magic_comultiplication": 0.0}
    for i, j in grid:
        v = alg.element(m[i, j])
        ref["magic_projections"] = max(ref["magic_projections"], gram_norm(v * v - v),
                                       gram_norm(v.star() - v))
        rhs = sum(np.outer(m[i, k], m[k, j]) for k in range(N))
        ref["magic_comultiplication"] = max(ref["magic_comultiplication"], np.abs(
            np.einsum("iab,i->ab", G.delta, m[i, j]) - rhs).max())
    ref["magic_row_sums"] = max(np.abs(m[i].sum(axis=0) - alg.unit).max() for i in range(N))
    ref["magic_col_sums"] = max(np.abs(m[:, j].sum(axis=0) - alg.unit).max() for j in range(N))
    ref["magic_antipode"] = max(np.abs(m[i, j] @ G.antipode - m[j, i]).max() for i, j in grid)
    ref["magic_counit"] = max(abs(m[i, j] @ G.counit.duals - (i == j)) for i, j in grid)
    return ref


def test_magic_residuals_match_per_entry(G):
    # on the builtin and with 0.05 added to every coefficient of u_00
    bad = G.magic.copy()
    bad[0, 0] += 0.05
    broken = CompactQuantumGroup(G.name, G.algebra, G.delta, G.counit, G.antipode, bad,
                                 check=False)
    for H in (G, broken):
        residuals = {c.name: c.residual for c in H.validate().checks}
        for axiom, ref in per_entry_magic_residuals(H).items():
            assert abs(residuals[axiom] - ref) <= RTOL * max(1.0, ref), axiom
    assert {c.name for c in broken.validate().failures()} >= {
        "magic_projections", "magic_row_sums", "magic_col_sums", "magic_counit"}


# -- group-likeness against the tensor square's Gram matrix ---------------------


def tensor_square_residual(G, p):
    """Gram norm of Delta(p)(1 (x) p) - p (x) p, with kron(gram, gram) formed."""
    alg = G.algebra
    dp = np.einsum("iab,i->ab", G.delta, p)
    lhs = np.einsum("iIk,jJl,ij,IJ->kl", alg.mult, alg.mult, dp, np.outer(alg.unit, p),
                    optimize=True)
    x = (lhs - np.outer(p, p)).reshape(-1)
    val = np.real(np.conj(x) @ np.kron(alg.gram, alg.gram) @ x)
    return np.sqrt(max(val, 0.0))


def test_group_like_residual_matches_tensor_square(G):
    tol = G.algebra.tol
    for i in range(G.N):
        for j in range(G.N):
            q = G.magic_projection(i, j)
            ref = tensor_square_residual(G, q.coeffs)
            assert_matches(_group_like_residual(G, q.coeffs), ref)
            # a zero projection is not group-like
            assert is_group_like(G, q) == (gram_norm(q) > tol and ref <= 100 * tol)
    # the unit, and vectors that are not projections
    for p in [G.algebra.unit, *random_vectors(G, 2, 11)]:
        assert_matches(_group_like_residual(G, p), tensor_square_residual(G, p))


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


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp"])
def test_group_like_residual_in_a_complex_basis(name):
    # the norm is basis-free; a complex, non-orthogonal basis gives a Gram
    # matrix that is neither real nor symmetric
    G = BUILTIN_GROUPS[name]()
    B = complex_basis(G, 5)
    H = in_basis(G, B)
    assert H.validate().ok
    assert np.abs(H.algebra.gram - H.algebra.gram.T).max() > 0.1
    Bi = np.linalg.inv(B)
    for x in [G.magic[0, 0], G.magic[0, 1], *random_vectors(G, 2, 3)]:
        y = x @ Bi
        ref = tensor_square_residual(H, y)
        assert_matches(_group_like_residual(H, y), ref)
        assert abs(ref - _group_like_residual(G, x)) <= 1e-9 * max(1.0, ref)


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp"])
def test_stabiliser_idempotent_in_a_complex_basis(name):
    # in the builtins' bases S_r and its transpose give the same certificate;
    # in a complex, non-orthogonal basis S_r is not symmetric, and psi must
    # still be certified and map to the original one
    G = BUILTIN_GROUPS[name]()
    B = complex_basis(G, 7)
    H = in_basis(G, B)
    part = [[0], list(range(1, G.N))]
    S = _sandwich_matrix(H, stabiliser_projection(H, part).coeffs)
    assert np.abs(S - S.T).max() > 0.1
    psi = stabiliser_idempotent(H, part)
    assert np.abs(psi.duals - B @ stabiliser_idempotent(G, part).duals).max() < 1e-8


@pytest.mark.parametrize("name, face", [("s3", "unit"), ("dual-s3", "unit"), ("kp", "unit"),
                                        ("kp", "stabiliser"), ("dual-s3", "subgroup")])
def test_face_idempotent_in_a_complex_basis(name, face):
    # the certificates are basis-free: in a complex, non-orthogonal basis the
    # face of r B^-1 has the idempotent B psi, psi that of r in the original
    # basis; away from r = 1 the sandwich S_r is not symmetric there
    G = BUILTIN_GROUPS[name]()
    B = complex_basis(G, 7)
    H = in_basis(G, B)
    if face == "unit":
        r = G.algebra.unit
    elif face == "stabiliser":
        r = stabiliser_projection(G, [[0, 1], [2, 3]]).coeffs
    else:  # the subgroup {e, t} of a transposition t, averaged
        r = 0.5 * (np.eye(G.dim)[0] + np.eye(G.dim)[G.generator_indices[0]])
    rH = Projection(H.algebra, r @ np.linalg.inv(B))
    if face != "unit":
        S = _sandwich_matrix(H, rH.coeffs)
        assert np.abs(S - S.T).max() > 0.1
    psi = face_idempotent(H, rH)
    assert np.abs(psi.duals - B @ face_idempotent(G, Projection(G.algebra, r)).duals).max() < 1e-8


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp", "dual-s4"])
def test_classical_version_in_a_complex_basis(name, classical_version_oracle):
    # the centre, its split and every certificate are basis-free: in a
    # complex, non-orthogonal basis the characters are B chi and the
    # supports z B^-1 of the oracle's in the original basis
    G = BUILTIN_GROUPS[name]()
    B = complex_basis(G, 5)
    perms, chars, supports = classical_version_oracle(G)
    cv = classical_version(in_basis(G, B))
    assert cv.permutations == perms
    assert_matches([chi.duals for chi in cv.characters], chars @ B.T)
    assert_matches([p.coeffs for p in cv.supports], supports @ np.linalg.inv(B))


def planted_row(alg, base, lowest):
    """base + s tau, with s chosen so that the smallest eigenvalue of the
    Hermitian part of its sesquilinear matrix is ``lowest``: adding s tau
    adds s times the positive definite Gram matrix, so that eigenvalue
    increases with s."""
    def gap(s):
        return smallest_eigenvalue(alg, base + s * alg.trace) - lowest
    return base + brentq(gap, -10.0, 0.0, xtol=1e-18, rtol=1e-15) * alg.trace


def smallest_eigenvalue(alg, row):
    P = alg.involution @ (alg.mult @ row)  # phi(e_i^* e_j)
    return np.linalg.eigvalsh((P + P.conj().T) / 2)[0]


@pytest.mark.parametrize("name", ["kp", "dual-s4"])
def test_positive_rows_match_smallest_eigenvalue(name, force_block):
    # in the builtin basis (on kp five summands) and in a complex
    # non-orthogonal one (one summand), for the state tolerance and the
    # functional one: rows with smallest eigenvalue -2 tol (rejected),
    # -tol / 2 and 0 (a state conditioned on p_Q, rank-deficient; both
    # accepted), around bank states, in stacks of 1, b, b + 1 and 2b + 1
    # rows with blocks forced to b = 32 rows
    G = BUILTIN_GROUPS[name]()
    cv = classical_version(G)
    b = force_block(G.dim, 32)
    for basis in ("builtin", "complex"):
        B = np.eye(G.dim) if basis == "builtin" else complex_basis(G, 13)
        H = G if basis == "builtin" else in_basis(G, B)
        alg = H.algebra
        conditioned = B @ condition(G, G.sample_states(1, seed=2)[0], cv.p_Q).duals
        for tol in (alg.tol, 100 * alg.tol):
            base = H.sample_states(1, seed=4)[0].duals
            negative, shallow = (planted_row(alg, base, t * tol) for t in (-2.0, -0.5))
            for n, bad in [(1, 0), (b, 0), (b, b - 1), (b + 1, 0), (b + 1, b - 1), (b + 1, b),
                           (2 * b + 1, 0), (2 * b + 1, b - 1), (2 * b + 1, b),
                           (2 * b + 1, 2 * b)]:
                D = np.array([phi.duals for phi in H.sample_states(n, seed=n)])
                if bad > 0:
                    D[bad - 1] = shallow
                if bad + 1 < n:
                    D[bad + 1] = conditioned
                D[bad] = negative
                lowest = np.array([smallest_eigenvalue(alg, row) for row in D])
                clear = np.abs(lowest + tol) > 1e-6 * tol
                got = _positive_rows(alg, D, tol)
                assert np.array_equal(got[clear], (lowest >= -tol)[clear]), (basis, tol, n, bad)
                assert np.array_equal(got, np.arange(n) != bad), (basis, tol, n, bad)


def frame_sizes(alg):
    """The sizes of the clusters of the block frame, in increasing order."""
    return sorted(s for s, K in alg._frame for _ in range(K.shape[1] // (s * s)))


def test_frame_blocks_the_dense_form(G):
    # one cluster of size n per minimal projection of each block M_n of A:
    # d points on C(G), 1, 1, 1, 1, 2, 2 on kp, and on dual-S4 (blocks of
    # sizes 1, 1, 2, 3, 3) 64 columns where the dense form has 576.  The
    # form of every dual is block diagonal in the frame: by Ostrowski the
    # smallest eigenvalue of H is that of the blocks times a theta between
    # the extreme Gram eigenvalues, and where they are equal the spectra agree
    alg, d = G.algebra, G.dim
    sizes = frame_sizes(alg)
    assert sum(sizes) == d
    if G.kind == "classical":
        assert sizes == [1] * d
    pinned = {"kac-paljutkin": [1, 1, 1, 1, 2, 2], "dual-S4": [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]}
    if G.name in pinned:
        assert sizes == pinned[G.name]
    low, high = alg._gram_range
    for x in random_vectors(G, 4, 31):
        P = alg.involution @ (alg.mult @ x)
        dense = np.linalg.eigvalsh((P + P.conj().T) / 2)
        blocks = []
        for s, K in alg._frame:
            Q = (x @ K).reshape(-1, s, s)
            blocks.append(np.linalg.eigvalsh((Q + Q.conj().swapaxes(1, 2)) / 2).ravel())
        blocks = np.sort(np.concatenate(blocks))
        scale = 1e-12 * max(1.0, np.abs(dense).max())
        bracket = sorted([low * blocks[0], high * blocks[0]])
        assert bracket[0] - scale <= dense[0] <= bracket[1] + scale
        if high - low <= 1e-15 * high:
            assert np.abs(dense - low * blocks).max() <= scale


def test_only_a_stacked_check_builds_the_frame(monkeypatch):
    # building and validating a builtin makes one-row checks only (the
    # counit, the haar_state row), which take the dense form: no frame.  The
    # first stacked check builds it, and later ones reuse it
    builds, draw = [], algebra._generic_coeffs
    monkeypatch.setattr(algebra, "_generic_coeffs", lambda d: builds.append(d) or draw(d))
    for name, build in BUILTIN_GROUPS.items():
        G = build()
        assert G.validate().ok
        assert "_frame" not in vars(G.algebra) and not builds, name
        bank = G._state_bank(4, 0)
        assert _state_rows(G.algebra, bank).all() and builds == [G.dim], name
        builds.clear()


@pytest.mark.parametrize("name", ["kp", "dual-s4"])
def test_rows_near_the_tolerance_take_the_dense_form(name, monkeypatch):
    # rows planted at -tol (1 +- 1e-6) lie within a factor 2 of tol in the
    # frame, so the dense form decides them; at -2 tol and -tol / 2 either
    # route may decide, and bank states are clear of the band.  Every mask
    # equals the dense form's, in the builtin basis and in a complex one,
    # whose Gram matrix is not diagonal
    G = BUILTIN_GROUPS[name]()
    seen, dense = [], algebra._dense_positive
    monkeypatch.setattr(algebra, "_dense_positive",
                        lambda alg, row, tol: seen.append(row.copy()) or dense(alg, row, tol))
    for basis in ("builtin", "complex"):
        H = G if basis == "builtin" else in_basis(G, complex_basis(G, 13))
        alg = H.algebra
        if basis == "complex":
            assert np.abs(alg.gram - np.diag(np.diag(alg.gram))).max() > 0.1
        bank = H._state_bank(6, 4)
        for tol in (alg.tol, 100 * alg.tol):
            planted = [planted_row(alg, bank[0], t * tol)
                       for t in (-(1 + 1e-6), -(1 - 1e-6), -2.0, -0.5)]
            D = np.vstack([bank, planted])
            ref = [dense(alg, row, tol) for row in D]
            seen.clear()
            got = _positive_rows(alg, D, tol)
            assert np.array_equal(got, ref), (basis, tol)
            assert got[:6].all() and not got[8] and got[9], (basis, tol)
            band = [any(np.array_equal(row, r) for r in seen) for row in D]
            assert band[6] and band[7] and not any(band[:6]), (basis, tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["kp", "dual-s4", "s4"])
def test_rows_that_are_not_finite_fail(name, monkeypatch):
    # a NaN or infinite entry, at any place of a stack and alone, fails the
    # row, and no LAPACK call sees it; no product sees it either, so no
    # warning of an invalid value is raised
    G = BUILTIN_GROUPS[name]()
    alg, tol = G.algebra, G.algebra.tol
    for routine in ("cholesky", "eigvalsh"):
        real = getattr(np.linalg, routine)

        def finite_only(a, real=real):
            assert np.isfinite(a).all()
            return real(a)
        monkeypatch.setattr(np.linalg, routine, finite_only)
    bank = G._state_bank(5, 1)
    for bad in (np.nan, np.inf, -np.inf, 1j * np.inf):
        row = bank[0].copy()
        row[1] = bad
        assert not _positive_rows(alg, row[np.newaxis], tol)[0]
        for at in (0, 2, 4):
            D = bank.copy()
            D[at] = row
            assert np.array_equal(_positive_rows(alg, D, tol), np.arange(5) != at), (bad, at)


# -- the hot kernels against their earlier forms ---------------------------------------


def assert_same_coo(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got.keys, ref.keys)
    assert np.array_equal(got.vals.view(np.uint64), ref.vals.view(np.uint64))


def test_summed_matches_add_at_bit_for_bit(kernel_oracles):
    # runs of up to ~100 equal keys with values over 16 orders of magnitude
    # (np.add.reduceat would add the longer runs pairwise), sums that cancel
    # exactly and must be dropped, a single key, and empty input
    rng = np.random.default_rng(3)
    for size, span in [(2000, 40), (5000, 5000), (1, 1)]:
        keys = rng.integers(0, span, size)
        vals = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) \
            * 10.0 ** rng.uniform(-8, 8, size)
        assert_same_coo(_summed((span,), keys, vals), kernel_oracles.summed((span,), keys, vals))
    keys = np.array([7, 3, 7, 3, 7, 9, 3])
    vals = np.array([0.5, 1j, 0.25, -1j, -0.75, 2.0, 0.0])
    got = _summed((10,), keys, vals)
    assert got.keys.tolist() == [9] and got.vals.tolist() == [2.0]
    assert_same_coo(got, kernel_oracles.summed((10,), keys, vals))
    empty = _summed((4, 4), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex))
    assert empty.keys.size == 0 and empty.vals.size == 0
    assert_same_coo(empty, kernel_oracles.summed((4, 4), empty.keys, empty.vals))


def test_row_space_matches_full_svd(G, row_space_oracle):
    # the magic stack, over twice as tall as wide on klein-s4, z4-s4, dual-s3
    # and dual-d3, and the stack of products of every pair of its rows, so
    # tall on every builtin but the trivial one: the same projector
    d = G.dim
    stack = G.magic.reshape(-1, d)
    prods = stack @ (stack @ G.algebra.mult.reshape(d, d * d)).reshape(-1, d, d)
    for rows in (stack, prods.reshape(-1, d)):
        got, ref = _row_space(rows), row_space_oracle(rows)
        assert got.shape == ref.shape
        assert np.abs(got.conj().T @ got - ref.conj().T @ ref).max() <= 1e-12


def unital_planted_row(alg, base, lowest):
    """(base + s tau) / (1 + s), with s in (-1, 0) chosen so that the smallest
    eigenvalue of the Hermitian part of its sesquilinear matrix is ``lowest``:
    unital, and as s nears -1 the row nears the multiple of base - tau, which
    vanishes on 1 and so has a negative eigenvalue unless base = tau."""
    def gap(s):
        return smallest_eigenvalue(alg, (base + s * alg.trace) / (1 + s)) - lowest
    s = brentq(gap, -1 + 1e-6, 0.0, xtol=1e-18, rtol=1e-15)
    return (base + s * alg.trace) / (1 + s)


def rows_failing_each_test(alg, bank):
    """Rows built to fail one state test each: unitality (2 phi), Hermiticity
    (phi plus i/10 times the difference of two states, and (1 + i/10) phi)
    and positivity (smallest eigenvalue -200 tol), and a shallow row
    (smallest eigenvalue -tol / 2) that both checks accept.  On the trivial
    algebra the counit is the only state, so there is no second state and
    the last two are shifted by a multiple of tau, which is not unital."""
    phi, rho = bank[0], bank[1]
    plant = unital_planted_row if alg.dim > 1 else planted_row
    rows = {"non-unital": 2 * phi,
            "non-Hermitian": phi + 0.1j * (rho - phi),
            "non-Hermitian, non-unital": (1 + 0.1j) * phi,
            "negative": plant(alg, phi, -200 * alg.tol),
            "shallow": plant(alg, phi, -0.5 * alg.tol)}
    if alg.dim == 1:
        del rows["non-Hermitian"]
    return rows


def permuted_basis(G, seed):
    """A seeded permutation matrix: the builtin basis, relabelled."""
    return np.eye(G.dim)[np.random.default_rng([seed, G.dim]).permutation(G.dim)]


def in_basis_kind(G, basis, seed):
    """G in its builtin basis, a seeded relabelling of it, or a complex basis."""
    if basis == "builtin":
        return G
    return in_basis(G, {"permuted": permuted_basis, "complex": complex_basis}[basis](G, seed))


def expected_summand_sizes(G):
    """C(G): one summand per point; kp: C^4 + M_2; a dual in the group
    basis, and every algebra in a complex basis: one summand."""
    if G.kind == "classical":
        return [1] * G.dim
    return [1, 1, 1, 1, 4] if G.name == "kac-paljutkin" else [G.dim]


@pytest.mark.parametrize("basis", ["builtin", "permuted", "complex"])
def test_summands_hold_every_non_zero(G, basis, summand_oracle, sesquilinear_oracle):
    # the summands are the union-find components of the non-zeros of mult
    # and the involution, so every non-zero lies inside one; a relabelling
    # keeps their sizes, and the dense form phi(e_i^* e_j) is zero between
    # two summands for every phi
    H = in_basis_kind(G, basis, 29)
    alg, d = H.algebra, H.dim
    parts = summand_oracle(alg)
    sizes = sorted(len(p) for p in parts)
    assert sizes == ([d] if basis == "complex" else expected_summand_sizes(G))
    part = np.empty(d, dtype=int)
    for b, p in enumerate(parts):
        part[p] = b
    i, j, k = np.nonzero(alg.mult)
    assert (part[i] == part[k]).all() and (part[j] == part[k]).all()
    i, k = np.nonzero(alg.involution)
    assert (part[i] == part[k]).all()
    form = sesquilinear_oracle(alg).reshape(d, d, d)
    assert not form[:, part[:, np.newaxis] != part].any()


@pytest.mark.parametrize("basis", ["builtin", "permuted", "complex"])
def test_positive_rows_match_unfolded_kernel(G, basis, kernel_oracles, force_block):
    # every such row at the start, the end and on both sides of a forced
    # 8-row block boundary of a 21-row stack of bank states, at the
    # functional and the state tolerance: the masks must equal the unfolded
    # kernel's, and the state mask its with the unital test
    H = in_basis_kind(G, basis, 17)
    alg = H.algebra
    bank = H._state_bank(21, 5)
    bad = rows_failing_each_test(alg, bank)
    b = force_block(alg.dim, 8)
    for kind, row in bad.items():
        for at in (0, b - 1, b, 2 * b, 20):
            D = bank.copy()
            D[at] = row
            for tol in (alg.tol, 100 * alg.tol):
                ref = kernel_oracles.positive_rows(alg, D, tol)
                assert np.array_equal(_positive_rows(alg, D, tol), ref), (kind, at, tol)
            unital = np.abs(D @ alg.unit - 1) <= 10 * max(alg.tol, 1e-12)
            states = _state_rows(alg, D)
            assert np.array_equal(states, unital & ref), (kind, at)
            assert states[at] == (kind == "shallow" and alg.dim > 1), (kind, at)


def kp_coherent_row(kp, excess):
    """The Haar state of kp with phi(E12) = phi(E21) = phi(E11) + excess:
    its M_2 summand has the eigenvalues h +- (h + excess), h = phi(E11), so
    the smallest eigenvalue of the whole sesquilinear matrix is -excess,
    while every diagonal entry of it, and every 1 x 1 summand, is positive."""
    labels = kp.algebra.labels
    row = kp.haar.duals.copy()
    row[[labels.index("E12"), labels.index("E21")]] = row[labels.index("E11")] + excess
    return row


@pytest.mark.parametrize("name", ["kp", "s4"])
def test_positive_rows_reject_a_row_negative_on_one_summand(name, force_block):
    # kp: too much coherence on M_2 alone; s4: one negative point mass.  At
    # -2 tol each is rejected, at -tol / 2 accepted, at any place of a
    # 17-row stack of bank states with blocks forced to 8 rows
    G = BUILTIN_GROUPS[name]()
    alg, tol = G.algebra, G.algebra.tol

    def planted(lowest):
        if name == "kp":
            return kp_coherent_row(G, -lowest)
        row = G.haar.duals.copy()
        row[5] = lowest
        return row

    b = force_block(alg.dim, 8)
    bank = G._state_bank(17, 3)
    for lowest, accepted in [(-2 * tol, False), (-0.5 * tol, True)]:
        row = planted(lowest)
        assert abs(smallest_eigenvalue(alg, row) - lowest) <= 1e-3 * tol
        if name == "kp":  # only the 4 x 4 summand's factorisation can see it
            assert np.diag(alg.involution @ (alg.mult @ row)).real.min() > 0
        for at in (0, b - 1, b, 16):
            D = bank.copy()
            D[at] = row
            assert np.array_equal(_positive_rows(alg, D, tol),
                                  (np.arange(17) != at) | accepted), (lowest, at)


def test_cesaro_projector_matches_sylvester_oracle(G, kernel_oracles):
    # the counit, Haar and trace seeds, and on kp the E11 functional, whose
    # convolution operator has the eigenvalue -1
    seeds = [G.counit, G.haar, State(G.algebra, G.algebra.trace)]
    if G.name == "kac-paljutkin":
        seeds.append(State(G.algebra, np.eye(G.dim)[G.algebra.labels.index("E11")]))
        T = left_convolution_operator(G, seeds[-1])
        assert np.abs(np.linalg.eigvals(T) + 1).min() < 1e-12
    for phi in seeds:
        T = left_convolution_operator(G, phi)
        ref = kernel_oracles.cesaro_projector(T)
        assert np.abs(_cesaro_projector(T) - ref).max() <= 1e-12


# (4, 4) power-bounded operators S D S^-1, S fixed, well conditioned and far
# from unitary, so that ker(I - T) is not orthogonal to ran(I - T)
HARD_SPECTRA = {
    # a Jordan block at 0 beside the simple eigenvalue 1
    "jordan-at-zero": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]]),
    # unimodular eigenvalues away from 1 average out
    "rotation": np.diag([1, -1, np.exp(0.4j * np.pi), 0.3]),
    # eigenvalue 1 twice, the operator non-normal
    "double-one": np.diag([1, 1, 0.3, -0.6]),
}


def hard_operator(name):
    S = np.eye(4) + 0.6 * np.random.default_rng(5).standard_normal((4, 4))
    return S @ HARD_SPECTRA[name] @ np.linalg.inv(S)


@pytest.mark.parametrize("name", sorted(HARD_SPECTRA))
def test_cesaro_projector_matches_sylvester_oracle_off_the_builtins(name, kernel_oracles):
    T = hard_operator(name)
    E = _cesaro_projector(T)
    assert np.abs(E - kernel_oracles.cesaro_projector(T)).max() <= 1e-12
    assert np.abs(T @ E - E).max() <= 1e-12  # onto ker(I - T)
    # oblique, so the orthogonal projector onto ker(I - T) would fail above
    assert np.abs(E.conj().T - E).max() > 0.1


def test_cesaro_projector_stacked_matches_one_at_a_time(kernel_oracles):
    # kernels of size 2, 1, 1, none and all along one stack
    stack = np.array([hard_operator(name) for name in sorted(HARD_SPECTRA)]
                     + [0.5 * np.eye(4), np.eye(4)])
    E = _cesaro_projector(stack)
    for k, T in enumerate(stack):
        assert np.abs(E[k] - _cesaro_projector(T)).max() <= 1e-15, k
        assert np.abs(E[k] - kernel_oracles.cesaro_projector(T)).max() <= 1e-12, k


def test_cesaro_projector_rejects_non_finite_operators():
    T = np.eye(3, dtype=complex)
    T[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _cesaro_projector(T)


def assert_validate_residuals_match(H, kernel_oracles):
    residuals = {c.name: c.residual for c in H.validate().checks}
    for axiom, ref in kernel_oracles.validate_residuals(H).items():
        assert abs(residuals[axiom] - ref) <= 1e-14 * max(1.0, ref), axiom


def test_validate_residuals_match_einsums(G, kernel_oracles):
    assert_validate_residuals_match(G, kernel_oracles)


@pytest.mark.parametrize("name", ["s3", "dual-s3", "kp", "dual-d4"])
@pytest.mark.parametrize("basis", ["complex", "perturbed"])
def test_validate_residuals_match_einsums_in_a_complex_basis(name, basis, kernel_oracles):
    # in a complex basis the involution and antipode are neither real nor
    # symmetric; perturbed mult and Delta make every residual large.  (The
    # structure constants are dense there, so the sparse Hopf contractions
    # limit this to small groups.)
    G = BUILTIN_GROUPS[name]()
    H = in_basis(G, complex_basis(G, 23))
    if basis == "perturbed":
        H = perturbed(H, 1)
    assert_validate_residuals_match(H, kernel_oracles)
