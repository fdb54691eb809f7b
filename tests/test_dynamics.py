"""Convolution bounds, phase regions, periodicity and quantitative formulas."""
import numpy as np
import pytest

from qperm import permgroups
from qperm.algebra import AlgebraError, State
from qperm.cqg import (
    classical_group,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from qperm.dynamics import (
    BOUNDARY_EPS,
    _REGIONS,
    ConvergenceReport,
    _phase_labels,
    convergence_to_haar,
    convolution_bounds,
    detect_period,
    idempotent_gap_check,
    phase_diagram_rows,
    trajectory,
    verify_bounds_empirically,
)
from qperm.idempotent import cesaro_idempotent, dual_subgroup_idempotent
from qperm.permutation import classical_version, quantum_fraction


@pytest.fixture(scope="module")
def kp():
    return kac_paljutkin()


@pytest.fixture(scope="module")
def kp_cv(kp):
    return classical_version(kp)


@pytest.fixture(scope="module")
def ds4():
    return dual_symmetric_group(4)


@pytest.fixture(scope="module")
def ds4_cv(ds4):
    return classical_version(ds4)


@pytest.fixture(scope="module")
def cs4():
    return classical_group(permgroups.symmetric_group(4))


def test_bounds_rule_cases():
    assert convolution_bounds(0, 0) == (0, 0)
    assert convolution_bounds(0, 1) == (1, 1)
    assert convolution_bounds(1, 1) == (0, 1)


def test_bounds_ordered_and_in_range():
    grid = np.linspace(0, 1, 21)
    for a in grid:
        for b in grid:
            lo, hi = convolution_bounds(a, b)
            assert -1e-12 <= lo <= hi <= 1 + 1e-12


def test_bounds_rejects_out_of_range():
    with pytest.raises(AlgebraError):
        convolution_bounds(-0.1, 0.5)


def phase_labels(points):
    """(region, q2i, q3i, qhalfw) of each (alpha, beta), from one array pass."""
    A, B = np.array(points, dtype=float).T
    code, *flags = _phase_labels(A, B)
    return list(zip(np.array(_REGIONS)[code].tolist(), *(f.tolist() for f in flags)))


def test_phase_region_examples():
    labels = phase_labels([(0.25, 0.9), (0.5, 0.5), (1.0, 1.0), (0.0, 0.0), (0.05, 0.05)])
    assert [lab[0] for lab in labels] == ["Q_I", "Boundary_W", "Q_W", "degenerate", "Q_I"]
    assert labels[2][3]  # qhalfw at (1, 1)


def test_phase_region_symmetry():
    A, B = np.random.default_rng(2).uniform(0, 1, size=(2, 100))
    for x, y in zip(_phase_labels(A, B), _phase_labels(B, A)):
        assert np.array_equal(x, y)


def test_phase_flags_monotone_along_rays():
    # Q_3I implies Q_2I implies Q_I; walking toward the origin preserves flags
    t = np.linspace(1, 0.01, 40)
    for ray in (0.7, 1.0, 0.3):
        code, q2i, q3i, _ = _phase_labels(t * ray, t * 0.9)
        assert (q3i <= q2i).all() and (q2i <= (code == 1)).all()


def test_phase_diagram_grid_shape():
    cols = phase_diagram_rows(11)
    assert list(cols) == ["alpha", "beta", "region", "q2i", "q3i", "qhalfw", "lower", "upper"]
    assert all(len(col) == 121 for col in cols.values())
    assert {"Q_I", "Q_W", "degenerate"} <= set(cols["region"].tolist())


@pytest.mark.parametrize("n", [1, 0, -3])
def test_phase_diagram_rejects_fewer_than_two_points(n):
    # n = 1 divided by zero and failed in the bounds' range check instead
    with pytest.raises(ValueError, match=f"n >= 2 grid points a side, not {n}$"):
        phase_diagram_rows(n)


def _tie_points():
    """Points on or within rounding of every threshold of the phase labels."""
    pts = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1e-13, 1e-13), (1e-12, 0.0), (0.0, 1e-12),
           (2e-12, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5 - 5e-14, 0.3), (0.5 + 5e-14, 0.3)]
    for x in (0.0, 0.3, 0.5, 0.9, 1.0):
        pts += [(1 - 1e-13, x), (x, 1 - 1e-13), (1 - 1e-12, x), (x, 1 - 2e-12)]
    for a in np.linspace(0.26, 1.0, 15):
        b = a / (4 * a - 1)  # the wild boundary, disc = 0
        if b <= 1:
            pts += [(a, b + e) for e in (0.0, -1e-13, 1e-13, -1e-12, 1e-12, -3e-12, 3e-12)]
        half = (1 - 1 / np.sqrt(2.0)) / a  # the half-wild threshold
        two = (2 * a - 1) / (2 * a - 2) if a < 1 else 2.0  # the two-increasing one
        pts += [(a, y + e) for y in (half, two) if 0 <= y <= 1 for e in (0.0, -1e-15, 1e-15)]
    return [(min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)) for x, y in pts]


def test_phase_region_matches_per_point_oracle(experiment_oracles):
    # the kernel over the 257 x 257 grid of phase_diagram_rows and over the
    # ties, against the labels one point at a time
    cols = phase_diagram_rows(257)
    got = zip(*(cols[key].tolist() for key in ("region", "q2i", "q3i", "qhalfw")))
    assert list(got) == [experiment_oracles.phase_region(a, b)
                         for a, b in zip(cols["alpha"].tolist(), cols["beta"].tolist())]
    ties = _tie_points()
    assert phase_labels(ties) == [experiment_oracles.phase_region(a, b) for a, b in ties]


def test_gap_check():
    assert idempotent_gap_check(0.0)
    assert idempotent_gap_check(0.5)
    assert idempotent_gap_check(5 / 6)
    assert not idempotent_gap_check(0.25)


def test_bounds_empirical_kp(kp, kp_cv):
    report = verify_bounds_empirically(kp, kp_cv, n_samples=150, seed=7)
    assert report.ok
    alphas = report.samples[:, 0]
    assert alphas.max() > 0.9 and alphas.min() < 0.1  # extremes exercised


def test_bounds_empirical_dual_s4(ds4, ds4_cv):
    assert verify_bounds_empirically(ds4, ds4_cv, n_samples=60, seed=8).ok


def test_bounds_calls_form_no_sandwich(kp, kp_cv, monkeypatch):
    # the decomposition reads S_{p_C} and S_{p_Q} off the classical version,
    # which formed them for its identities, so a bounds call forms none
    from qperm import cqg, idempotent, permutation

    calls, real = [], cqg._sandwich_matrix
    for module in (cqg, idempotent, permutation):
        monkeypatch.setattr(module, "_sandwich_matrix", lambda G, q: calls.append(q) or real(G, q))
    assert verify_bounds_empirically(kp, kp_cv, n_samples=20, seed=3).ok
    assert calls == []


def test_bounds_empirical_classical_all_zero(cs4):
    cv = classical_version(cs4)
    report = verify_bounds_empirically(cs4, cv, n_samples=40, seed=9)
    assert report.samples.max() < 1e-9  # alpha, beta and omega of every pair


def test_coset_periods_match_quotient_order(cs4):
    # period of the uniform measure on Vg equals the order of the coset gV
    # in S_4 / V; for transpositions and 3-cycles this is the order of g
    klein = permgroups.klein_four()
    for g in cs4.group_elements:
        coset = uniform_state(cs4, [permgroups.compose(p, g) for p in klein])
        assert detect_period(cs4, coset) == permgroups.coset_order(g, klein)


def test_coset_order_matches_coset_products(cs4):
    # oracle: multiply the coset gV by itself until it returns to V
    klein = frozenset(permgroups.klein_four())
    orders = []
    for g in cs4.group_elements:
        coset = frozenset(permgroups.compose(p, g) for p in klein)
        cur, order = coset, 1
        while cur != klein:
            cur = frozenset(permgroups.compose(a, b) for a in cur for b in coset)
            order += 1
        assert permgroups.coset_order(g, klein) == order, permgroups.perm_label(g)
        orders.append(order)
    # S_4 / V is S_3: V itself, then 6 transpositions and 6 4-cycles of
    # coset order 2, and 8 3-cycles of coset order 3
    assert sorted(orders) == [1] * 4 + [2] * 12 + [3] * 8


def test_coset_period_equals_element_order_when_orders_agree(cs4):
    klein = permgroups.klein_four()
    for g in cs4.group_elements:
        if permgroups.coset_order(g, klein) == permgroups.perm_order(g):
            coset = uniform_state(cs4, [permgroups.compose(p, g) for p in klein])
            assert detect_period(cs4, coset) == permgroups.perm_order(g)


def test_haar_period_one(kp):
    assert detect_period(kp, kp.haar) == 1


def test_trajectory_shape(kp, kp_cv):
    seed = kp.sample_states(1, seed=77)[0]
    traj = trajectory(kp, seed, 10, kp_cv)
    assert len(traj) == 11
    assert traj.states[0].distance(seed) == 0.0


def test_point_mass_period_is_element_order(cs4):
    for g in [permgroups.from_cycles(4, (0, 1)),
              permgroups.from_cycles(4, (0, 1, 2)),
              permgroups.from_cycles(4, (0, 1, 2, 3))]:
        assert detect_period(cs4, uniform_state(cs4, [g])) == permgroups.perm_order(g)


def test_e11_alternation(kp, kp_cv):
    e11 = State(kp.algebra, np.eye(8)[4])
    assert detect_period(kp, e11) == 2
    traj = trajectory(kp, e11, 8, kp_cv)
    for k, alpha in enumerate(traj.alphas, start=1):
        assert abs(alpha - (1.0 if k % 2 == 1 else 0.0)) < 1e-9


def test_finite_formulas(kp, kp_cv, ds4, ds4_cv):
    # alpha(h) = 1 - |classical version| / dim: 1/2 on kp, 11/12 on dual S_4
    # and 0 on C(S_3)
    cs3 = classical_group(permgroups.symmetric_group(3))
    for G, cv, alpha in ((kp, kp_cv, 0.5), (ds4, ds4_cv, 11 / 12),
                         (cs3, classical_version(cs3), 0.0)):
        assert abs(quantum_fraction(G.haar, cv) - alpha) < 1e-12
        assert abs(1.0 - len(cv) / G.dim - alpha) < 1e-12


def test_gap_for_z4_indicator(ds4, ds4_cv):
    four = ds4.group.perms.index(permgroups.from_cycles(4, (0, 1, 2, 3)))
    psi = dual_subgroup_idempotent(ds4, sorted(ds4.group.generated_by([four])))
    alpha = quantum_fraction(psi, ds4_cv)
    assert abs(alpha - 5 / 6) < 1e-9
    assert idempotent_gap_check(alpha)


def test_convergence_to_haar_mixed_seed(kp):
    seed = State(kp.algebra, 0.6 * kp.haar.duals + 0.4 * kp.sample_states(1, seed=3)[0].duals)
    rep = convergence_to_haar(kp, seed, k_max=120)
    assert rep.converged


def test_point_mass_does_not_converge(cs4):
    g = permgroups.from_cycles(4, (0, 1, 2))
    rep = convergence_to_haar(cs4, uniform_state(cs4, [g]), k_max=60)
    assert not rep.converged


def test_strictness_flag_on_dual(ds4):
    rep = convergence_to_haar(ds4, ds4.haar, k_max=3)
    assert rep.strict is True  # |delta_e| profile: 1 at e only
    flat = State(ds4.algebra, np.ones(24))
    rep2 = convergence_to_haar(ds4, flat, k_max=3)
    assert rep2.strict is False
