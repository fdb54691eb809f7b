"""Acceptance criteria: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget."""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qperm import permgroups
from qperm.algebra import State, gram_norm, meet, support_projection
from qperm.cqg import (
    classical_group,
    dual_dihedral,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)
from qperm.dynamics import (
    detect_period,
    idempotent_gap_check,
    trajectory,
    verify_bounds_empirically,
)
from qperm.idempotent import (
    cesaro_idempotent,
    classify_idempotent,
    collapse_stability_probe,
    condition,
    dual_subgroup_idempotent,
    idempotent_census,
    is_group_like,
    is_idempotent,
)
from qperm.permutation import (
    classical_version,
    fix_eigenvector_seed,
    fix_spectrum,
    has_integer_fixed_points,
    quantum_fraction,
)


@contextmanager
def criterion(num, budget, text):
    start = time.time()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.time() - start
        status = "PASS" if failed is None and elapsed < budget else "FAIL"
        print(f"[{status}] criterion {num:2d} ({elapsed:6.2f}s / {budget:.0f}s) {text}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


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


def test_criterion_01_kp_quantum_fraction(kp, kp_cv):
    with criterion(1, 1.0, "Kac-Paljutkin Haar idempotent is half quantum"):
        alpha = quantum_fraction(kp.haar, kp_cv)
        assert abs(alpha - 0.5) <= 1e-9


def test_criterion_02_finite_dual_formula(ds4, ds4_cv):
    with criterion(2, 5.0, "dual groups: alpha(h) = 1 - |G|/dim = 1 - 2/n!"):
        alpha = quantum_fraction(ds4.haar, ds4_cv)
        assert abs(alpha - (1 - 2 / 24)) <= 1e-9
        assert abs(alpha - (1 - len(ds4_cv) / ds4.dim)) <= 1e-9
        ds3 = dual_symmetric_group(3)
        alpha3 = quantum_fraction(ds3.haar, classical_version(ds3))
        assert abs(alpha3 - (1 - 2 / 6)) <= 1e-9


def test_criterion_03_s4hat_spectrum_and_convergence(ds4):
    with criterion(3, 30.0, "dual-S4 in S_5^+: spectrum, convergence, non-integer limit"):
        fs = fix_spectrum(ds4)
        lam_p = (5 + math.sqrt(17)) / 2
        lam_m = (5 - math.sqrt(17)) / 2
        assert min(abs(l - lam_p) for l in fs.eigenvalues) <= 1e-9
        assert min(abs(l - lam_m) for l in fs.eigenvalues) <= 1e-9
        # eigenvector states with two and four fixed points, mixed evenly
        seed = fix_eigenvector_seed(ds4)
        mags = np.abs(seed.duals)
        assert mags[0] > 1 - 1e-9 and np.all(mags[1:] < 1 - 1e-9)  # strict
        traj = trajectory(ds4, seed, 200)
        assert traj.distances_to_haar[199] < 1e-8  # phi^{*200} vs delta_e == Haar
        limit = traj.states[199]
        assert not has_integer_fixed_points(limit, fs)
        j_plus = int(np.argmin([abs(l - lam_p) for l in fs.eigenvalues]))
        weight = dict(zip(range(len(fs.eigenvalues)),
                          [w for _, w in fs.distribution(limit)]))[j_plus]
        direct = float(ds4.haar(fs.projections[j_plus]).real)
        assert weight > 0
        assert abs(weight - direct) <= 1e-9


def test_criterion_04_idempotent_gap_census(kp, kp_cv, ds4, ds4_cv):
    with criterion(4, 60.0, "census of Cesaro limits: alpha avoids (0, 1/2)"):
        checked = 0
        for G, cv in ((kp, kp_cv), (ds4, ds4_cv)):
            results = idempotent_census(G, 50, seed=2024,
                                        extra_seeds=[G.counit, G.haar])
            for res in results:
                assert res.converged
                alpha = quantum_fraction(res.limit, cv)
                assert idempotent_gap_check(alpha), alpha
                checked += 1
        assert checked >= 100


def test_criterion_05_convolution_bounds_suite(kp, kp_cv, ds4, ds4_cv, cs4):
    with criterion(5, 60.0, "bounds alpha+beta-2ab <= omega <= alpha+beta-ab on 500 pairs/group"):
        groups = [(kp, kp_cv), (ds4, ds4_cv), (cs4, classical_version(cs4))]
        cs3 = classical_group(permgroups.symmetric_group(3))
        dd6 = dual_dihedral(6)
        groups += [(cs3, classical_version(cs3)), (dd6, classical_version(dd6))]
        for G, cv in groups:
            report = verify_bounds_empirically(G, cv, n_samples=500, seed=99)
            assert report.ok


def test_criterion_06_haar_classification_oracle(ds4):
    with criterion(6, 30.0, "1_Lambda Haar iff Lambda normal, all subgroups of S_4"):
        subgroups = ds4.group.subgroups()
        assert len(subgroups) == 30
        for sub in subgroups:
            psi = dual_subgroup_idempotent(ds4, sorted(sub))
            cls = classify_idempotent(ds4, psi)
            assert (cls.kind == "Haar") == ds4.group.is_normal(sub), sorted(sub)


def test_criterion_07_group_like_suite(kp, kp_cv, ds4, ds4_cv, cs4):
    with criterion(7, 30.0, "u_jj and p_C group-like; meets match character supports"):
        cs3 = classical_group(permgroups.symmetric_group(3))
        dd6 = dual_dihedral(6)
        shipped = [(kp, kp_cv), (ds4, ds4_cv), (cs4, classical_version(cs4)),
                   (cs3, classical_version(cs3)), (dd6, classical_version(dd6))]
        for G, cv in shipped:
            for j in range(G.N):
                assert is_group_like(G, G.magic_projection(j, j))
            assert is_group_like(G, cv.p_C)
            for sigma, chi in zip(cv.permutations, cv.characters):
                p_meet = meet([G.magic_projection(sigma[j], j) for j in range(G.N)])
                p_supp = support_projection(chi)
                r1 = int(round(np.trace(G.algebra.left_mult_matrix(p_meet.coeffs)).real))
                r2 = int(round(np.trace(G.algebra.left_mult_matrix(p_supp.coeffs)).real))
                assert r1 == r2
                assert gram_norm(p_meet - p_supp) < 1e-7


def test_criterion_08_collapse_dichotomy(kp, ds4):
    with criterion(8, 60.0, "collapse probe: Haar stable, non-Haar violated"):
        census = []
        # KP: Cesaro limits from corner seeds plus canonical idempotents
        eye = np.eye(8)
        for duals in (eye[4], eye[7], (eye[0] + eye[3] + eye[4]) / 3):
            census.append((kp, cesaro_idempotent(kp, State(kp.algebra, duals)).limit))
        census.append((kp, kp.haar))
        census.append((kp, kp.counit))
        census.append((kp, condition(kp, kp.haar, kp.magic_projection(0, 0))))
        # dual-S4: subgroup indicators, one normal and one non-normal per order
        seen_orders = set()
        for sub in ds4.group.subgroups():
            key = (len(sub), ds4.group.is_normal(sub))
            if key in seen_orders:
                continue
            seen_orders.add(key)
            census.append((ds4, dual_subgroup_idempotent(ds4, sorted(sub))))
        tested = 0
        for G, psi in census:
            assert is_idempotent(G, psi)
            cls = classify_idempotent(G, psi)
            p = support_projection(psi)
            report = collapse_stability_probe(G, psi, seed=12)
            if cls.kind == "Haar":
                assert report.stable, (G.name, cls.kind)
            elif is_group_like(G, p):
                assert len(report.violations) >= 1, (G.name, cls.kind)
            tested += 1
        assert tested >= 12


def test_criterion_09_periodicity(kp, kp_cv, cs4):
    with criterion(9, 10.0, "coset periods over the Klein group; E11 alternation"):
        klein = frozenset(permgroups.klein_four())
        for g in cs4.group_elements:
            coset = uniform_state(cs4, [permgroups.compose(p, g) for p in klein])
            period = detect_period(cs4, coset)
            assert period == permgroups.coset_order(g, klein), permgroups.perm_label(g)
        e11 = State(kp.algebra, np.eye(8)[4])
        assert detect_period(kp, e11) == 2
        alphas = trajectory(kp, e11, 8, kp_cv).alphas
        for k, alpha in enumerate(alphas, start=1):
            assert abs(alpha - (1.0 if k % 2 else 0.0)) < 1e-9


def test_criterion_10_dihedral_sweep():
    with criterion(10, 60.0, "dual dihedral meet masses h(u11 ^ u33) = 1/(2m)"):
        values = []
        for m in range(3, 13):
            G = dual_dihedral(m)
            r = meet([G.magic_projection(0, 0), G.magic_projection(2, 2)])
            val = float(G.haar(r).real)
            assert abs(val - 1.0 / (2 * m)) <= 1e-8, m
            values.append(val)
        assert values == sorted(values, reverse=True)  # trend toward 0
