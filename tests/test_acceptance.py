"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import contextlib
import math

import numpy as np
import pytest

from jcnc import oracle
from jcnc.cli import main, parse_config, run_scenario
from jcnc.engine import (
    ScenarioCase,
    evolve,
    initial_state,
    propagator,
    reduced_states,
    sector_evolution,
    truncated_coherent,
    truncated_thermal,
)
from jcnc.hilbert import (
    DensityOperator,
    StateVector,
    annihilation,
    fock,
    negativity,
    single_mode,
    tensor,
)
from jcnc.nonclassicality import (
    beam_splitter_unitary,
    cascade,
    depletion_ratios,
    entanglement_potential,
    total_nonclassicality,
)

from cascade_tree import cascade_tree

SQRT2 = math.sqrt(2.0)
GRID = np.linspace(0.0, 2.0 * math.pi, 401)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: {description} ... FAIL")
        raise
    print(f"ACCEPTANCE {num}: {description} ... PASS")


@pytest.fixture(scope="module")
def case_a_data():
    """Per-grid-point case A engine quantities with 4 cascade layers."""
    rho0 = initial_state(ScenarioCase("A"), 2)
    data = []
    for T in GRID:
        rho = evolve(rho0, float(T))
        rho_f, rho_a = reduced_states(rho)
        n_c = negativity(rho, "a")
        rep_f = cascade(rho_f, 4)
        rep_a = cascade(rho_a, 4)
        data.append((float(T), n_c, rep_f, rep_a))
    return data


@pytest.fixture(scope="module")
def case_b_states():
    rho0 = initial_state(ScenarioCase("B"), 3)
    return [(float(T), evolve(rho0, float(T))) for T in GRID]


def test_criterion_1_case_a_exactness(case_a_data):
    with criterion(1, "case A engine matches closed forms to 1e-9"):
        errs = {k: 0.0 for k in ("N_c", "N_f", "N_a", "N_f1", "N_a1", "N_tot2")}
        for T, n_c, rep_f, rep_a in case_a_data:
            rec = oracle.case_a(T)
            errs["N_c"] = max(errs["N_c"], abs(n_c - rec.N_c))
            errs["N_f"] = max(errs["N_f"], abs(rep_f.layer_sums[0] - rec.N_f))
            errs["N_a"] = max(errs["N_a"], abs(rep_a.layer_sums[0] - rec.N_a))
            errs["N_f1"] = max(errs["N_f1"], abs(rep_f.potentials[1] - rec.N_f1))
            errs["N_a1"] = max(errs["N_a1"], abs(rep_a.potentials[1] - rec.N_a1))
            n_tot2 = total_nonclassicality(n_c, rep_f, rep_a, 2)
            errs["N_tot2"] = max(errs["N_tot2"], abs(n_tot2 - rec.N_tot2))
        for name, err in errs.items():
            assert err < 1e-9, f"{name} max error {err:.3e}"

        # spot values
        by_t = {round(T / (math.pi / 4)): (n_c, f, a) for T, n_c, f, a in case_a_data
                if abs(T / (math.pi / 4) - round(T / (math.pi / 4))) < 1e-9}
        n_c, rep_f, rep_a = by_t[1]   # T = pi/4
        assert abs(n_c - 0.5) < 1e-9
        assert abs(rep_f.layer_sums[0] - (SQRT2 - 1) / 4) < 1e-9
        n_c, rep_f, rep_a = by_t[2]   # T = pi/2
        assert abs(rep_f.layer_sums[0] - 0.5) < 1e-9
        n_c, rep_f, rep_a = by_t[0]   # T = 0
        assert abs(rep_a.layer_sums[0] - 0.5) < 1e-9


def test_criterion_2_fock_potentials():
    with criterion(2, "Fock-state entanglement potentials 1/2 and (1+2*sqrt(2))/4"):
        one = StateVector(single_mode("f", 3), fock(1, 3)).density()
        two = StateVector(single_mode("f", 3), fock(2, 3)).density()
        assert abs(entanglement_potential(one) - 0.5) < 1e-10
        assert abs(entanglement_potential(two) - (1 + 2 * SQRT2) / 4) < 1e-10


def test_criterion_3_periods_and_exchange(case_a_data):
    with criterion(3, "case A zero crossings and alternating maxima"):
        for T, n_c, rep_f, rep_a in case_a_data:
            k_half = T / (math.pi / 2)
            if abs(k_half - round(k_half)) < 1e-9:
                assert abs(n_c) < 1e-9, f"N_c({T}) = {n_c}"
                n_f, n_a = rep_f.layer_sums[0], rep_a.layer_sums[0]
                if round(k_half) % 2 == 0:
                    assert abs(n_f) < 1e-9 and abs(n_a - 0.5) < 1e-9
                else:
                    assert abs(n_f - 0.5) < 1e-9 and abs(n_a) < 1e-9
            k_full = T / math.pi
            if abs(k_full - round(k_full)) < 1e-9:
                assert abs(rep_f.layer_sums[0]) < 1e-9


def test_criterion_4_depletion_ratio(case_a_data):
    with criterion(4, "depletion ratios within [1/6, 1/4] where parent > 1e-3"):
        for T, _, rep_f, rep_a in case_a_data:
            for rep in (rep_f, rep_a):
                for ratio in depletion_ratios(rep, floor=1e-3):
                    assert 1 / 6 <= ratio <= 1 / 4, f"ratio {ratio} at T={T}"
        rho0 = initial_state(ScenarioCase("A"), 2)
        field_half_pi = reduced_states(evolve(rho0, math.pi / 2))[0]
        r = depletion_ratios(cascade(field_half_pi, 2))[0]
        assert abs(r - 0.2071) < 1e-3
        field_quarter_pi = reduced_states(evolve(rho0, math.pi / 4))[0]
        r = depletion_ratios(cascade(field_quarter_pi, 2))[0]
        assert abs(r - 0.1959) < 1e-3


def test_criterion_5_monotone_totals_and_lower_bound(case_a_data):
    with criterion(5, "totals non-decreasing in layers; N_tot >= 0.5 - 1e-9"):
        min_tot1 = math.inf
        for T, n_c, rep_f, rep_a in case_a_data:
            totals = [
                total_nonclassicality(n_c, rep_f, rep_a, layer) for layer in range(1, 5)
            ]
            for lo, hi in zip(totals, totals[1:]):
                assert hi >= lo - 1e-12
            min_tot1 = min(min_tot1, totals[0])
        assert min_tot1 >= 0.5 - 1e-9


def test_criterion_6_case_b_cross_validation(case_b_states):
    with criterion(6, "case B engine rate sqrt(2); printed sqrt(3) reported, not asserted"):
        max_err = 0.0
        for T, rho in case_b_states:
            engine_n_c = negativity(rho, "a")
            max_err = max(max_err, abs(engine_n_c - 0.5 * abs(math.sin(2 * SQRT2 * T))))
        assert max_err < 1e-9

        # doublet oracle vs full propagator on every doublet
        d = 4
        rng = np.random.default_rng(61)
        for T in rng.uniform(0, 4 * math.pi, size=50):
            u = propagator(d, T)
            for n in range(1, d):
                excited = tensor([fock(n - 1, d), fock(1, 2)])
                ground = tensor([fock(n, d), fock(0, 2)])
                ce, cg = sector_evolution(n, T, d)
                assert np.max(np.abs(u @ excited - (ce * excited + cg * ground))) < 1e-12

        # as-printed sqrt(3) formula is exercised and diverges from the engine
        printed_err = 0.0
        for T, rho in case_b_states:
            rec = oracle.case_b(T, omega_b=oracle.CASE_B_RATE_PRINTED)
            printed_err = max(printed_err, abs(negativity(rho, "a") - rec.N_c))
        assert printed_err > 0.1   # documented inconsistency, reported not matched
        print(f"    note: printed sqrt(3) formula diverges from engine by {printed_err:.3f}")


def test_criterion_7_case_c_reduced_match():
    with criterion(7, "case C reduced matrices match the closed form to 1e-8"):
        d = 3
        rho0 = initial_state(ScenarioCase("C", mean_photon=0.01), d)
        w = np.real(np.diag(truncated_thermal(0.01, d).matrix))
        p0, p1 = float(w[0]), float(w[1])
        assert abs(p0 * (100 / 101 + 100 / 101**2) - 100 / 101) < 1e-12  # pre-normalization weight
        err = 0.0
        for T in GRID:
            rho_f, rho_a = reduced_states(evolve(rho0, float(T)))
            atom_o, field_o = oracle.case_c_reduced(float(T), p0, p1)
            err = max(err, float(np.max(np.abs(rho_a.matrix - atom_o))))
            err = max(err, float(np.max(np.abs(rho_f.matrix - field_o))))
        assert err < 1e-8


def test_criterion_8_case_d_reduced_match_and_coherence():
    with criterion(8, "case D matches printed forms to 1e-3; coherence pattern holds"):
        d = 3
        rho0 = initial_state(ScenarioCase("D", alpha=0.1), d)
        c0_raw = math.exp(-1 / 200)
        c1_raw = c0_raw / 10
        err = 0.0
        for T in GRID:
            rho_f, rho_a = reduced_states(evolve(rho0, float(T)))
            atom_o, field_o = oracle.case_d_reduced(float(T), c0_raw, c1_raw)
            err = max(err, float(np.max(np.abs(rho_a.matrix - atom_o))))
            err = max(err, float(np.max(np.abs(rho_f.matrix - field_o))))
        assert err < 1e-3

        cfgs = [
            parse_config({"case": "A", "n_points": 81}),
            parse_config({"case": "B", "n_points": 81}),
            parse_config({"case": "C", "mean_photon": 0.01, "n_points": 81}),
        ]
        for cfg in cfgs:
            result = run_scenario(cfg)
            assert np.all(result.column("coh_a") < 1e-12)
            assert np.all(result.column("coh_f") < 1e-12)
        cfg_d = parse_config({"case": "D", "alpha": 0.1, "t_max": math.pi, "n_points": 5})
        assert run_scenario(cfg_d).column("coh_a")[1] > 1e-4   # T = pi/4


def test_criterion_9_structural_properties(tmp_path):
    with criterion(9, "structural invariants and CSV determinism"):
        # beam splitter: unitarity and photon-number conservation
        for d in (2, 3, 4):
            u = beam_splitter_unitary(d)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d * d))) < 1e-12
            a = annihilation(d)
            n_tot = np.kron(a.conj().T @ a, np.eye(d)) + np.kron(np.eye(d), a.conj().T @ a)
            assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-12

        # evolution unitarity: trace and spectrum preserved
        rho0 = initial_state(ScenarioCase("C", mean_photon=0.05), 3)
        spec0 = np.sort(np.linalg.eigvalsh(rho0.matrix))
        for T in (0.7, 2.3, 5.1):
            rho = evolve(rho0, T)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-10
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(rho.matrix)) - spec0)) < 1e-10

        # negativity invariance under local diagonal phase unitaries
        rng = np.random.default_rng(91)
        base = evolve(initial_state(ScenarioCase("D", alpha=0.3), 4), 1.1)
        ref = negativity(base, "a")
        for _ in range(10):
            theta, phi = rng.uniform(0, 2 * math.pi, size=2)
            uf = np.diag(np.exp(-1j * theta * np.arange(4)))
            ua = np.diag(np.exp(-1j * phi * np.array([-1.0, 1.0])))
            u = np.kron(uf, ua)
            rotated = DensityOperator(base.layout, u @ base.matrix @ u.conj().T)
            assert abs(negativity(rotated, "a") - ref) < 1e-10

        # cascade branch symmetry for the Fock-diagonal cases A-C
        scenarios = [
            (ScenarioCase("A"), 2),
            (ScenarioCase("B"), 3),
            (ScenarioCase("C", mean_photon=0.01), 3),
        ]
        for case, d in scenarios:
            rho0 = initial_state(case, d)
            for T in np.linspace(0, math.pi, 5):
                for reduced in reduced_states(evolve(rho0, float(T))):
                    tree = cascade_tree(reduced, 2)
                    assert abs(tree[1][0] - tree[1][1]) < 1e-10

        # CSV determinism: identical config, byte-identical output
        prefix = str(tmp_path / "det")
        args = ["--case", "A", "--n-points", "41", "--output-prefix", prefix]
        assert main(args) == 0
        first = open(prefix + ".csv", "rb").read()
        assert main(args) == 0
        assert open(prefix + ".csv", "rb").read() == first
