import math
import warnings

import numpy as np
import pytest

from jcnc.engine import (
    ATOM,
    FIELD,
    ScenarioCase,
    evolve,
    initial_state,
    interaction_hamiltonian,
    jc_layout,
    propagator,
    reduced_states,
    sector_evolution,
    total_excitation,
    truncated_coherent,
    truncated_thermal,
)
from jcnc.hilbert import (
    DensityOperator,
    DimensionError,
    ShapeError,
    StateVector,
    density_diagnostics,
    fock,
    single_mode,
    tensor,
)


def basis_state(nf, ma, d):
    return StateVector(jc_layout(d), tensor([fock(nf, d), fock(ma, 2)]))


class TestHamiltonian:
    def test_d2_single_coupling(self):
        h = interaction_hamiltonian(2)
        # only |1_f,0_a> <-> |0_f,1_a| with unit rate (indices 2 and 1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(h, expected)

    def test_sqrt_n_element(self):
        h = interaction_hamiltonian(3)
        bra = tensor([fock(1, 3), fock(1, 2)])
        ket = tensor([fock(2, 3), fock(0, 2)])
        assert abs(bra.conj() @ h @ ket - np.sqrt(2)) < 1e-14

    def test_commutes_with_total_excitation(self):
        for d in (2, 3, 5):
            h = interaction_hamiltonian(d)
            n = total_excitation(d)
            assert np.max(np.abs(h @ n - n @ h)) < 1e-12

    def test_invalid_dim(self):
        with pytest.raises(DimensionError):
            interaction_hamiltonian(1)


class TestEvolve:
    def test_case_a_closed_form(self):
        d = 2
        rho0 = basis_state(0, 1, d).density()
        for T in (0.3, np.pi / 4, 1.7):
            rho = evolve(rho0, T)
            v = np.cos(T) * tensor([fock(0, d), fock(1, 2)]) - 1j * np.sin(T) * tensor(
                [fock(1, d), fock(0, 2)]
            )
            assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_identity_at_t0(self):
        rho0 = basis_state(1, 1, 3).density()
        assert np.allclose(evolve(rho0, 0.0).matrix, rho0.matrix, atol=1e-14)

    def test_fock_doublet_rate_sqrt2(self):
        d = 3
        rho0 = basis_state(2, 0, d).density()
        T = 0.9
        rho = evolve(rho0, T)
        r = np.sqrt(2) * T
        v = np.cos(r) * tensor([fock(2, d), fock(0, 2)]) - 1j * np.sin(r) * tensor(
            [fock(1, d), fock(1, 2)]
        )
        assert np.allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_matches_sector_oracle_on_doublets(self):
        d = 4
        rng = np.random.default_rng(21)
        for T in rng.uniform(0, 4 * np.pi, size=100):
            for n in range(1, d):
                u = propagator(d, T)
                evolved = u @ basis_state(n - 1, 1, d).amplitudes
                ce, cg = sector_evolution(n, T, d)
                expected = ce * basis_state(n - 1, 1, d).amplitudes + cg * basis_state(
                    n, 0, d
                ).amplitudes
                assert np.max(np.abs(evolved - expected)) < 1e-12

    def test_unitarity(self):
        rho0 = initial_state(ScenarioCase("C", mean_photon=0.3), 4)
        spec0 = np.sort(np.linalg.eigvalsh(rho0.matrix))
        rho = evolve(rho0, 2.1)
        assert density_diagnostics(rho, 1e-10).ok
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho.matrix)), spec0, atol=1e-10)

    def test_group_property(self):
        rho0 = initial_state(ScenarioCase("D", alpha=0.4), 5)
        a = evolve(evolve(rho0, 0.7), 1.9)
        b = evolve(rho0, 2.6)
        assert np.allclose(a.matrix, b.matrix, atol=1e-10)

    def test_total_excitation_conserved(self):
        d = 3
        rho0 = initial_state(ScenarioCase("C", mean_photon=0.05), d)
        n_op = total_excitation(d)
        e0 = np.trace(n_op @ rho0.matrix).real
        for T in np.linspace(0, 2 * np.pi, 9):
            e = np.trace(n_op @ evolve(rho0, T).matrix).real
            assert abs(e - e0) < 1e-10

    def test_case_a_period_pi(self):
        rho0 = initial_state(ScenarioCase("A"), 2)
        for T in np.linspace(0, np.pi, 7):
            a = evolve(rho0, T)
            b = evolve(rho0, T + np.pi)
            assert np.allclose(a.matrix, b.matrix, atol=1e-10)

    def test_layout_mismatch(self):
        bad = DensityOperator(single_mode("f", 4), np.eye(4) / 4)
        with pytest.raises(ShapeError):
            evolve(bad, 1.0)


class TestSectorEvolution:
    def test_full_transfer(self):
        ce, cg = sector_evolution(1, np.pi / 2)
        assert abs(ce) < 1e-15
        assert abs(cg + 1j) < 1e-15

    def test_t0(self):
        assert sector_evolution(1, 0.0) == (1.0 + 0j, 0.0 - 0j)

    def test_n2_transfer_time(self):
        ce, cg = sector_evolution(2, np.pi / (2 * np.sqrt(2)))
        assert abs(ce) < 1e-12
        assert abs(cg + 1j) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            sector_evolution(0, 1.0)
        with pytest.raises(DimensionError):
            sector_evolution(3, 1.0, field_dim=3)


class TestInitialStates:
    def test_case_a(self):
        rho = initial_state(ScenarioCase("A"), 2)
        assert np.allclose(rho.matrix, np.diag([0, 1, 0, 0]))

    def test_case_b(self):
        rho = initial_state(ScenarioCase("B"), 3)
        expected = np.zeros((6, 6))
        expected[4, 4] = 1.0  # |2_f, 0_a>
        assert np.allclose(rho.matrix, expected)

    def test_case_c_weights(self):
        rho = initial_state(ScenarioCase("C", mean_photon=0.01), 3)
        rho_f = reduced_states(rho)[0]
        p0 = 100 / 101
        p1 = 100 / 101**2
        total = p0 + p1
        assert np.allclose(
            np.diag(rho_f.matrix).real, [p0 / total, p1 / total, 0.0], atol=1e-12
        )

    def test_insufficient_dim(self):
        for case in (ScenarioCase("B"), ScenarioCase("C", mean_photon=0.1), ScenarioCase("D", alpha=0.1)):
            with pytest.raises(DimensionError):
                initial_state(case, 2)

    def test_case_param_validation(self):
        with pytest.raises(ValueError):
            ScenarioCase("C")
        with pytest.raises(ValueError):
            ScenarioCase("D")
        with pytest.raises(ValueError):
            ScenarioCase("A", alpha=0.1)
        with pytest.raises(ValueError):
            ScenarioCase("E")


class TestTruncatedThermal:
    def test_reference_weights(self):
        rho = truncated_thermal(0.01, 3)
        p = np.diag(rho.matrix).real
        raw = np.array([100 / 101, 100 / 101**2, 0.0])
        assert np.allclose(p, raw / raw.sum(), atol=1e-14)

    def test_vacuum_limit(self):
        rho = truncated_thermal(1e-12, 3)
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-9

    def test_strictly_decreasing(self):
        p = np.diag(truncated_thermal(0.7, 6).matrix).real
        assert np.all(np.diff(p[:-1]) < 0)

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            truncated_thermal(0.0, 3)

    def test_huge_mean_is_flat(self):
        # (mean + 1)^(n + 1) overflows here, r = mean / (mean + 1) does not
        p = np.diag(truncated_thermal(1e155, 3).matrix).real
        assert np.max(np.abs(p - [0.5, 0.5, 0.0])) < 1e-15


class TestTruncatedCoherent:
    @pytest.mark.filterwarnings("ignore")   # the larger alphas lose norm at small d
    def test_matches_factorial_formula(self):
        for d in range(2, 9):
            n = np.arange(d)
            for alpha in (0.1, 0.3, 1.0, -0.7, 0.4 + 0.3j):
                c = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(
                    [math.factorial(int(k)) for k in n]
                )
                c = c.astype(complex)
                c[d - 1] = 0.0
                c /= np.linalg.norm(c)
                assert np.max(np.abs(truncated_coherent(alpha, d).amplitudes - c)) < 1e-15

    def test_normalized_at_large_dimension(self):
        st = truncated_coherent(3.0, 200)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-15

    def test_reference_amplitudes(self):
        st = truncated_coherent(0.1, 3)
        c0 = np.exp(-1 / 200)
        raw = np.array([c0, c0 / 10, 0.0])
        assert np.allclose(st.amplitudes.real, raw / np.linalg.norm(raw), atol=1e-14)

    def test_vacuum(self):
        st = truncated_coherent(0.0, 3)
        assert np.allclose(st.amplitudes, [1, 0, 0])

    def test_mean_photon(self):
        alpha = 0.3
        st = truncated_coherent(alpha, 8)
        n_op = np.diag(np.arange(8.0))
        mean = (st.amplitudes.conj() @ n_op @ st.amplitudes).real
        assert abs(mean - alpha**2) < 1e-3

    def test_truncation_warning(self):
        with pytest.warns(UserWarning):
            truncated_coherent(1.5, 3)

    def test_no_warning_when_tail_small(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncated_coherent(0.1, 3)


class TestReducedStates:
    def test_case_a_populations(self):
        rho0 = initial_state(ScenarioCase("A"), 2)
        for T in np.linspace(0, np.pi, 9):
            rho_f, rho_a = reduced_states(evolve(rho0, T))
            c2, s2 = np.cos(T) ** 2, np.sin(T) ** 2
            assert np.allclose(rho_f.matrix, np.diag([c2, s2]), atol=1e-12)
            assert np.allclose(rho_a.matrix, np.diag([s2, c2]), atol=1e-12)

    def test_label_order(self):
        rho0 = initial_state(ScenarioCase("A"), 2)
        rho_f, rho_a = reduced_states(rho0)
        assert rho_f.layout.labels == (FIELD,)
        assert rho_a.layout.labels == (ATOM,)

    def test_layout_mismatch(self):
        with pytest.raises(ShapeError):
            reduced_states(DensityOperator(single_mode("f", 2), np.eye(2) / 2))
