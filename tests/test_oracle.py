import math

import numpy as np
import pytest

from jcnc import oracle

SQRT2 = np.sqrt(2.0)
GRID = np.linspace(0.0, 2 * np.pi, 401)


def case_a_reduced(T: float) -> tuple[np.ndarray, np.ndarray]:
    """(field, atom) reduced 2x2 matrices for the vacuum case."""
    c2, s2 = math.cos(T) ** 2, math.sin(T) ** 2
    field = np.diag([c2, s2]).astype(complex)
    atom = np.diag([s2, c2]).astype(complex)
    return field, atom


class TestCaseA:
    def test_t0(self):
        rec = oracle.case_a(0.0)
        assert rec.N_c == 0.0
        assert abs(rec.N_f) < 1e-15
        assert abs(rec.N_a - 0.5) < 1e-15

    def test_quarter_pi(self):
        rec = oracle.case_a(np.pi / 4)
        assert abs(rec.N_c - 0.5) < 1e-15
        assert abs(rec.N_f - (SQRT2 - 1) / 4) < 1e-15
        assert abs(rec.N_a - (SQRT2 - 1) / 4) < 1e-15
        assert abs(rec.N_f1 - (np.sqrt(10) - 3) / 8) < 1e-15
        assert abs(rec.N_a1 - (np.sqrt(10) - 3) / 8) < 1e-15

    def test_half_pi(self):
        rec = oracle.case_a(np.pi / 2)
        assert abs(rec.N_c) < 1e-15
        assert abs(rec.N_f - 0.5) < 1e-15
        assert abs(rec.N_a) < 1e-15
        assert abs(rec.N_totInf - 5 / 6) < 1e-15

    def test_totals_consistent(self):
        for T in GRID:
            rec = oracle.case_a(T)
            assert abs(rec.N_tot1 - (rec.N_c + rec.N_f + rec.N_a)) < 1e-15
            assert abs(rec.N_tot2 - (rec.N_tot1 + 2 * rec.N_f1 + 2 * rec.N_a1)) < 1e-15
            assert rec.N_tot2 >= rec.N_tot1 - 1e-15
            for v in (rec.N_c, rec.N_f, rec.N_a, rec.N_f1, rec.N_a1):
                assert v >= -1e-15

    def test_duality_shift(self):
        for T in GRID:
            a, b = oracle.case_a(T), oracle.case_a(T + np.pi / 2)
            assert abs(a.N_a - b.N_f) < 1e-12
            assert abs(a.N_a1 - b.N_f1) < 1e-12

    def test_shift_sign_irrelevant(self):
        # the +/- pi/2 shift gives the same values either way
        for T in np.linspace(0, np.pi, 41):
            plus = oracle.case_a(T + np.pi / 2)
            minus = oracle.case_a(T - np.pi / 2)
            assert abs(plus.N_f - minus.N_f) < 1e-12
            assert abs(plus.N_f1 - minus.N_f1) < 1e-12

    def test_periods(self):
        for T in np.linspace(0, np.pi, 101):
            assert abs(oracle.case_a(T).N_c - oracle.case_a(T + np.pi / 2).N_c) < 1e-12
            assert abs(oracle.case_a(T).N_f - oracle.case_a(T + np.pi).N_f) < 1e-12
            assert abs(oracle.case_a(T).N_a - oracle.case_a(T + np.pi).N_a) < 1e-12

    def test_eigen_intermediates(self):
        for T in np.linspace(0, 2 * np.pi, 41):
            rec = oracle.case_a(T)
            chi, xi = oracle.chi(T), oracle.xi(T)
            assert abs(chi - 0.25 * np.sqrt(3 + np.cos(4 * T))) < 1e-15
            assert abs(xi - np.sqrt(11 + 4 * np.cos(2 * T) + np.cos(4 * T))) < 1e-15
            lam4 = np.cos(T) ** 2 / 2 - chi
            assert abs(rec.N_f - abs(min(lam4, 0.0))) < 1e-12
            lam4_res = (3 + np.cos(2 * T) - xi) / 8
            assert abs(rec.N_f1 - abs(min(lam4_res, 0.0))) < 1e-12


class TestCaseAReduced:
    def test_t0(self):
        field, atom = case_a_reduced(0.0)
        assert np.allclose(field, np.diag([1, 0]))
        assert np.allclose(atom, np.diag([0, 1]))

    def test_maximally_mixed(self):
        field, atom = case_a_reduced(np.pi / 4)
        assert np.allclose(field, np.eye(2) / 2)
        assert np.allclose(atom, np.eye(2) / 2)

    def test_half_pi(self):
        field, atom = case_a_reduced(np.pi / 2)
        assert np.allclose(field, np.diag([0, 1]), atol=1e-15)
        assert np.allclose(atom, np.diag([1, 0]), atol=1e-15)


class TestCaseB:
    def test_t0(self):
        rec = oracle.case_b(0.0)
        assert rec.N_c == 0.0
        assert abs(rec.N_a) < 1e-15

    def test_printed_frequency_maximum(self):
        rec = oracle.case_b(np.pi / (4 * np.sqrt(3)), omega_b=oracle.CASE_B_RATE_PRINTED)
        assert abs(rec.N_c - 0.5) < 1e-15

    def test_engine_frequency_transfer(self):
        rec = oracle.case_b(np.pi / (2 * SQRT2), omega_b=SQRT2)
        assert abs(rec.N_a - 0.5) < 1e-12
        assert abs(rec.N_c) < 1e-12

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            oracle.case_b(1.0, omega_b=0.0)


class TestCaseCReduced:
    def test_t0(self):
        p0, p1 = 101 / 102, 1 / 102
        atom, field = oracle.case_c_reduced(0.0, p0, p1)
        assert np.allclose(atom, np.diag([0, 1]))
        assert np.allclose(field, np.diag([p0, p1, 0]))

    def test_p1_zero_reduces_to_case_a(self):
        for T in np.linspace(0, np.pi, 11):
            atom, field = oracle.case_c_reduced(T, 1.0, 0.0)
            field_a, atom_a = case_a_reduced(T)
            assert np.allclose(atom, atom_a, atol=1e-14)
            assert np.allclose(field[:2, :2], field_a, atol=1e-14)
            assert abs(field[2, 2]) < 1e-14

    def test_vacuum_hole_at_half_pi(self):
        p0 = (100 / 101) / (100 / 101 + 100 / 101**2)
        atom, field = oracle.case_c_reduced(np.pi / 2, p0, 1 - p0)
        assert abs(field[0, 0]) < 1e-15

    def test_valid_states(self):
        for T in GRID[::8]:
            atom, field = oracle.case_c_reduced(T, 0.9, 0.1)
            for m in (atom, field):
                assert abs(np.trace(m) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(m)) > -1e-12

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            oracle.case_c_reduced(0.5, 0.7, 0.7)


class TestCaseDReduced:
    def test_t0(self):
        c0 = np.exp(-1 / 200)
        c1 = c0 / 10
        norm = np.hypot(c0, c1)
        c0, c1 = c0 / norm, c1 / norm
        atom, field = oracle.case_d_reduced(0.0, c0, c1)
        assert np.allclose(atom, np.diag([0, 1]), atol=1e-14)
        pure = np.outer([c0, c1, 0.0], [c0, c1, 0.0])
        assert np.allclose(field, pure, atol=1e-14)

    def test_c1_zero_is_diagonal_case_a(self):
        for T in np.linspace(0, np.pi, 11):
            atom, field = oracle.case_d_reduced(T, 1.0, 0.0)
            atom_c, field_c = oracle.case_c_reduced(T, 1.0, 0.0)
            assert np.allclose(atom, atom_c, atol=1e-14)
            assert np.allclose(field, field_c, atol=1e-14)

    def test_off_diagonal_at_quarter_pi(self):
        c0 = np.exp(-1 / 200)
        c1 = c0 / 10
        atom, _ = oracle.case_d_reduced(np.pi / 4, c0, c1)
        expected = c0 * c1 * np.cos(np.pi / (2 * SQRT2)) / SQRT2
        assert abs(abs(atom[1, 0]) - expected) < 1e-14
        assert expected > 0

    def test_valid_states(self):
        c0 = np.sqrt(0.97)
        c1 = np.sqrt(0.03)
        for T in GRID[::8]:
            atom, field = oracle.case_d_reduced(T, c0, c1)
            for m in (atom, field):
                assert np.max(np.abs(m - m.conj().T)) < 1e-14
                assert abs(np.trace(m) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(m)) > -1e-12

    def test_bad_amplitudes(self):
        with pytest.raises(ValueError):
            oracle.case_d_reduced(0.5, 0.9, 0.9)


def case_a_values(rec):
    return (rec.N_c, rec.N_f, rec.N_a, rec.N_f1, rec.N_a1, rec.N_tot1, rec.N_tot2,
            rec.N_totInf)


@pytest.mark.parametrize(
    "closed_form, params, values, shapes",
    [
        (oracle.case_a, (), case_a_values, [()] * 8),
        (oracle.case_b, (oracle.CASE_B_RATE_PRINTED,), lambda rec: (rec.N_c, rec.N_a), [()] * 2),
        (oracle.case_c_reduced, (0.9, 0.1), tuple, [(2, 2), (3, 3)]),
        (oracle.case_d_reduced, (np.sqrt(0.97), np.sqrt(0.03)), tuple, [(2, 2), (3, 3)]),
    ],
    ids=["case_a", "case_b", "case_c", "case_d"],
)
def test_array_times_match_scalar_calls(closed_form, params, values, shapes):
    stacked_values = values(closed_form(GRID, *params))
    scalar = [values(closed_form(float(T), *params)) for T in GRID]
    assert [np.shape(v) for v in scalar[0]] == shapes
    for k, stacked in enumerate(stacked_values):
        per_time = [s[k] for s in scalar]
        assert stacked.shape == (len(GRID),) + np.shape(per_time[0])
        assert np.max(np.abs(stacked - np.stack(per_time))) < 1e-15
