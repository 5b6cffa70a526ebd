import numpy as np
import pytest

from jcnc.hilbert import (
    DensityOperator,
    DimensionError,
    LabelError,
    ModeLayout,
    ShapeError,
    StateValidationError,
    StateVector,
    annihilation,
    density_diagnostics,
    fock,
    hermitian_eigenvalues,
    l1_coherence,
    negativity,
    partial_trace,
    partial_transpose,
    single_mode,
    tensor,
)


def random_density(rng, layout):
    d = layout.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityOperator(layout, m / np.trace(m))


def bell_like(theta):
    # cos|01> - i sin|10> over two qubits labelled f, a
    layout = ModeLayout((("f", 2), ("a", 2)))
    v = np.zeros(4, dtype=complex)
    v[1] = np.cos(theta)
    v[2] = -1j * np.sin(theta)
    return StateVector(layout, v).density()


class TestModeLayout:
    def test_basic(self):
        lay = ModeLayout((("f", 3), ("a", 2)))
        assert lay.labels == ("f", "a")
        assert lay.dims == (3, 2)
        assert lay.dim == 6
        assert lay.index("a") == 1

    def test_duplicate_label(self):
        with pytest.raises(LabelError):
            ModeLayout((("f", 2), ("f", 2)))

    def test_small_dim(self):
        with pytest.raises(DimensionError):
            ModeLayout((("f", 1),))

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            ModeLayout((("f", 2),)).index("b")


class TestStateTypes:
    def test_norm_enforced(self):
        with pytest.raises(StateValidationError):
            StateVector(single_mode("f", 2), [1.0, 1.0])
        with pytest.raises(StateValidationError):
            StateVector(single_mode("f", 2), [np.nan, 0.0])

    def test_density_invariants(self):
        lay = single_mode("f", 2)
        with pytest.raises(StateValidationError):
            DensityOperator(lay, np.diag([0.6, 0.5]))
        with pytest.raises(StateValidationError):
            DensityOperator(lay, np.array([[0.5, 0.3], [0.1, 0.5]]))
        with pytest.raises(StateValidationError):
            DensityOperator(lay, np.array([[1.2, 0.0], [0.0, -0.2]]))
        for d in (2, 3):
            with pytest.raises(StateValidationError):
                DensityOperator(single_mode("f", d), np.full((d, d), np.nan))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            DensityOperator(single_mode("f", 3), np.eye(2) / 2)

    def test_one_bad_matrix_in_a_stack(self):
        lay = single_mode("f", 2)
        stack = np.stack([np.eye(2) / 2] * 5).astype(complex)
        DensityOperator(lay, stack)
        stack[2] = np.diag([1.2, -0.2])
        with pytest.raises(StateValidationError, match="eigenvalue"):
            DensityOperator(lay, stack)


class TestAnnihilation:
    def test_d2(self):
        assert np.array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_matrix_element(self):
        a = annihilation(3)
        assert np.allclose(a @ fock(2, 3), np.sqrt(2) * fock(1, 3))

    def test_truncated_commutator(self):
        a = annihilation(4)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(4, dtype=complex)
        expected[3, 3] = -3.0
        assert np.allclose(comm, expected)

    def test_invalid_dim(self):
        with pytest.raises(DimensionError):
            annihilation(1)


class TestTensor:
    def test_identity_factors(self):
        assert np.array_equal(tensor([np.eye(2), np.eye(2)]), np.eye(4))

    def test_basis_ordering(self):
        v = tensor([fock(1, 2), fock(0, 2)])
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.array_equal(v, expected)

    def test_factor_action(self):
        op = tensor([annihilation(3), np.eye(2)])
        state = tensor([fock(1, 3), fock(1, 2)])
        assert np.allclose(op @ state, tensor([fock(0, 3), fock(1, 2)]))

    def test_mixed_input_rejected(self):
        with pytest.raises(TypeError):
            tensor([np.eye(2), fock(0, 2)])

    def test_layout_concatenation(self):
        m = tensor([np.eye(2) / 2, np.diag([1.0, 0.0])])
        rho = DensityOperator(ModeLayout((("f", 2), ("a", 2))), m)
        assert rho.layout.labels == ("f", "a")
        assert np.allclose(rho.matrix, np.diag([0.5, 0, 0.5, 0]))


class TestPartialTrace:
    def test_maximally_entangled_reduction(self):
        # evolved case-A state at T=pi/4 reduces to the maximally mixed field
        rho = bell_like(np.pi / 4)
        rf = partial_trace(rho, {"f"})
        assert np.allclose(rf.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(7)
        ra = random_density(rng, single_mode("A", 3))
        rb = random_density(rng, single_mode("B", 2))
        rho = DensityOperator(ModeLayout((("A", 3), ("B", 2))), tensor([ra.matrix, rb.matrix]))
        assert np.allclose(partial_trace(rho, {"A"}).matrix, ra.matrix, atol=1e-12)
        assert np.allclose(partial_trace(rho, {"B"}).matrix, rb.matrix, atol=1e-12)

    def test_full_keep(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, ModeLayout((("A", 2), ("B", 2))))
        out = partial_trace(rho, {"A", "B"})
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, ModeLayout((("A", 2), ("B", 2), ("C", 2))))
        step = partial_trace(partial_trace(rho, {"A", "B"}), {"A"})
        direct = partial_trace(rho, {"A"})
        assert np.allclose(step.matrix, direct.matrix, atol=1e-12)

    def test_unknown_label(self):
        rho = bell_like(0.3)
        with pytest.raises(LabelError):
            partial_trace(rho, {"nope"})
        with pytest.raises(LabelError):
            partial_trace(rho, set())


class TestPartialTranspose:
    def test_moves_coherences(self):
        # at T=pi/4 the off-diagonal blocks move to |00><11| positions
        rho = bell_like(np.pi / 4)
        pt = partial_transpose(rho, "a")
        assert abs(pt[0, 3] - 0.5j) < 1e-12
        assert abs(pt[3, 0] + 0.5j) < 1e-12
        assert abs(pt[1, 2]) < 1e-12 and abs(pt[2, 1]) < 1e-12

    def test_diagonal_unchanged(self):
        rho = DensityOperator(
            ModeLayout((("f", 2), ("a", 2))), np.diag([0.4, 0.3, 0.2, 0.1])
        )
        assert np.array_equal(partial_transpose(rho, "a"), rho.matrix)

    def test_involution(self):
        # separable mixture, so the transposed matrix is itself a valid state
        rng = np.random.default_rng(10)
        layout = ModeLayout((("f", 3), ("a", 2)))
        mats = [
            np.kron(
                random_density(rng, single_mode("f", 3)).matrix,
                random_density(rng, single_mode("a", 2)).matrix,
            )
            for _ in range(4)
        ]
        rho = DensityOperator(layout, sum(mats) / 4.0)
        pt = partial_transpose(rho, "a")
        rho2 = DensityOperator(layout, pt)
        assert np.allclose(partial_transpose(rho2, "a"), rho.matrix, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, ModeLayout((("f", 3), ("a", 2))))
        pt = partial_transpose(rho, "f")
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


class TestHermitianEigenvalues:
    def test_bell_pt_spectrum(self):
        pt = partial_transpose(bell_like(np.pi / 4), "a")
        ev = hermitian_eigenvalues(pt)
        assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_identity(self):
        ev = hermitian_eigenvalues(np.eye(4))
        assert np.allclose(ev, np.ones(4))

    def test_sorted(self):
        ev = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(ev, [1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ShapeError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ShapeError):
            hermitian_eigenvalues(np.full((2, 2), np.nan))

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        m = m + m.T
        ev = hermitian_eigenvalues(m)
        assert abs(ev.sum() - np.trace(m)) < 1e-10

    def test_tensor_spectrum_is_pairwise_products(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a + a.conj().T
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = b + b.conj().T
        ev = hermitian_eigenvalues(tensor([a, b]))
        ea = hermitian_eigenvalues(a)
        eb = hermitian_eigenvalues(b)
        products = np.sort(np.outer(ea, eb).ravel())
        assert np.allclose(ev, products, atol=1e-10)


class TestNegativity:
    def test_bell_half(self):
        assert abs(negativity(bell_like(np.pi / 4), "a") - 0.5) < 1e-12

    def test_general_angle(self):
        for T in np.linspace(0, np.pi, 17):
            expected = 0.5 * abs(np.sin(2 * T))
            assert abs(negativity(bell_like(T), "a") - expected) < 1e-10

    def test_product_state_zero(self):
        rng = np.random.default_rng(14)
        ra = random_density(rng, single_mode("A", 2))
        rb = random_density(rng, single_mode("B", 3))
        rho = DensityOperator(ModeLayout((("A", 2), ("B", 3))), tensor([ra.matrix, rb.matrix]))
        assert negativity(rho, "A") == 0.0

    def test_bipartition_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rho = random_density(rng, ModeLayout((("A", 2), ("B", 3))))
            assert abs(negativity(rho, "A") - negativity(rho, "B")) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(16)
        layout = ModeLayout((("f", 2), ("a", 2)))
        n_op = np.diag([0.0, 1.0])
        for _ in range(10):
            rho = random_density(rng, layout)
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            uf = np.diag(np.exp(-1j * theta * np.diag(n_op)))
            ua = np.diag(np.exp(-1j * phi * np.array([-1.0, 1.0])))
            u = np.kron(uf, ua)
            rotated = DensityOperator(layout, u @ rho.matrix @ u.conj().T)
            assert abs(negativity(rotated, "a") - negativity(rho, "a")) < 1e-10


class TestStacks:
    def test_stacked_equals_per_matrix(self):
        # every kernel function maps each matrix of a stack independently
        rng = np.random.default_rng(19)
        layout = ModeLayout((("A", 3), ("B", 2)))
        singles = [random_density(rng, layout) for _ in range(6)]
        stack = DensityOperator(layout, np.stack([r.matrix for r in singles]).reshape(2, 3, 6, 6))
        neg = negativity(stack, "B")
        coh = l1_coherence(stack)
        reduced = partial_trace(stack, {"A"}).matrix
        pt = partial_transpose(stack, "A")
        assert neg.shape == coh.shape == (2, 3)
        for k, rho in enumerate(singles):
            i, j = divmod(k, 3)
            assert abs(neg[i, j] - negativity(rho, "B")) < 1e-12
            assert abs(coh[i, j] - l1_coherence(rho)) < 1e-12
            assert np.allclose(reduced[i, j], partial_trace(rho, {"A"}).matrix, atol=1e-12)
            assert np.array_equal(pt[i, j], partial_transpose(rho, "A"))


class TestCoherence:
    def test_diagonal_zero(self):
        rho = DensityOperator(single_mode("f", 3), np.diag([0.5, 0.3, 0.2]))
        assert l1_coherence(rho) == 0.0

    def test_plus_state(self):
        v = StateVector(single_mode("f", 2), np.array([1.0, 1.0]) / np.sqrt(2))
        assert abs(l1_coherence(v.density()) - 1.0) < 1e-12

    def test_coherent_case_off_diagonal(self):
        # atom reduced state of the small-coherent-field case at T=pi/4
        c0 = np.exp(-1 / 200)
        c1 = c0 / 10
        norm = np.hypot(c0, c1)
        c0, c1 = c0 / norm, c1 / norm
        T = np.pi / 4
        off = c0 * c1 * np.cos(np.sqrt(2) * T) * np.sin(T)
        m = np.array(
            [
                [c0**2 * np.sin(T) ** 2 + c1**2 * np.sin(np.sqrt(2) * T) ** 2, -1j * off],
                [1j * off, c0**2 * np.cos(T) ** 2 + c1**2 * np.cos(np.sqrt(2) * T) ** 2],
            ]
        )
        rho = DensityOperator(single_mode("a", 2), m)
        expected = 2 * c0 * c1 * np.cos(np.pi / (2 * np.sqrt(2))) * np.sin(np.pi / 4)
        assert abs(l1_coherence(rho) - expected) < 1e-12


class TestValidateDensity:
    def test_maximally_mixed(self):
        diag = density_diagnostics(np.eye(2) / 2, tol=1e-9)
        assert diag.hermiticity_deviation == 0.0
        assert diag.trace_deviation == 0.0
        assert diag.min_eigenvalue >= 0.0
        assert diag.ok

    def test_bad_trace_flagged(self):
        diag = density_diagnostics(np.diag([0.6, 0.5]), tol=1e-9)
        assert abs(diag.trace_deviation - 0.1) < 1e-12
        assert not diag.ok
        assert not density_diagnostics(np.full((3, 3), np.nan)).ok

    def test_accepts_density_operator(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, single_mode("f", 4))
        assert density_diagnostics(rho, tol=1e-10).ok
