import tracemalloc

import numpy as np
import pytest

from jcnc.cli import guard_bytes, point_bytes
from jcnc.engine import ScenarioCase, evolve, initial_state, reduced_states
from jcnc.hilbert import (
    DensityOperator,
    DimensionError,
    StateVector,
    fock,
    l1_coherence,
    single_mode,
    tensor,
)
from jcnc import nonclassicality
from jcnc.nonclassicality import (
    cascade,
    depletion_ratios,
    extrapolate_total,
    splitting_probabilities,
    total_nonclassicality,
)

from cascade_tree import cascade_tree
from jc_operators import beam_splitter_columns, bs_output, dense_beam_splitter, photon_number

SQRT2 = np.sqrt(2.0)


def mode_state(diag, label="f"):
    """Fock-diagonal state, or stack of them, with the given weights."""
    p = np.asarray(diag, dtype=float)
    d = p.shape[-1]
    return DensityOperator(single_mode(label, d), p[..., None] * np.eye(d))


def fock_state(n, d):
    return StateVector(single_mode("f", d), fock(n, d)).density()


def case_a_field(T):
    return mode_state([np.cos(T) ** 2, np.sin(T) ** 2])


class TestBeamSplitterUnitary:
    """The vacuum-ancilla columns |n, 0> of the splitter unitary."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary(self, d):
        u0 = beam_splitter_columns(d)
        assert u0.shape == (d * d, d)
        assert np.max(np.abs(u0.conj().T @ u0 - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_photon_number_conserved(self, d):
        # column n carries n photons
        u0 = beam_splitter_columns(d)
        assert np.max(np.abs(photon_number(d) @ u0 - u0 * np.arange(d))) < 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_zero_between_photon_number_sectors(self, d):
        n = np.add.outer(np.arange(d), np.arange(d)).ravel()
        assert np.all(beam_splitter_columns(d)[n[:, None] != np.arange(d)] == 0.0)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_dense_exponential(self, d):
        dense = dense_beam_splitter(d)[:, ::d]
        assert np.max(np.abs(beam_splitter_columns(d) - dense)) < 1e-14

    def test_read_only(self):
        with pytest.raises(ValueError):
            splitting_probabilities(3)[0, 0] = 1.0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_program_table_is_the_squared_dense_columns(self, d):
        # the weight that column n puts on k mode photons, summed over the ancilla
        columns = dense_beam_splitter(d)[:, ::d].reshape(d, d, d)   # (mode, ancilla, n)
        kept = np.sum(np.abs(columns) ** 2, axis=1).T
        assert np.max(np.abs(splitting_probabilities(d) - kept)) < 1e-14
        with pytest.raises(DimensionError):
            splitting_probabilities(1)

    def test_vacuum_fixed(self):
        u0 = beam_splitter_columns(3)
        v = tensor([fock(0, 3), fock(0, 3)])
        assert np.allclose(u0 @ fock(0, 3), v, atol=1e-12)

    def test_single_photon_split(self):
        out = beam_splitter_columns(3) @ fock(1, 3)
        expected = (tensor([fock(1, 3), fock(0, 3)]) - 1j * tensor([fock(0, 3), fock(1, 3)])) / SQRT2
        assert np.allclose(out, expected, atol=1e-12)

    def test_two_photon_split(self):
        out = beam_splitter_columns(3) @ fock(2, 3)
        expected = (
            0.5 * tensor([fock(2, 3), fock(0, 3)])
            - (1j / SQRT2) * tensor([fock(1, 3), fock(1, 3)])
            - 0.5 * tensor([fock(0, 3), fock(2, 3)])
        )
        assert np.allclose(out, expected, atol=1e-12)

    def test_invalid_dim(self):
        with pytest.raises(DimensionError):
            beam_splitter_columns(1)


class TestQubitBeamSplitter:
    """The d = 2 truncation, which every qubit-sized mode meets."""

    def test_unitary(self):
        u0 = beam_splitter_columns(2)
        assert np.max(np.abs(u0.conj().T @ u0 - np.eye(2))) < 1e-15

    def test_excitation_split(self):
        out = beam_splitter_columns(2) @ fock(1, 2)
        expected = (tensor([fock(1, 2), fock(0, 2)]) - 1j * tensor([fock(0, 2), fock(1, 2)])) / SQRT2
        assert np.allclose(out, expected, atol=1e-15)

    def test_vacuum_and_double_fixed(self):
        # only vacuum-ancilla inputs have columns, so |1,1> is not among them
        u0 = beam_splitter_columns(2)
        assert np.allclose(u0 @ fock(0, 2), tensor([fock(0, 2), fock(0, 2)]))


class TestBsOutput:
    def test_case_a_field_output(self):
        # two-mode output for the vacuum-case reduced field state
        T = 0.8
        out = bs_output(case_a_field(T))
        c2, s2 = np.cos(T) ** 2, np.sin(T) ** 2
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = c2
        expected[2, 2] = expected[1, 1] = s2 / 2
        expected[1, 2] = -1j * s2 / 2   # -(i/2) sin^2 |0,1><1,0| + H.c.
        expected[2, 1] = 1j * s2 / 2
        assert np.allclose(out.matrix, expected, atol=1e-12)
        assert out.layout.labels == ("f", "f0")

    def test_vacuum_passthrough(self):
        out = bs_output(mode_state([1.0, 0.0, 0.0]))
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0
        assert np.allclose(out.matrix, expected, atol=1e-14)

    def test_atom_output_is_shifted_field_output(self):
        # atom-kind output equals the field output at T + pi/2
        T = 0.37
        atom = DensityOperator(
            single_mode("a", 2), np.diag([np.sin(T) ** 2, np.cos(T) ** 2])
        )
        out_atom = bs_output(atom)
        out_field = bs_output(case_a_field(T + np.pi / 2))
        assert np.allclose(out_atom.matrix, out_field.matrix, atol=1e-12)

    def test_rejects_multimode(self):
        two_mode = bs_output(case_a_field(0.5))
        with pytest.raises(DimensionError):
            bs_output(two_mode)


class TestEntanglementPotential:
    def test_fock_one(self):
        assert abs(cascade(fock_state(1, 3), 1).layer_sums[0] - 0.5) < 1e-10

    def test_fock_two(self):
        expected = (1 + 2 * SQRT2) / 4
        assert abs(cascade(fock_state(2, 3), 1).layer_sums[0] - expected) < 1e-10

    def test_maximally_mixed_qubit_mode(self):
        expected = (SQRT2 - 1) / 4
        assert abs(cascade(mode_state([0.5, 0.5]), 1).layer_sums[0] - expected) < 1e-10

    def test_vacuum_zero(self):
        assert cascade(fock_state(0, 3), 1).layer_sums[0] == 0.0

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(31)
        d = 3
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        base = StateVector(single_mode("f", d), amps).density()
        ref = cascade(base, 1).layer_sums[0]
        for theta in rng.uniform(0, 2 * np.pi, size=5):
            u = np.diag(np.exp(-1j * theta * np.arange(d)))
            rotated = DensityOperator(base.layout, u @ base.matrix @ u.conj().T)
            assert abs(cascade(rotated, 1).layer_sums[0] - ref) < 1e-10


class TestCascade:
    def test_layer_shapes(self):
        rep = cascade(case_a_field(0.6), 3)
        assert len(rep.potentials) == 3
        assert rep.subsystem == "f"
        assert all(p >= 0 for p in rep.potentials)
        tree = cascade_tree(case_a_field(0.6), 3)
        assert [len(layer) for layer in tree] == [1, 2, 4]

    def test_closed_form_residual(self):
        # each layer-2 branch carries -(1/8)(3 + cos 2T - xi(T))
        for T in np.linspace(0.1, np.pi, 7):
            rep = cascade(case_a_field(T), 2)
            xi = np.sqrt(11 + 4 * np.cos(2 * T) + np.cos(4 * T))
            expected = -(3 + np.cos(2 * T) - xi) / 8
            assert abs(rep.potentials[1] - expected) < 1e-10

    def test_vacuum_all_zero(self):
        rep = cascade(fock_state(0, 2), 3)
        assert all(p == 0.0 for p in rep.potentials)

    def test_half_pi_values(self):
        rep = cascade(case_a_field(np.pi / 2), 2)
        assert abs(rep.potentials[0] - 0.5) < 1e-10
        assert abs(rep.potentials[1] - (SQRT2 - 1) / 4) < 1e-10

    def test_branch_symmetry_fock_diagonal(self):
        # Fock-diagonal inputs give equal sibling potentials at every layer
        rng = np.random.default_rng(32)
        for _ in range(5):
            p = rng.uniform(size=3)
            tree = cascade_tree(mode_state(list(p / p.sum())), 3)
            for layer in tree[1:]:
                for i in range(0, len(layer), 2):
                    assert abs(layer[i] - layer[i + 1]) < 1e-10

    def test_potential_halves_per_layer_for_a_fock_coherent_state(self):
        # EP is proportional to the transmissivity for |0> + eps|1>; the
        # splitter output is dense
        v = np.array([1.0, 1e-3, 0.0, 0.0])
        rho = StateVector(single_mode("f", 4), v / np.linalg.norm(v)).density()
        p = cascade(rho, 6).potentials
        for parent, child in zip(p, p[1:]):
            assert abs(child / parent - 0.5) < 0.5e-3

    def test_potential_quarters_per_layer_for_a_fock_diagonal_state(self):
        # EP is proportional to the squared transmissivity for a Fock-diagonal
        # state; the splitter output is block-diagonal
        p = cascade(mode_state([1 - 1e-3, 1e-3, 0.0, 0.0]), 6).potentials
        for parent, child in zip(p, p[1:]):
            assert abs(child / parent - 0.25) < 0.25e-3

    def test_layer_guard(self):
        with pytest.raises(ValueError):
            cascade(case_a_field(0.3), 0)
        with pytest.raises(ValueError):
            cascade(case_a_field(0.3), 9)


def record_layers(monkeypatch):
    """Record whether each layer takes the photon-number path, and the
    thinned state each layer returns (None below the last layer)."""
    diagonal, children = [], []
    tables, layer = nonclassicality._transpose_blocks, nonclassicality._layer

    def recording_tables(d, is_diagonal):
        diagonal.append(is_diagonal)
        return tables(d, is_diagonal)

    def recording_layer(rho_mode, thin):
        potential, child = layer(rho_mode, thin)
        children.append(child)
        return potential, child

    monkeypatch.setattr(nonclassicality, "_transpose_blocks", recording_tables)
    monkeypatch.setattr(nonclassicality, "_layer", recording_layer)
    return diagonal, children


class TestPathSelection:
    def test_diagonal_stack_forms_no_splitter_output(self, monkeypatch):
        rng = np.random.default_rng(33)
        p = rng.uniform(size=(5, 4))
        rho = mode_state(p / p.sum(axis=-1, keepdims=True))
        diagonal, children = record_layers(monkeypatch)
        cascade(rho, 4)
        cascade(rho, 1)
        cascade(fock_state(2, 3), 1)
        assert diagonal == [True] * 6
        thinned = [child for child in children if child is not None]
        assert len(thinned) == 3
        assert all(np.all(l1_coherence(child) == 0.0) for child in thinned)

    def test_one_coherence_sends_the_whole_stack_down_the_dense_path(self, monkeypatch):
        rng = np.random.default_rng(34)
        p = rng.uniform(0.2, 1.0, size=(5, 3))
        m = mode_state(p / p.sum(axis=-1, keepdims=True)).matrix.copy()
        m[2, 0, 1] = m[2, 1, 0] = 1e-3
        rho = DensityOperator(single_mode("f", 3), m)
        diagonal, _ = record_layers(monkeypatch)
        rep = cascade(rho, 3)
        assert diagonal == [False] * 3
        for i in range(5):
            alone = cascade(DensityOperator(rho.layout, m[i]), 3)
            for stacked, single in zip(rep.potentials, alone.potentials, strict=True):
                assert abs(stacked[i] - single) < 1e-12


    def test_fock_diagonal_cascade_allocates_nothing_d4_sized(self):
        # a d^2 x d^2 matrix, or a table over its entries, holds d^4 values;
        # the photon-number path builds blocks of at most d x d
        d = 30
        p = np.arange(1.0, d + 1)
        rho = mode_state(p / p.sum())
        nonclassicality._transpose_blocks.cache_clear()
        nonclassicality._kraus_table.cache_clear()
        tracemalloc.start()
        try:
            cascade(rho, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d**4   # less than one byte per entry

    @pytest.mark.parametrize("d, diagonal", [(2, False), (5, False), (2, True), (30, True)])
    def test_cached_tables_are_read_only_and_bounded(self, d, diagonal):
        # the figure of the path that builds a table bounds it, and
        # guard_bytes, which MAX_ARRAY_BYTES bounds, bounds the
        # photon-number path's blocks together
        blocks = [t for block in nonclassicality._transpose_blocks(d, diagonal) for t in block]
        tables = [splitting_probabilities(d), *blocks]
        if diagonal:
            assert sum(t.nbytes for t in blocks) <= guard_bytes(d, True)
        else:
            tables += nonclassicality._kraus_table(d)
        for table in tables:
            assert not table.flags.writeable
            assert table.nbytes <= point_bytes(d, diagonal)


class TestAtomFieldDuality:
    def test_cascade_layer_sums_shift(self):
        # atom cascade at T equals field cascade at T + pi/2, layer by layer
        rho0 = initial_state(ScenarioCase("A"), 2)
        for T in np.linspace(0, np.pi, 9):
            _, rho_a = reduced_states(evolve(rho0, T))
            rho_f_shift, _ = reduced_states(evolve(rho0, T + np.pi / 2))
            rep_a = cascade(rho_a, 3)
            rep_f = cascade(rho_f_shift, 3)
            for sa, sf in zip(rep_a.layer_sums, rep_f.layer_sums):
                assert abs(sa - sf) < 1e-10


class TestTotals:
    def test_reference_value(self):
        T = np.pi / 4
        rho0 = initial_state(ScenarioCase("A"), 2)
        rho = evolve(rho0, T)
        rho_f, rho_a = reduced_states(rho)
        from jcnc.hilbert import negativity

        n_c = negativity(rho, "a")
        rep_f, rep_a = cascade(rho_f, 2), cascade(rho_a, 2)
        expected = 0.5 + 2 * (SQRT2 - 1) / 4 + 4 * (np.sqrt(10) - 3) / 8
        assert abs(total_nonclassicality(n_c, rep_f, rep_a, 2) - expected) < 1e-10
        assert abs(
            total_nonclassicality(n_c, rep_f, rep_a, 1) - (0.5 + 2 * (SQRT2 - 1) / 4)
        ) < 1e-10

    def test_vacuum_zero(self):
        rep = cascade(fock_state(0, 2), 2)
        assert total_nonclassicality(0.0, rep, rep, 2) == 0.0

    def test_monotone_in_layers(self):
        rho0 = initial_state(ScenarioCase("A"), 2)
        for T in np.linspace(0, np.pi, 7):
            rho = evolve(rho0, T)
            rho_f, rho_a = reduced_states(rho)
            rep_f, rep_a = cascade(rho_f, 4), cascade(rho_a, 4)
            totals = [total_nonclassicality(0.0, rep_f, rep_a, n) for n in range(1, 5)]
            assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_insufficient_layers(self):
        rep = cascade(case_a_field(0.4), 2)
        with pytest.raises(ValueError):
            total_nonclassicality(0.0, rep, rep, 3)


class TestExtrapolation:
    def test_examples(self):
        assert abs(extrapolate_total(0.0, 0.5, 0.0) - 5 / 6) < 1e-12
        expected = 0.5 + (5 / 3) * (SQRT2 - 1) / 2
        assert abs(extrapolate_total(0.5, (SQRT2 - 1) / 4, (SQRT2 - 1) / 4) - expected) < 1e-12
        assert extrapolate_total(0.3, 0.0, 0.0) == 0.3


class TestDepletionRatios:
    def test_half_pi(self):
        ratios = depletion_ratios(cascade(case_a_field(np.pi / 2), 2))
        assert len(ratios) == 1
        for r in ratios:
            assert abs(r - (SQRT2 - 1) / 2) < 1e-3   # ~0.2071

    def test_quarter_pi(self):
        ratios = depletion_ratios(cascade(case_a_field(np.pi / 4), 2))
        expected = ((np.sqrt(10) - 3) / 8) / ((SQRT2 - 1) / 4)   # ~0.1959
        for r in ratios:
            assert abs(r - expected) < 1e-3

    def test_floor_omits_small_parents(self):
        # near T=0 the field potential is tiny; nothing should be reported
        ratios = depletion_ratios(cascade(case_a_field(1e-3), 2), floor=1e-3)
        assert ratios == []

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            depletion_ratios(cascade(case_a_field(0.4), 1))
