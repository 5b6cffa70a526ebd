"""Invariants of the kernel checked on random inputs drawn by hypothesis."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from jcnc.engine import ScenarioCase, evolve, initial_state, jc_layout, reduced_states
from jcnc.hilbert import (
    DensityOperator,
    ModeLayout,
    hermitian_eigenvalues,
    l1_coherence,
    negativity,
    partial_trace,
    partial_transpose,
    single_mode,
)
from jcnc import nonclassicality
from jcnc.nonclassicality import cascade, total_nonclassicality

from cascade_tree import cascade_tree
from jc_operators import bs_output

# the same examples on every run, and no example database on disk
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

DIM = st.integers(min_value=2, max_value=4)
PHASE = st.floats(min_value=0.0, max_value=2 * np.pi)
TIME = st.floats(min_value=0.0, max_value=10.0)
ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)


@st.composite
def density_matrices(draw, d):
    """A d x d density matrix A A^dag / tr(A A^dag) from a random complex
    d x rank matrix A, so every rank from pure to full is drawn."""
    rank = draw(st.integers(min_value=1, max_value=d))
    parts = draw(hnp.arrays(float, (2, d, rank), elements=ENTRY))
    a = parts[0] + 1j * parts[1]
    m = a @ a.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-3)
    return 0.5 * (m + m.conj().T) / trace


@st.composite
def two_mode_states(draw):
    d_a, d_b = draw(DIM), draw(DIM)
    layout = ModeLayout((("A", d_a), ("B", d_b)))
    return DensityOperator(layout, draw(density_matrices(d_a * d_b)))


@st.composite
def two_mode_stacks(draw):
    """A stack of random two-mode density operators over one or two batch axes."""
    d_a, d_b = draw(DIM), draw(DIM)
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    d = d_a * d_b
    mats = [draw(density_matrices(d)) for _ in range(int(np.prod(batch)))]
    return DensityOperator(ModeLayout((("A", d_a), ("B", d_b))), np.reshape(mats, batch + (d, d)))


BATCH = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def hermitian_blocks(draw, size, batch):
    """A batch of random size x size Hermitian blocks; a 2x2 block may be
    drawn rank-deficient, as the outer product v v^dag."""
    parts = draw(hnp.arrays(float, (2,) + batch + (size, size), elements=ENTRY))
    a = parts[0] + 1j * parts[1]
    if size == 2 and draw(st.booleans()):
        v = a[..., 0]
        return v[..., :, None] * v[..., None, :].conj()
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


@st.composite
def block_diagonal_stacks(draw):
    """A stack over one or two batch axes of Hermitian matrices that share
    blocks of sizes 1-4, in a randomly permuted basis."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    batch = draw(BATCH)
    n = sum(sizes)
    m = np.zeros(batch + (n, n), dtype=complex)
    start = 0
    for size in sizes:
        m[..., start:start + size, start:start + size] = draw(hermitian_blocks(size, batch))
        start += size
    perm = np.array(draw(st.permutations(range(n))))
    return m[..., perm[:, None], perm[None, :]]


@PROPERTY
@given(block_diagonal_stacks())
def test_block_spectra_match_the_dense_solver(m):
    ev = hermitian_eigenvalues(m)
    assert ev.shape == m.shape[:-1]
    assert np.max(np.abs(ev - np.linalg.eigvalsh(m))) < 1e-13
    assert np.all(np.diff(ev, axis=-1) >= 0.0)


@PROPERTY
@given(st.integers(min_value=3, max_value=4), BATCH, st.data())
def test_dense_spectra_are_the_dense_solver_bit_for_bit(d, batch, data):
    # every real part is at least 1, so the whole matrix is one block; a
    # dense 2 x 2 stack takes the closed form instead (see test_hilbert)
    re = data.draw(hnp.arrays(float, batch + (d, d), elements=st.floats(0.5, 1.0)))
    im = data.draw(hnp.arrays(float, batch + (d, d), elements=ENTRY))
    a = re + 1j * im
    m = a + np.conj(np.swapaxes(a, -1, -2))
    assert np.array_equal(hermitian_eigenvalues(m), np.linalg.eigvalsh(m))


@PROPERTY
@given(two_mode_states())
def test_negativity_range(rho):
    bound = (min(rho.layout.dims) - 1) / 2
    for mode in ("A", "B"):
        n = negativity(rho, mode)
        assert 0.0 <= n <= bound + 1e-12


@PROPERTY
@given(two_mode_states(), st.data())
def test_negativity_invariant_under_local_phases(rho, data):
    d_a, d_b = rho.layout.dims
    before = negativity(rho, "A")
    for phases_a, phases_b in (
        (data.draw(hnp.arrays(float, d_a, elements=PHASE)), np.zeros(d_b)),
        (np.zeros(d_a), data.draw(hnp.arrays(float, d_b, elements=PHASE))),
    ):
        u = np.diag(np.exp(1j * np.add.outer(phases_a, phases_b).ravel()))
        rotated = DensityOperator(rho.layout, u @ rho.matrix @ u.conj().T)
        assert abs(negativity(rotated, "A") - before) < 1e-10


@PROPERTY
@given(DIM.flatmap(lambda d: density_matrices(d)), density_matrices(2), st.integers(1, 4))
def test_totals_monotone_in_layers(field, atom, layers):
    rho_f = DensityOperator(single_mode("f", len(field)), field)
    rho_a = DensityOperator(single_mode("a", 2), atom)
    field_rep, atom_rep = cascade(rho_f, layers), cascade(rho_a, layers)
    totals = [total_nonclassicality(0.0, field_rep, atom_rep, n) for n in range(1, layers + 1)]
    assert totals[0] >= 0.0
    assert all(later >= earlier for earlier, later in zip(totals, totals[1:]))


@PROPERTY
@given(DIM.flatmap(lambda d: density_matrices(d)), st.integers(1, 4))
def test_chain_equals_branch_tree(m, layers):
    # every branch of a layer carries one potential, so one thinned state
    # per layer gives the tree's layer sums
    rho = DensityOperator(single_mode("f", len(m)), m)
    tree = cascade_tree(rho, layers)
    for chain_sum, layer in zip(cascade(rho, layers).layer_sums, tree, strict=True):
        assert abs(chain_sum - np.sum(layer)) < 1e-14
        assert np.max(layer) - np.min(layer) < 1e-14


@st.composite
def fock_diagonal_stacks(draw):
    """A stack of one to three exactly Fock-diagonal states of dimension
    2-10, with weights that may be exactly zero."""
    d = draw(st.integers(min_value=2, max_value=10))
    batch = draw(st.integers(min_value=1, max_value=3))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    w = draw(hnp.arrays(float, (batch, d), elements=weight))
    assume(np.all(w.sum(axis=-1) > 1e-3))
    p = w / w.sum(axis=-1, keepdims=True)
    return DensityOperator(single_mode("f", d), p[..., None] * np.eye(d))


@st.composite
def dense_mode_stacks(draw):
    """A stack of one to three random density matrices of dimension 2-8,
    which carry Fock coherence for all but degenerate draws."""
    d = draw(st.integers(min_value=2, max_value=8))
    batch = draw(st.integers(min_value=1, max_value=3))
    mats = [draw(density_matrices(d)) for _ in range(batch)]
    return DensityOperator(single_mode("f", d), np.array(mats))


def fock_weights(rho):
    return np.diagonal(rho.matrix, axis1=-2, axis2=-1).real


def gathered(rho, diagonal):
    """The partial-transpose blocks that one layer gathers from a
    single-mode stack, on the photon-number path when `diagonal`, and the
    dense reduced output."""
    d = rho.layout.dim
    m = rho.matrix.real if diagonal else rho.matrix
    flat = m.reshape(m.shape[:-2] + (d * d,))
    index, coef = nonclassicality._kraus_table(d)
    blocks = [flat[..., i] * c for i, c in nonclassicality._transpose_blocks(d, diagonal)]
    return blocks, np.sum(flat[..., index] * coef, axis=-3)


@PROPERTY
@given(st.one_of(fock_diagonal_stacks(), dense_mode_stacks()), st.integers(1, 6))
def test_photon_number_path_matches_the_dense_branch_tree(rho, layers):
    # the tree forms every branch's d^2-wide splitter output
    rep = cascade(rho, layers)
    tree = cascade_tree(rho, layers)
    for potential, layer_sum, branches in zip(rep.potentials, rep.layer_sums, tree, strict=True):
        assert np.max(np.abs(branches - potential[..., None])) < 1e-12
        assert np.max(np.abs(np.sum(branches, axis=-1) - layer_sum)) < 1e-12


@PROPERTY
@given(fock_diagonal_stacks())
def test_binomial_thinning_is_the_dense_partial_trace(rho):
    # the photon-number path thins to the diagonal of the dense reduced output
    out = bs_output(rho)
    _, child = nonclassicality._layer(rho, thin=True)
    thinned = fock_weights(child)
    assert np.all(l1_coherence(child) == 0.0)
    _, dense = gathered(rho, diagonal=False)
    assert np.max(np.abs(dense - child.matrix)) < 1e-15
    for kept in out.layout.labels:
        reduced = partial_trace(out, {kept})
        assert np.all(l1_coherence(reduced) == 0.0)
        assert np.max(np.abs(fock_weights(reduced) - thinned)) < 1e-15


@PROPERTY
@given(fock_diagonal_stacks())
def test_photon_difference_blocks_are_the_dense_partial_transpose(rho):
    # block delta sits on |k, k - delta>, block -delta on |k - delta, k>;
    # the similarity i^k on the mode's photon number makes both real, and
    # every entry outside the blocks is exactly zero; the whole gathered
    # partial transpose is the similarity i^j on the ancilla's
    d = rho.layout.dim
    pt = partial_transpose(bs_output(rho), "f0")
    covered = np.zeros((d * d, d * d), dtype=bool)
    for delta, block in enumerate(gathered(rho, diagonal=True)[0]):
        k = np.arange(delta, d)
        phase = np.array([1, 1j, -1, -1j])[k % 4]
        for idx in (k * d + (k - delta), (k - delta) * d + k):
            sub = pt[..., idx[:, None], idx[None, :]]
            assert np.max(np.abs(np.conj(phase)[:, None] * sub * phase - block)) < 1e-15
            covered[idx[:, None], idx[None, :]] = True
    assert np.all(pt[..., ~covered] == 0.0)
    (whole,), _ = gathered(rho, diagonal=False)
    phase = np.tile(np.array([1, 1j, -1, -1j])[np.arange(d) % 4], d)
    assert np.max(np.abs(np.conj(phase)[:, None] * pt * phase - whole)) < 1e-15
    assert np.all(whole[..., ~covered] == 0.0)


@PROPERTY
@given(DIM.flatmap(lambda d: density_matrices(2 * d)), TIME, TIME)
def test_evolve_group_property(m, t1, t2):
    rho0 = DensityOperator(jc_layout(len(m) // 2), m)
    stepped = evolve(evolve(rho0, t1), t2)
    direct = evolve(rho0, t1 + t2)
    assert np.max(np.abs(stepped.matrix - direct.matrix)) < 1e-12


FOCK_DIAGONAL_CASES = st.one_of(
    st.just(ScenarioCase("A")),
    st.just(ScenarioCase("B")),
    st.floats(min_value=1e-3, max_value=10.0).map(lambda n: ScenarioCase("C", mean_photon=n)),
)
COHERENT_CASES = st.one_of(st.floats(-2.0, -0.05), st.floats(0.05, 2.0)).map(
    lambda alpha: ScenarioCase("D", alpha=alpha)
)


def sector_coherence(rho):
    """The entries of a field (x) atom stack between different excitation
    numbers n + s, for field photons n and atom level s."""
    i = np.arange(rho.layout.dim)
    excitations = i // 2 + i % 2
    return rho.matrix[..., excitations[:, None] != excitations]


@PROPERTY
@given(st.one_of(FOCK_DIAGONAL_CASES, COHERENT_CASES), st.data())
def test_only_a_coherent_field_leaves_the_photon_number_path(scenario, data):
    # the premise of the per-path chunk size and guard: excitation
    # conservation keeps a state with no coherence between excitation
    # sectors so, and then neither reduced state has Fock coherence; a
    # coherent field carries both at every time, so it keeps the dense size
    d = data.draw(st.integers(min_value=scenario.min_field_dim, max_value=16))
    times = np.array(data.draw(st.lists(TIME, min_size=1, max_size=4)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # a coherent field's truncation loss
        rho0 = initial_state(scenario, d)
    rho = evolve(rho0, times)
    rho_f, rho_a = reduced_states(rho)
    if scenario.fock_diagonal:
        assert np.all(sector_coherence(rho) == 0.0)
        assert np.all(l1_coherence(rho_f) == 0.0)
        assert np.all(l1_coherence(rho_a) == 0.0)
    else:
        assert np.all(np.any(sector_coherence(rho) != 0.0, axis=-1))
        assert np.all(l1_coherence(rho_f) > 0.0)


@PROPERTY
@given(two_mode_stacks())
def test_stacked_calls_equal_per_matrix_calls(stack):
    neg, coh = negativity(stack, "B"), l1_coherence(stack)
    reduced = partial_trace(stack, {"A"})
    outputs = bs_output(reduced)
    for idx in np.ndindex(stack.matrix.shape[:-2]):
        rho = DensityOperator(stack.layout, stack.matrix[idx])
        single = partial_trace(rho, {"A"})
        assert abs(neg[idx] - negativity(rho, "B")) < 1e-12
        assert abs(coh[idx] - l1_coherence(rho)) < 1e-12
        assert np.max(np.abs(reduced.matrix[idx] - single.matrix)) < 1e-12
        assert np.max(np.abs(outputs.matrix[idx] - bs_output(single).matrix)) < 1e-12
