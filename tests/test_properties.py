"""Invariants of the kernel checked on random inputs drawn by hypothesis."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from jcnc.engine import evolve, jc_layout
from jcnc.hilbert import (
    DensityOperator,
    ModeLayout,
    l1_coherence,
    negativity,
    partial_trace,
    single_mode,
)
from jcnc.nonclassicality import bs_output, cascade, total_nonclassicality

from cascade_tree import cascade_tree

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


@PROPERTY
@given(DIM.flatmap(lambda d: density_matrices(2 * d)), TIME, TIME)
def test_evolve_group_property(m, t1, t2):
    rho0 = DensityOperator(jc_layout(len(m) // 2), m)
    stepped = evolve(evolve(rho0, t1), t2)
    direct = evolve(rho0, t1 + t2)
    assert np.max(np.abs(stepped.matrix - direct.matrix)) < 1e-12


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
