"""Reference beam-splitter cascade that evaluates every branch of the tree.

Layer l of the cascade has 2^(l-1) branches: the two reduced outputs of a
branch's beam splitter are its children in the next layer. This tree
computes every branch on its own and assumes no symmetry between them, so
the tests can check `jcnc.nonclassicality.cascade`, which evaluates one
thinned state per layer, against it.
"""

import numpy as np

from jcnc.hilbert import DensityOperator, negativity, partial_trace

from jc_operators import bs_output


def cascade_tree(rho_mode: DensityOperator, layers: int) -> tuple[np.ndarray, ...]:
    """Branch potentials of each layer, shape batch + (2^(l-1),) for layer l.

    The children of branch i in layer l sit at positions 2i (mode kept) and
    2i+1 (ancilla kept) of layer l+1.
    """
    batch = rho_mode.matrix.shape[:-2]
    states = rho_mode
    potentials = []
    for depth in range(1, layers + 1):
        out = bs_output(states)
        potentials.append(negativity(out, out.layout.labels[1]).reshape(batch + (-1,)))
        if depth < layers:
            # one new branch axis of size 2 just before the matrix axes, so
            # row-major branch order puts branch i's children at 2i and 2i+1
            children = [partial_trace(out, {kept}).matrix for kept in out.layout.labels]
            states = DensityOperator(rho_mode.layout, np.stack(children, axis=-3))
    return tuple(potentials)

