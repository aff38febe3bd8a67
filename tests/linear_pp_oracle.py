"""Test oracle for the PP scheme in the drive's linear basis.

The package builds the linear components in closed form
(schemes._pp_components); the oracle writes the same Hamiltonian as a
coupling table, cuts it generically into connected components and pads the
per-size stacks into one, so the builder can be checked against it bit for
bit.  A table is cut as the lower triangle it scatters into (table_lower).
Modes are [s_H, s_V, p] and levels (1, 2+, 2-, 3, 4).
"""

import numpy as np

from ppqnd.fock import _coupling_table, _sector_blocks, make_space


def linear_pp_table(params, cutoff_h, cutoff_v, cutoff_p):
    """The PP space and the coupling table of its Hamiltonian in the drive's
    linear basis: the drive links only 2+ to 3, with leg sqrt(2) Omega_d in
    longdouble."""
    space = make_space(5, [cutoff_h, cutoff_v, cutoff_p])
    return space, _coupling_table(
        space, [(4, params.delta_probe), (1, params.delta_two), (2, params.delta_two)],
        [(params.xi_s, 1, 0, 0), (params.xi_s, 2, 0, 1),
         (np.sqrt(np.longdouble(2)) * params.omega_d, 1, 3, None), (params.xi_p, 4, 3, 2)])


def table_lower(size, table):
    """A coupling table on `size` states scattered, in its own dtype, into
    the lower triangle of the real symmetric matrix it and its transpose
    make: what _sector_blocks cuts."""
    rows, cols, vals = table
    lower = np.zeros((size, size), dtype=vals.dtype)
    lower[np.maximum(rows, cols), np.minimum(rows, cols)] = vals
    return lower


def linear_pp_sectors(params, cutoffs, keep):
    """The linear table's components that hold a state of `keep`, cut
    generically, one (index, blocks) stack per block size.  The components
    are those of the table's entries, zero ones included: a zero coupling
    keeps its entries, so the components stay the same."""
    space, (rows, cols, vals) = linear_pp_table(params, *cutoffs)
    pattern = table_lower(space.total_dim, (rows, cols, np.ones(rows.size)))
    h = np.zeros((space.total_dim, space.total_dim), dtype=vals.dtype)
    h[rows, cols] = h[cols, rows] = vals
    return [(index, h[index[:, :, None], index[:, None, :]])
            for index, _ in _sector_blocks(pattern, keep)]


def padded(sectors, size):
    """(index, blocks) stacks of several block sizes as one stack, each row
    zero-padded to the widest with index `size` (a scratch slot)."""
    width = max(index.shape[1] for index, _ in sectors)
    index = np.full((sum(len(i) for i, _ in sectors), width), size, dtype=np.intp)
    blocks = np.zeros((len(index), width, width), np.result_type(*(b for _, b in sectors)))
    start = 0
    for i, b in sectors:
        rows, s = i.shape
        index[start:start + rows, :s] = i
        blocks[start:start + rows, :s, :s] = b
        start += rows
    return index, blocks
