"""Reference sum-product kernel for the BP property tests.

This is `oligolab.bp_decoder.bp_decode` as it was before the decoder
skipped check rows that can only send zero messages: every edge of every
plane is updated on every iteration. The tests require the decoder's
`BpResult` to be bit-identical to this one.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from oligolab.bp_decoder import LLR_MAX, BpResult, SparseParityMatrix


class _Graph:
    """Edge-indexed message-passing structure for one parity matrix."""

    def __init__(self, h: SparseParityMatrix):
        cols = []
        rows = []
        for r, nbrs in enumerate(np.split(h.indices, h.indptr[1:-1])):
            cols.append(nbrs)
            cols.append([h.n_info + r])
            rows.append(np.full(len(nbrs) + 1, r, dtype=np.int64))
        self.edge_col = np.concatenate(cols).astype(np.int64)
        self.edge_row = np.concatenate(rows)
        self.n_edges = len(self.edge_col)
        weights = np.diff(h.indptr).astype(np.int64) + 1  # neighbors plus the coded bit
        self.row_starts = np.concatenate([[0], np.cumsum(weights)[:-1]])
        self.weight_groups = []  # (the rows of weight w, their (rows, w) edge indices)
        for w in np.unique(weights):
            rows = np.nonzero(weights == w)[0]
            self.weight_groups.append((rows, self.row_starts[rows][:, None] + np.arange(w)))
        ones = np.ones(self.n_edges, dtype=np.float64)
        self.col_scatter = sparse.csr_matrix(
            (ones, (self.edge_col, np.arange(self.n_edges))),
            shape=(h.n_cols, self.n_edges),
        )
        self.check = sparse.csr_matrix(
            (np.ones(self.n_edges, dtype=np.int64), (self.edge_row, self.edge_col)),
            shape=(h.n_rows, h.n_cols),
        )

    def row_reduce(self, ufunc: np.ufunc, edge_values: np.ndarray, dtype=None) -> np.ndarray:
        """ufunc.reduceat over each row's edges, (edges, P) -> (rows, P), but
        one weight class at a time: several times faster along the edge axis."""
        dtype = edge_values.dtype if dtype is None else dtype
        out = np.empty((len(self.row_starts), edge_values.shape[1]), dtype=dtype)
        for rows, idx in self.weight_groups:
            out[rows] = ufunc.reduce(edge_values[idx], axis=1, dtype=dtype)
        return out


def bp_decode(
    h: SparseParityMatrix,
    coded_llrs: np.ndarray,
    max_iter: int = 500,
    llr_clip: float = LLR_MAX,
    dtype=np.float64,
    early_stop_on_syndrome: bool = True,
) -> BpResult:
    """Sum-product decode; coded_llrs is (rows,) or (rows, planes).

    Information bits get LLR 0 (punctured). Hard decisions map
    LLR >= 0 to bit 0. A plane always leaves the working set when its
    messages reach an exact fixed point (saturated clips make this
    common); a fixed point cannot change on further iterations, so
    stopping there is output-identical to exhausting max_iter. With
    early_stop_on_syndrome a plane also exits as soon as every check is
    satisfied and every connected posterior is nonzero; that freezes the
    hard decisions at a valid codeword but may stop before posterior
    values settle, so disable it when exact marginals matter.
    """
    coded = np.asarray(coded_llrs, dtype=dtype)
    squeeze = coded.ndim == 1
    if squeeze:
        coded = coded[:, None]
    if coded.shape[0] != h.n_rows:
        raise ValueError(f"coded_llrs rows {coded.shape[0]} != H rows {h.n_rows}")
    n_planes = coded.shape[1]

    g = _Graph(h)
    channel = np.concatenate([np.zeros((h.n_info, n_planes), dtype=dtype), coded], axis=0)
    tanh_cap = np.tanh(llr_clip / 2.0)
    connected = np.zeros(h.n_cols, dtype=bool)
    connected[g.edge_col] = True

    # per-plane outputs, filled as planes converge
    posterior_out = np.empty((h.n_cols, n_planes), dtype=dtype)
    iters_out = np.full(n_planes, max_iter, dtype=np.int64)
    converged_out = np.zeros(n_planes, dtype=bool)

    active = np.arange(n_planes)
    ch = channel.copy()
    m_cv = np.zeros((g.n_edges, len(active)), dtype=dtype)
    posterior = ch.copy()
    col_tot = ch + (g.col_scatter @ m_cv)

    for it in range(1, max_iter + 1):
        m_vc = col_tot[g.edge_col] - m_cv
        t = np.tanh(0.5 * m_vc)
        zero = t == 0.0
        if zero.any():
            # a zero message zeroes what every other edge of its row sees;
            # the zero edge itself sees the product of the rest
            np.copyto(t, 1.0, where=zero)
            row_prod = g.row_reduce(np.multiply, t)
            row_zeros = g.row_reduce(np.add, zero, dtype=np.int64)
            seen_by_zero = np.where(row_zeros == 1, row_prod, 0.0)
            seen_by_rest = np.where(row_zeros == 0, row_prod, 0.0)
            ext = seen_by_rest[g.edge_row]
            ext /= t
            np.copyto(ext, seen_by_zero[g.edge_row], where=zero)
        else:
            # no zero messages: the excluded-edge product is a plain quotient
            row_prod = g.row_reduce(np.multiply, t)
            ext = row_prod[g.edge_row] / t
        np.clip(ext, -tanh_cap, tanh_cap, out=ext)
        m_cv_new = 2.0 * np.arctanh(ext)
        fixed_point = (m_cv_new == m_cv).all(axis=0)
        m_cv = m_cv_new

        posterior = ch + (g.col_scatter @ m_cv)
        bits = (posterior < 0).astype(np.int64)
        syndrome_ok = ((g.check @ bits) % 2 == 0).all(axis=0)
        determined = (posterior[connected] != 0.0).all(axis=0)
        done = syndrome_ok & determined
        stop = (done | fixed_point) if early_stop_on_syndrome else fixed_point
        if stop.any():
            idx = np.nonzero(stop)[0]
            posterior_out[:, active[idx]] = posterior[:, idx]
            iters_out[active[idx]] = it
            converged_out[active[idx]] = done[idx]
            keep = np.nonzero(~stop)[0]
            if len(keep) == 0:
                active = active[:0]
                break
            active = active[keep]
            ch = ch[:, keep]
            m_cv = m_cv[:, keep]
            posterior = posterior[:, keep]
        col_tot = posterior  # the next round's column totals

    if len(active):
        # planes that ran out the iteration budget: record their final state
        posterior_out[:, active] = posterior
        bits = (posterior < 0).astype(np.int64)
        syndrome_ok = ((g.check @ bits) % 2 == 0).all(axis=0)
        determined = (posterior[connected] != 0.0).all(axis=0)
        converged_out[active] = syndrome_ok & determined

    result_posterior = posterior_out
    bits_all = (result_posterior < 0).astype(np.uint8)
    undetermined = (result_posterior == 0.0).sum(axis=0).astype(np.int64)
    info_bits = bits_all[: h.n_info]
    coded_bits = bits_all[h.n_info :]
    if squeeze:
        return BpResult(
            info_bits=info_bits[:, 0],
            coded_bits=coded_bits[:, 0],
            posterior_llrs=result_posterior[:, 0],
            converged=bool(converged_out[0]),
            iterations_used=int(iters_out[0]),
            undetermined=int(undetermined[0]),
        )
    return BpResult(
        info_bits=info_bits,
        coded_bits=coded_bits,
        posterior_llrs=result_posterior,
        converged=converged_out,
        iterations_used=iters_out,
        undetermined=undetermined,
    )
