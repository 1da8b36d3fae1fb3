"""Parity-check construction from neighbor rows and sum-product BP decoding.

Each active cluster contributes one check row: the XOR of its seed's
source-bit neighbors and the cluster's own coded bit is zero, so the
matrix has an identity block over the coded bits and the information bits
are punctured (no channel values). Decoding is the flooding-schedule
sum-product algorithm in the log domain with the tanh rule; the 256
payload bit-planes share one matrix, so messages are vectorized across
planes and planes drop out of the working set as they converge.

Punctured bits make most messages exactly zero, and a check row with two
zero inputs in a plane sends zeros on every edge there. Before it
iterates, the decoder peels the plane union of the graph: the reached
columns start as the coded bits whose channel LLR is nonzero in some
plane, and a row joins the reach in round r once at most one of its edges
leads outside the columns reached before round r, whereupon all its
columns join them. By induction over the iterations, after iteration t
only the columns reached before round t can have a nonzero posterior, so
a row that joins in round r keeps two zero inputs, and sends zeros, up to
iteration r; a row outside the reach does so on every iteration. Flooding
therefore runs on the reached rows alone, their information bits
renumbered in order, and iteration t updates the rows that joined before
round t (once they hold half the edges, every row), weight class by
weight class with the same arithmetic as a full update. That is a
superset of the rows that can send a nonzero message, and updating a
superset is exact: the tanh rule gives a silent row's zeros either sign
(0.0 / t takes t's sign), but a column sum starts from +0.0 and runs in
the matrix's edge order, and a zero of either sign leaves such a sum as
it is. So every message, posterior, fixed point and iteration count is
bit-identical to updating every row of H. Columns outside the reach keep
their channel value, which an iteration's +0.0 column sum turns from -0.0
into +0.0; the syndrome is the XOR of packed sign bits.

A plane counts as converged only when every check is satisfied and every
connected variable has a nonzero posterior; with all-zero inputs the
all-zero hard decision satisfies the checks but determines nothing, and is
reported as such. A row outside the reach keeps two columns at posterior
zero, so while any row is unreached no plane converges: the syndrome stop
is then off and `converged` is False. Information bits that appear in no
row (dropouts beyond the fountain's reach) stay at posterior 0 and are
counted in `undetermined` without blocking convergence of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fountain import SolitonParams

LLR_MAX = 30.0


@dataclass
class SparseParityMatrix:
    """Check rows over the information bits, as CSR rows (indptr, indices).

    Row r's information bits are indices[indptr[r]:indptr[r + 1]]; its
    coded bit is column n_info + r.
    """

    n_info: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_cols(self) -> int:
        return self.n_info + self.n_rows

    @property
    def total_weight(self) -> int:
        return len(self.indices) + self.n_rows


def build_h(rows: tuple[np.ndarray, np.ndarray], params: SolitonParams) -> SparseParityMatrix:
    """One check row per CSR neighbor row (indptr, indices), in the order given."""
    indptr, indices = rows
    return SparseParityMatrix(n_info=params.k, indptr=indptr, indices=indices)


@dataclass
class BpResult:
    info_bits: np.ndarray       # (k,) or (k, planes) uint8
    coded_bits: np.ndarray      # (rows,) or (rows, planes) uint8
    posterior_llrs: np.ndarray  # (k + rows,) or (k + rows, planes)
    converged: np.ndarray | bool
    iterations_used: np.ndarray | int
    undetermined: np.ndarray | int  # bits with exactly-zero posterior


class _Graph:
    """Edge-indexed message-passing structure for one parity matrix.

    Edges are stored by row weight: the rows of weight w fill one
    contiguous (rows, w) block, each row's information bits in H's order
    and its coded bit last, so a weight class is a reshaped view.
    """

    def __init__(self, h: SparseParityMatrix):
        # every row's columns in H's edge order: its neighbors, then its coded bit
        weights = np.diff(h.indptr) + 1
        row_first = h.indptr[:-1] + np.arange(h.n_rows)
        coded_at = row_first + weights - 1
        is_info = np.ones(h.total_weight, dtype=bool)
        is_info[coded_at] = False
        row_cols = np.empty(h.total_weight, dtype=np.int64)
        row_cols[is_info] = h.indices
        row_cols[coded_at] = h.n_info + np.arange(h.n_rows)
        self.groups = []  # (the rows of weight w, w)
        order = []  # the H-order index of each stored edge
        for w in np.unique(weights):
            rows = np.nonzero(weights == w)[0]
            self.groups.append((rows, int(w)))
            order.append((row_first[rows][:, None] + np.arange(w)).ravel())
        order = np.concatenate(order)
        self.n_edges = len(order)
        self.edge_col = row_cols[order]
        self.edge_row = np.repeat(np.arange(h.n_rows), weights)[order]
        self.row_starts = np.flatnonzero(np.diff(self.edge_row, prepend=-1))
        # scipy is imported here, not with the module, so that commands that
        # run no BP (encode, simulate, stats, the hard decode) never load it
        from scipy import sparse

        # column sums in H's edge order, which fixes their rounding: a CSR
        # row is summed in its stored order, even an unsorted one
        self.col_sum = sparse.csr_matrix(
            (
                np.ones(self.n_edges),
                np.lexsort((order, self.edge_col)),
                np.concatenate([[0], np.cumsum(np.bincount(self.edge_col, minlength=h.n_cols))]),
            ),
            shape=(h.n_cols, self.n_edges),
        )

    def solved(self, posterior: np.ndarray) -> np.ndarray:
        """Per plane: every check's hard decisions XOR to zero and every
        posterior is nonzero (every column lies in some row)."""
        signs = _pack_planes(posterior < 0)
        odd = np.bitwise_xor.reduceat(signs[self.edge_col], self.row_starts, axis=0)
        odd_words = np.bitwise_or.reduce(odd, axis=0)
        odd_planes = np.unpackbits(odd_words.view(np.uint8), bitorder="little")
        syndrome_ok = odd_planes[: posterior.shape[1]] == 0
        return syndrome_ok & (posterior != 0.0).all(axis=0)


def _pack_planes(flags: np.ndarray) -> np.ndarray:
    """(n, P) bool -> (n, ceil(P / 64)) uint64, plane p at bit p % 64 of word
    p // 64; the padding planes past P read False."""
    n, p = flags.shape
    wide = np.zeros((n, -(-p // 64) * 64), dtype=bool)
    wide[:, :p] = flags
    return np.packbits(wide, axis=1, bitorder="little").view(np.uint64)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated np.arange(s, s + n) of each start s and length n."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by sort and drop repeats: np.unique may hash, and slower."""
    values = np.sort(values)
    return values[np.concatenate([[True], values[1:] != values[:-1]])[: len(values)]]


def _reach(h: SparseParityMatrix, live_coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows, ascending, that peeling reaches from the coded bits marked
    in `live_coded`, and the round in which each joins (0 for the rows with
    at most one unreached edge at the start); each column's edges are
    visited once."""
    weights = np.diff(h.indptr)
    # per row, its edges whose column is not reached yet
    missing = weights + ~live_coded
    by_col = np.argsort(h.indices, kind="stable")
    col_rows = np.repeat(np.arange(h.n_rows), weights)[by_col]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(h.indices, minlength=h.n_info))])
    col_reached = np.zeros(h.n_info, dtype=bool)
    joined = np.full(h.n_rows, -1)
    new_rows = np.flatnonzero(missing <= 1)
    rnd = 0
    while len(new_rows):
        joined[new_rows] = rnd
        rnd += 1
        cols = h.indices[_ranges(h.indptr[new_rows], weights[new_rows])]
        cols = _distinct(cols[~col_reached[cols]])
        col_reached[cols] = True
        hit = col_rows[_ranges(col_ptr[cols], col_ptr[cols + 1] - col_ptr[cols])]
        rows, n_hit = np.unique(hit, return_counts=True)
        missing[rows] -= n_hit
        new_rows = rows[(missing[rows] <= 1) & (joined[rows] < 0)]
    reached = np.flatnonzero(joined >= 0)
    return reached, joined[reached]


def _flood(
    h: SparseParityMatrix,
    coded: np.ndarray,
    rounds: np.ndarray,
    max_iter: int,
    llr_clip: float,
    early_stop_on_syndrome: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding BP over the rows of h, coded (rows, planes) -> the (cols,
    planes) posterior and, per plane, iterations and convergence; a row is
    updated from the iteration after its peel round in `rounds` on."""
    n_planes = coded.shape[1]
    g = _Graph(h)
    posterior = np.concatenate([np.zeros((h.n_info, n_planes)), coded], axis=0)
    # adding a column sum of +0.0 turns a channel -0.0 into +0.0; columns
    # that no updated row reaches copy `ch`, so it is normalized once here
    ch = posterior + 0.0
    tanh_cap = np.tanh(llr_clip / 2.0)

    # per-plane outputs, recorded as planes stop
    stopped_planes: list[np.ndarray] = []
    stopped_posteriors: list[np.ndarray] = []
    iters_out = np.full(n_planes, max_iter, dtype=np.int64)
    converged_out = np.zeros(n_planes, dtype=bool)

    active = np.arange(n_planes)
    # check-to-variable messages; only the edges of rows already updated can
    # be nonzero, and the pages of the others are never touched
    m_cv = np.zeros((g.n_edges, n_planes))
    edge_round = rounds[g.edge_row]

    for it in range(1, max_iter + 1):
        p = len(active)
        pos = np.flatnonzero(edge_round < it)
        # from half the edges on, gathering the awake rows costs more than
        # also updating the rest, which send zeros
        every = 2 * len(pos) >= g.n_edges
        runs = []  # (rows, weight) of the rows to update, in edge order
        for rows, w in g.groups:
            if not every:
                rows = rows[rounds[rows] < it]
            if len(rows):
                runs.append((rows, w))

        old = m_cv if every else m_cv[pos]
        m_vc = posterior[g.edge_col if every else g.edge_col[pos]] - old
        t = np.tanh(0.5 * m_vc)
        zero = t == 0.0
        np.copyto(t, 1.0, where=zero)
        ext = np.empty_like(t)
        at = 0
        for rows, w in runs:
            n = len(rows)
            blk = slice(at, at + n * w)
            at += n * w
            t_blk = t[blk].reshape(n, w, p)
            ext_blk = ext[blk].reshape(n, w, p)
            zero_blk = zero[blk].reshape(n, w, p)
            row_prod = np.multiply.reduce(t_blk, axis=1)
            if zero_blk.any():
                # a zero message zeroes what every other edge of its row
                # sees; the zero edge itself sees the product of the rest
                row_zeros = np.add.reduce(zero_blk, axis=1, dtype=np.int64)
                seen_by_zero = np.where(row_zeros == 1, row_prod, 0.0)
                seen_by_rest = np.where(row_zeros == 0, row_prod, 0.0)
                np.divide(seen_by_rest[:, None], t_blk, out=ext_blk)
                np.copyto(ext_blk, seen_by_zero[:, None], where=zero_blk)
            else:
                # no zero messages: the excluded-edge product is a plain quotient
                np.divide(row_prod[:, None], t_blk, out=ext_blk)
        np.clip(ext, -tanh_cap, tanh_cap, out=ext)
        m_new = 2.0 * np.arctanh(ext)
        fixed_point = (m_new == old).all(axis=0)
        if every:
            m_cv = m_new
        else:
            m_cv[pos] = m_new

        # zero messages, of either sign, leave a column sum as it is
        if every:
            posterior = ch + (g.col_sum @ m_cv)
        else:
            hit = _distinct(g.edge_col[pos])
            posterior = ch.copy()
            posterior[hit] = ch[hit] + (g.col_sum[hit][:, pos] @ m_cv[pos])
        done = g.solved(posterior)
        stop = (done | fixed_point) if early_stop_on_syndrome else fixed_point
        if stop.any():
            idx = np.nonzero(stop)[0]
            stopped_planes.append(active[idx])
            stopped_posteriors.append(posterior[:, idx])
            iters_out[active[idx]] = it
            converged_out[active[idx]] = done[idx]
            keep = np.nonzero(~stop)[0]
            if len(keep) == 0:
                active = active[:0]
                break
            active = active[keep]
            ch = ch[:, keep]
            kept = np.zeros((g.n_edges, len(keep)))
            kept[pos] = m_cv[np.ix_(pos, keep)]
            m_cv = kept
            posterior = posterior[:, keep]

    if len(active):
        # planes that ran out the iteration budget: record their final state
        stopped_planes.append(active)
        stopped_posteriors.append(posterior)
        converged_out[active] = g.solved(posterior)

    result_posterior = np.take(
        np.concatenate(stopped_posteriors, axis=1),
        np.argsort(np.concatenate(stopped_planes)),
        axis=1,
    )
    return result_posterior, iters_out, converged_out


def bp_decode(
    h: SparseParityMatrix,
    coded_llrs: np.ndarray,
    max_iter: int = 500,
    llr_clip: float = LLR_MAX,
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

    Only the rows that peeling reaches from the nonzero channel values
    (in any plane) are iterated; the others can only send zero messages,
    so leaving them out changes no output bit. While some row is out of
    reach, its zero columns keep every plane from converging, so the
    syndrome stop cannot fire and `converged` is False.
    """
    coded = np.asarray(coded_llrs, dtype=np.float64)
    squeeze = coded.ndim == 1
    if squeeze:
        coded = coded[:, None]
    if coded.shape[0] != h.n_rows:
        raise ValueError(f"coded_llrs rows {coded.shape[0]} != H rows {h.n_rows}")
    n_planes = coded.shape[1]

    rows, rounds = _reach(h, (coded != 0.0).any(axis=1))
    every_row = len(rows) == h.n_rows
    posterior = np.concatenate([np.zeros((h.n_info, n_planes)), coded], axis=0)
    if max_iter > 0:
        # an iteration adds a column sum of +0.0 to an unreached column,
        # which turns a channel -0.0 into +0.0
        posterior += 0.0
    # with no row reached, every message is zero: a fixed point at once
    iters_out = np.full(n_planes, min(max_iter, 1), dtype=np.int64)
    converged_out = np.zeros(n_planes, dtype=bool)
    if len(rows):
        weights = np.diff(h.indptr)[rows]
        info_cols, local = np.unique(
            h.indices[_ranges(h.indptr[rows], weights)], return_inverse=True
        )
        reached = SparseParityMatrix(
            n_info=len(info_cols),
            indptr=np.concatenate([[0], np.cumsum(weights)]),
            indices=local,
        )
        cols = np.concatenate([info_cols, h.n_info + rows])
        flooded, iters_out, converged_out = _flood(
            reached, coded[rows], rounds, max_iter, llr_clip, early_stop_on_syndrome and every_row
        )
        posterior[cols] = flooded
        converged_out &= every_row

    bits_all = (posterior < 0).astype(np.uint8)
    undetermined = (posterior == 0.0).sum(axis=0).astype(np.int64)
    info_bits = bits_all[: h.n_info]
    coded_bits = bits_all[h.n_info :]
    if squeeze:
        return BpResult(
            info_bits=info_bits[:, 0],
            coded_bits=coded_bits[:, 0],
            posterior_llrs=posterior[:, 0],
            converged=bool(converged_out[0]),
            iterations_used=int(iters_out[0]),
            undetermined=int(undetermined[0]),
        )
    return BpResult(
        info_bits=info_bits,
        coded_bits=coded_bits,
        posterior_llrs=posterior,
        converged=converged_out,
        iterations_used=iters_out,
        undetermined=undetermined,
    )
