"""Reference erasure solver for the solver property tests.

This is `oligolab.pipeline.lt_erasure_solve` as it was before rows were
bit-packed: peeling over Python sets that XORs one numpy row per edge, then
Gauss-Jordan elimination of the whole residual system on a dense bool
matrix. The tests require the inactivation solver to return the same
`resolved` and `consistent`, and the same `info` on every consistent plane.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def lt_erasure_solve(
    rows_neighbors: Sequence[np.ndarray],
    coded_bits: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve info bits from coded-bit rows: XOR(info[nbrs]) = coded[row].

    Returns (info (k, P) uint8, resolved (k,) bool, consistent (P,) bool).
    Peeling resolves degree-1 rows and substitutes; the residual system, if
    any, goes through dense GF(2) elimination. Planes where a fully-reduced
    row keeps a nonzero value are flagged inconsistent.
    """
    coded = np.asarray(coded_bits, dtype=np.uint8)
    if coded.ndim == 1:
        coded = coded[:, None]
    n_rows, planes = coded.shape
    if n_rows != len(rows_neighbors):
        raise ValueError("coded_bits rows do not match neighbor rows")

    row_sets = [set(map(int, nb)) for nb in rows_neighbors]
    row_val = coded.copy()
    var_rows: dict[int, set[int]] = {}
    for r, s in enumerate(row_sets):
        for v in s:
            var_rows.setdefault(v, set()).add(r)

    info = np.zeros((k, planes), dtype=np.uint8)
    resolved = np.zeros(k, dtype=bool)
    consistent = np.ones(planes, dtype=bool)

    queue = [r for r, s in enumerate(row_sets) if len(s) == 1]
    while queue:
        r = queue.pop()
        if len(row_sets[r]) != 1:
            continue
        v = next(iter(row_sets[r]))
        value = row_val[r].copy()
        info[v] = value
        resolved[v] = True
        for r2 in var_rows.pop(v, ()):
            row_sets[r2].discard(v)
            if value.any():
                row_val[r2] ^= value
            if len(row_sets[r2]) == 1:
                queue.append(r2)
            elif len(row_sets[r2]) == 0 and row_val[r2].any():
                consistent &= row_val[r2] == 0

    residual_rows = [r for r, s in enumerate(row_sets) if s]
    if residual_rows:
        unknowns = sorted(set().union(*(row_sets[r] for r in residual_rows)))
        col_of = {v: j for j, v in enumerate(unknowns)}
        a = np.zeros((len(residual_rows), len(unknowns)), dtype=bool)
        rhs = np.zeros((len(residual_rows), planes), dtype=np.uint8)
        for i, r in enumerate(residual_rows):
            for v in row_sets[r]:
                a[i, col_of[v]] = True
            rhs[i] = row_val[r]
        pivot_row_of_col: dict[int, int] = {}
        pr = 0
        for col in range(len(unknowns)):
            hit = np.nonzero(a[pr:, col])[0]
            if len(hit) == 0:
                continue
            r0 = pr + int(hit[0])
            if r0 != pr:
                a[[pr, r0]] = a[[r0, pr]]
                rhs[[pr, r0]] = rhs[[r0, pr]]
            others = np.nonzero(a[:, col])[0]
            others = others[others != pr]
            a[others] ^= a[pr]
            rhs[others] ^= rhs[pr]
            pivot_row_of_col[col] = pr
            pr += 1
            if pr == len(residual_rows):
                break
        for col, v in enumerate(unknowns):
            prow = pivot_row_of_col.get(col)
            if prow is None:
                continue  # no pivot: stays unresolved
            if a[prow].sum() != 1:
                continue  # pivot row still couples free columns: not unique
            info[v] = rhs[prow]
            resolved[v] = True
        zero_rows = ~a.any(axis=1)
        if zero_rows.any():
            consistent &= (rhs[zero_rows] == 0).all(axis=0)

    return info, resolved, consistent
