"""Quasi-cyclic LDPC construction, systematic encoding, sum-product decoding.

Codes are built from seeded constructions (circulant lifts of a base
pattern, or progressive edge growth for the random preset) so results
are reproducible without shipping matrices.  The parity matrix is held
as sparse edge arrays, and progressive edge growth grows them directly.
Encoding uses a one-time Gaussian elimination over GF(2) that records
which columns ended up as parity positions; the remaining (free) columns
carry the info bits.

The decoder is a flooding sum-product with the tanh-product check rule on
a slot layout: check c's k-th edge is slot (k, c) of a (W, m) array, W the
largest row weight, and each column's sum of log |tanh| and parity of
negatives give its edges' products of the others.  Shorter checks pad with
v2c = +inf, whose log |tanh| is exactly 0.0.  Column sums add the W rows in
turn, as a bincount over the edges does, so messages match edge order bit
for bit; np.add.reduceat would not, as it sums runs of 8 or more pairwise.

LLR sign convention matches the quantizer tables: positive favors bit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAX_BUILD_TRIES = 20
RATE_TOL = 0.005
L_MAX = 30.0  # LLR clamp of the decoder and the quantizer's tables, natural-log units
_ATANH_LIM = 1.0 - 1e-15
_SIGN_BIT = np.uint64(1 << 63)
_BYTE_PARITY = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1) & 1


@dataclass(frozen=True)
class ParityMatrix:
    """Sparse binary parity-check matrix with edge arrays for decoding."""

    n_rows: int
    n_cols: int
    edge_check: np.ndarray  # check index per edge, sorted by (check, var)
    edge_var: np.ndarray    # variable index per edge, same order

    def __post_init__(self):
        ec = np.asarray(self.edge_check, dtype=np.int64)
        ev = np.asarray(self.edge_var, dtype=np.int64)
        if ec.shape != ev.shape or ec.ndim != 1 or ec.size == 0:
            raise ValueError("edge arrays must be matching nonempty 1-D arrays")
        if ec.min() < 0 or ec.max() >= self.n_rows:
            raise ValueError("check index out of range")
        if ev.min() < 0 or ev.max() >= self.n_cols:
            raise ValueError("variable index out of range")
        order = np.lexsort((ev, ec))
        ec, ev = ec[order], ev[order]
        packed = ec * self.n_cols + ev
        if np.unique(packed).size != packed.size:
            raise ValueError("duplicate edges in parity matrix")
        if np.unique(ev).size != self.n_cols:
            raise ValueError("every column must have weight at least 1")
        object.__setattr__(self, "edge_check", ec)
        object.__setattr__(self, "edge_var", ev)

    def dense(self) -> np.ndarray:
        h = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        h[self.edge_check, self.edge_var] = 1
        return h

    @cached_property
    def slots(self):
        """The decoder's layout (see the module docstring): each edge's flat
        slot, each slot's variable as a (W, m) array (n_cols on a pad), the
        flat pad slots, and each variable's slots in check order (then W * m)."""
        ec, ev, m, n = self.edge_check, self.edge_var, self.n_rows, self.n_cols
        k = np.arange(ec.size) - np.searchsorted(ec, ec)
        edge, w = k * m + ec, int(k.max()) + 1
        var = np.full(w * m, n)
        var[edge] = ev
        by_var = np.argsort(ev, kind="stable")
        ev = ev[by_var]
        j = np.arange(ec.size) - np.searchsorted(ev, ev)
        var_slots = np.full((int(j.max()) + 1, n), w * m)
        var_slots[j, ev] = edge[by_var]
        return edge, var.reshape(w, m), np.flatnonzero(var == n), var_slots


@dataclass(frozen=True)
class CodeSpec:
    """Construction request for one code family member."""

    name: str
    n: int
    rate: float
    col_weight: int
    base_rows: int = 0   # QC lift geometry; zero for random codes
    base_cols: int = 0
    z: int = 0
    m_rows: int = 0      # explicit row count for random codes

    @property
    def is_qc(self) -> bool:
        return self.z > 0


PRESETS = {
    "4k-qc": CodeSpec(name="4k-qc", n=4544, rate=0.9, col_weight=5,
                      base_rows=7, base_cols=71, z=64),
    "2k-qc": CodeSpec(name="2k-qc", n=2624, rate=0.9, col_weight=4,
                      base_rows=4, base_cols=41, z=64),
    "2k-random": CodeSpec(name="2k-random", n=1998, rate=0.89, col_weight=4,
                          m_rows=223),
}


def qc_expand(shifts, z: int) -> ParityMatrix:
    """Lift a base shift table: -1 blocks vanish, s becomes I shifted by s.

    Block entry s places ones at (i, (i + s) mod z) within the block.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    if shifts.ndim != 2:
        raise ValueError("shift table must be 2-D")
    if np.any((shifts < -1) | (shifts >= z)):
        raise ValueError(f"shifts must be -1 or in [0, {z})")
    br, bc = np.nonzero(shifts >= 0)
    if br.size == 0:
        raise ValueError("all-zero matrix has empty columns")
    i = np.arange(z)
    rows = (br[:, None] * z + i[None, :]).ravel()
    cols = (bc[:, None] * z + (i[None, :] + shifts[br, bc][:, None]) % z).ravel()
    return ParityMatrix(shifts.shape[0] * z, shifts.shape[1] * z, rows, cols)


# -- seeded constructions ----------------------------------------------------

def _qc_base_pattern(spec: CodeSpec) -> np.ndarray:
    """Which blocks are present: col_weight rows per base column, balanced."""
    pattern = np.zeros((spec.base_rows, spec.base_cols), dtype=bool)
    for c in range(spec.base_cols):
        for k in range(spec.col_weight):
            pattern[(spec.col_weight * c + k) % spec.base_rows, c] = True
    return pattern


def _qc_shift_table(pattern: np.ndarray, z: int, rng) -> np.ndarray | None:
    """Greedy shift assignment; None when a cell runs dry.  Each shift
    avoids every value that would close a four-cycle with an earlier column,
    s[r,c] = s[r,c2] - s[r2,c2] + s[r2,c] (mod z), so the lift has none."""
    br, bc = pattern.shape
    shifts = np.full((br, bc), -1, dtype=np.int64)
    for c in range(bc):
        for r in np.flatnonzero(pattern[:, c]):
            r2 = np.flatnonzero(shifts[:, c] >= 0)  # rows of column c set so far
            closing = (shifts[r, :c] - shifts[r2, :c] + shifts[r2, c, None]) % z
            order = rng.permutation(z)
            barred = np.zeros(z, dtype=bool)
            barred[closing[pattern[r, :c] & pattern[r2, :c]]] = True
            free = order[~barred[order]]
            if free.size == 0:
                return None
            shifts[r, c] = free[0]
    return shifts


def _build_qc(spec: CodeSpec, rng) -> ParityMatrix | None:
    shifts = _qc_shift_table(_qc_base_pattern(spec), spec.z, rng)
    return None if shifts is None else qc_expand(shifts, spec.z)


def _reach(ec: np.ndarray, ev: np.ndarray, v: int, m: int, n: int):
    """Checks that variable v reaches over the edges (ec, ev), plus the last
    layer of the breadth-first search."""
    seen = np.zeros(n, dtype=bool)
    seen[v] = True
    reached = frontier = np.zeros(m, dtype=bool)
    while True:
        now = reached.copy()
        now[ec[seen[ev]]] = True
        new = now & ~reached
        if not new.any():
            return reached, frontier
        frontier, reached = new, now
        seen[ev[now[ec]]] = True


def _build_peg(spec: CodeSpec, rng) -> ParityMatrix | None:
    """Progressive edge growth at fixed column weight.

    Each edge of variable v goes to a check of least degree among those v
    does not reach yet or, once v reaches every check, among the last
    layer its search reached.  Edges are grown in variable order, w each.
    """
    m, n, w = spec.m_rows, spec.n, spec.col_weight
    ec = np.zeros(n * w, dtype=np.int64)
    ev = np.repeat(np.arange(n), w)
    deg = np.zeros(m, dtype=np.int64)
    for e in range(n * w):
        v, k = divmod(e, w)
        pool = np.ones(m, dtype=bool)
        if k:
            reached, frontier = _reach(ec[:e], ev[:e], v, m, n)
            pool = frontier if reached.all() else ~reached
            pool[ec[e - k:e]] = False
        cand = np.flatnonzero(pool)
        if cand.size == 0:
            return None
        best = cand[deg[cand] == deg[cand].min()]
        ec[e] = best[rng.integers(best.size)]
        deg[ec[e]] += 1
    # four-cycle free: no pair of checks is shared by two variables
    checks = np.sort(ec.reshape(n, w), axis=1)
    a, b = np.triu_indices(w, 1)
    pairs = checks[:, a] * m + checks[:, b]
    return ParityMatrix(m, n, ec, ev) if np.unique(pairs).size == pairs.size else None


# -- encoding ----------------------------------------------------------------

def _gf2_rref(pm: ParityMatrix):
    """Reduced row echelon form of H over GF(2), rows packed 64 columns to a
    word (column c is bit c % 64 of word c // 64); returns (rows, pivots)."""
    m, n = pm.n_rows, pm.n_cols
    rows = np.zeros((m, -(-n // 64)), dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), (pm.edge_var & 63).astype(np.uint64))
    np.bitwise_or.at(rows, (pm.edge_check, pm.edge_var >> 6), bit)
    pivots = []
    r = 0
    for c in range(n):
        word, mask = c >> 6, np.uint64(1 << (c & 63))
        hit = np.flatnonzero(rows[r:, word] & mask)
        if hit.size == 0:
            continue
        pr = r + int(hit[0])
        if pr != r:
            rows[[r, pr]] = rows[[pr, r]]
        others = np.flatnonzero(rows[:, word] & mask)
        others = others[others != r]
        if others.size:
            # row r is zero left of column c, so only words from c's on change
            rows[others, word:] ^= rows[r, word:]
        pivots.append(c)
        r += 1
        if not rows[r:].any():  # the rows below the rank are all zero
            break
    return rows, pivots


@dataclass(frozen=True)
class LdpcCode:
    """Built code: parity matrix plus systematic-encoding tables."""

    spec: CodeSpec
    h: ParityMatrix
    rank: int
    pivot_cols: np.ndarray  # parity positions
    free_cols: np.ndarray   # systematic (info) positions
    parity_map: np.ndarray  # rank x info_len over GF(2), rows packed 8 bits a byte

    @property
    def n(self) -> int:
        return self.h.n_cols

    @property
    def info_len(self) -> int:
        return self.free_cols.size

    @property
    def measured_rate(self) -> float:
        return self.info_len / self.n


def code_from_matrix(pm: ParityMatrix, spec: CodeSpec) -> LdpcCode:
    """Attach encoder tables to an arbitrary parity matrix built for spec."""
    rows, pivots = _gf2_rref(pm)
    rank = len(pivots)
    pivot_cols = np.asarray(pivots, dtype=np.int64)
    mask = np.ones(pm.n_cols, dtype=bool)
    mask[pivot_cols] = False
    free_cols = np.nonzero(mask)[0]
    parity_map = np.empty((rank, -(-free_cols.size // 8)), dtype=np.uint8)
    for lo in range(0, rank, 64):  # 64 rows' bits unpacked at a time
        part = rows[lo:min(lo + 64, rank)].astype("<u8").view(np.uint8)
        bits = np.unpackbits(part, axis=1, bitorder="little")
        parity_map[lo:lo + 64] = np.packbits(bits[:, free_cols], axis=1)
    return LdpcCode(spec=spec, h=pm, rank=rank, pivot_cols=pivot_cols,
                    free_cols=free_cols, parity_map=parity_map)


def build_code(name: str, seed: int = 0) -> LdpcCode:
    """Build the preset of that exact name; deterministic per seed."""
    if name not in PRESETS:
        raise ValueError(f"unknown code preset: {name!r}")
    return _build_cached(PRESETS[name], seed)


@lru_cache(maxsize=8)
def _build_cached(spec: CodeSpec, seed: int) -> LdpcCode:
    for attempt in range(MAX_BUILD_TRIES):
        rng = np.random.default_rng((seed, attempt))
        pm = _build_qc(spec, rng) if spec.is_qc else _build_peg(spec, rng)
        if pm is None:
            continue
        code = code_from_matrix(pm, spec)
        if abs(code.measured_rate - spec.rate) > RATE_TOL:
            continue
        return code
    raise ValueError(f"could not build {spec.name} within {MAX_BUILD_TRIES} attempts")


def encode(code: LdpcCode, info) -> np.ndarray:
    """Systematic codeword: info on free columns, parity solved from RREF."""
    info = np.asarray(info)
    if info.shape != (code.info_len,):
        raise ValueError(f"expected {code.info_len} info bits, got {info.shape}")
    info = info.astype(np.int64) & 1
    c = np.zeros(code.n, dtype=np.uint8)
    c[code.free_cols] = info
    # parity bit = GF(2) dot product: XOR the bytes of (row AND info),
    # then look up the parity of the byte that remains
    row_bytes = code.parity_map & np.packbits(info)
    c[code.pivot_cols] = _BYTE_PARITY[np.bitwise_xor.reduce(row_bytes, axis=1)]
    return c


def _parity(odd) -> np.ndarray:
    """Per-check parity of a (W, m) slot array of bools, False on the pads."""
    return np.bitwise_xor.reduce(odd, axis=0)


# -- sum-product decoding ----------------------------------------------------

def _check_rule(v2c, out, t, logmag, neg, sign) -> None:
    """Check-node update on (W, m) slot arrays, +inf on v2c's pads, into out;
    t, logmag, neg and sign are work arrays (float, float, bool, uint64)."""
    np.tanh(np.multiply(v2c, 0.5, out=t), out=t)
    np.less(t, 0.0, out=neg)
    mag = np.abs(t, out=t)
    zero = None if mag.min() > 0.0 else mag == 0.0
    if zero is not None:
        mag[zero] = 1.0  # log 1 = 0: a zero factor adds nothing to the sum
    np.log(mag, out=logmag)
    np.exp(np.subtract(logmag.sum(axis=0), logmag, out=out), out=out)
    if zero is not None:
        out[zero.sum(axis=0) - zero > 0] = 0.0
    # the product's sign: parity of the negatives among the others
    np.bitwise_xor(neg, _parity(neg), out=neg)
    bits = out.view(np.uint64)
    np.bitwise_xor(bits, np.multiply(neg, _SIGN_BIT, out=sign), out=bits)
    np.clip(out, -_ATANH_LIM, _ATANH_LIM, out=out)
    np.multiply(np.arctanh(out, out=out), 2.0, out=out)


def sp_decode(code: LdpcCode, llrs, i_max: int = 25):
    """Flooding sum-product decode; returns (bits, converged, iterations).

    Channel LLRs and messages are clamped to +-L_MAX, read at call time.
    Convergence requires a zero syndrome with every posterior strictly
    signed; an all-zero posterior (no channel information) therefore
    reports converged=False even though the trivial word checks out.
    """
    pm = code.h
    llr = np.asarray(llrs, dtype=float)
    if llr.shape != (pm.n_cols,):
        raise ValueError(f"expected {pm.n_cols} LLRs, got {llr.shape}")
    if i_max < 1:
        raise ValueError(f"i_max must be at least 1, got {i_max}")
    _, var, pads, var_slots = pm.slots
    clamp = L_MAX
    # Internal sign convention is log(p0/p1); inputs use the opposite.
    # The pads gather total[n] = +inf: v2c +inf, never negative.
    total = np.append(np.clip(-llr, -clamp, clamp), np.inf)
    post, intr, v2c = total[:-1], total[:-1].copy(), total[var]
    c2v = np.zeros(v2c.size + 1)  # c2v[-1] = 0.0 fills a variable's missing edges
    c2v_slots, gathered = c2v[:-1].reshape(var.shape), np.empty(var_slots.shape)
    g, logmag = np.empty((2, *var.shape))
    odd, sign = np.empty(var.shape, bool), np.empty(var.shape, np.uint64)
    for it in range(1, int(i_max) + 1):
        _check_rule(v2c, c2v_slots, g, logmag, odd, sign)  # g, odd: its work arrays
        np.clip(c2v_slots, -clamp, clamp, out=c2v_slots)
        np.take(c2v, var_slots, out=gathered).sum(axis=0, out=post)
        post += intr
        np.take(total, var, out=g)
        np.clip(np.subtract(g, c2v_slots, out=v2c), -clamp, clamp, out=v2c)
        v2c.ravel()[pads] = np.inf
        if not _parity(np.less(g, 0.0, out=odd)).any() and post.all():
            return (post < 0.0).astype(np.uint8), True, it
    return (post < 0.0).astype(np.uint8), False, int(i_max)
