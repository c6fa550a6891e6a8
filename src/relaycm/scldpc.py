"""Terminated spatially coupled LDPC codes over circulant lifts.

The base graph is the all-ones dv x dc matrix, coupled over a window of
width w: the edge of base row r and base column c is delayed by a
spreading index in [0, w), so a variable at position tau checks into
positions tau .. tau+w-1.  Each position carries dc circulant blocks of
size Q; a block with offset d maps variable lane q to check lane
(q + d) mod Q, i.e. acts as np.roll(eye(Q), d, axis=0).

Encoding is systematic by construction.  The last dv base columns are
parity: column j has an identity-lift edge with spreading 0 into base
row j, so interior parity blocks follow from a forward recursion.  The
final w-1 positions cannot be completed that way; there the parity
blocks and the last dv info columns are solved jointly against all
remaining checks.  That square system is rank deficient by exactly dv-1
(summing all its rows of one base-row class gives the all-ones vector,
for every class), which is also why the code keeps dv-1 more degrees of
freedom than the encoder uses: the free variables are pinned to zero so
the map stays linear.  Offsets that leave a larger deficiency are
rejected and redrawn.

The graph is held once, as a slot layout that build_code makes for the
accepted offset draw: one column per check, whose rows hold its
variables in the order the edges are listed, and for each variable the
slots of its dv edges.  Encoding and the syndrome XOR the word over
slot columns.

Decoding is a sliding-window sum-product pass that decides one position
per step, folding already-decided positions into the check parities.  A
step is a column slice of the layout plus the contiguous run of
variables its checks reach.  Every check and variable sum adds its terms
one at a time in slot order, so the window does not change a single bit
of the result.  Decoding runs in float32: the check-node function is
computed as log1p(2 / expm1(x)), which keeps its tail in float32 where
-ln tanh(x/2) would round it to zero.  A caller may watch each position
as it is committed and end the word there; the positions already
committed keep every bit, since no later step revisits them.  Building,
encoding and the syndrome stay exact integer work.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

DEFAULT_DV = 3
DEFAULT_DC = 15
_MAX_BUILD_ATTEMPTS = 20
_PHI_FLOOR = 1e-12
_PHI_CEIL = 88.0


def design_rate(chain_len: int, coupling: int, dv: int = DEFAULT_DV, dc: int = DEFAULT_DC) -> float:
    """Rate after termination: 1 - (dv/dc)(L+w-1)/L."""
    return 1.0 - (dv / dc) * (chain_len + coupling - 1) / chain_len


def _spread_index(r: int, c: int, w: int, dv: int, dc: int) -> int:
    if c >= dc - dv:
        # parity column j: identity anchor at row j, every other edge one
        # position later.  Deeper parity delays make the termination
        # system fall apart into structurally singular blocks.
        return 0 if r == c - (dc - dv) else 1
    return (r + c) % w


def _greedy_offsets(q, w, dv, dc, rng):
    """Circulant offsets avoiding lifted 4-cycles where possible.

    Two columns close a 4-cycle through a row pair iff both their
    spreading differences and their offset differences agree, so the
    tracker keys on (row pair, spreading difference).  Parity anchor
    edges keep offset 0 and still count.  Returns (offsets, violations).
    """
    offsets = np.zeros((dv, dc), dtype=np.int64)
    seen = {}
    violations = 0
    assigned = [[False] * dc for _ in range(dv)]

    def diffs(r, c, val):
        out = []
        for r2 in range(dv):
            if r2 == r or not assigned[r2][c]:
                continue
            a, b = (r, r2) if r < r2 else (r2, r)
            da = _spread_index(a, c, w, dv, dc) - _spread_index(b, c, w, dv, dc)
            v = val if a == r else offsets[a, c]
            v2 = offsets[b, c] if a == r else val
            out.append(((a, b, da), (v - v2) % q))
        return out
    for c in range(dc):
        for r in range(dv):
            if c >= dc - dv and r == c - (dc - dv):
                cand = [0]
            else:
                cand = list(rng.permutation(q))
            chosen = None
            for v in cand:
                if all(d not in seen.get(key, ()) for key, d in diffs(r, c, v)):
                    chosen = v
                    break
            if chosen is None:
                chosen = cand[0]
                violations += 1
            offsets[r, c] = chosen
            assigned[r][c] = True
            for key, d in diffs(r, c, chosen):
                seen.setdefault(key, set()).add(d)
    return offsets, violations


def _gf2_solver(words: np.ndarray, n_cols: int):
    """Row reduce the n_cols-column GF(2) matrix m whose rows are words,
    returning (transform, pivot_cols, rank) with transform @ m in reduced
    echelon form.

    Rows come and go packed 64 columns to a little-endian uint64 word,
    column j in bit j % 64 of word j // 64; the transform is n_rows
    columns wide.  Rows of [m | I], each half from a word boundary, are
    eliminated one word-wide panel of columns at a time (the "Four
    Russians" update of Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
    Inside a panel the pivot search and the row operations touch one word
    per row: the row's panel word, and a mask of the pivot rows, as they
    stood when the panel began, that went into it.  At the panel's end
    the full rows catch up at once: the row swaps as one permutation, then
    per 8 pivots a 256-entry table of their XORs, one gather and one XOR.
    The swaps and XORs are those of plain Gauss-Jordan elimination, column
    by column, so the transform is too.
    """
    n_rows, wm = words.shape
    wt = -(-n_rows // 64)
    own = np.uint64(1) << np.arange(64, dtype=np.uint64)
    a = np.zeros((n_rows, wm + wt), dtype="<u8")
    a[:, :wm] = words
    rows = np.arange(n_rows)
    a[rows, wm + rows // 64] = own[rows % 64]
    # panel state, one row per word: each row's panel word, then its mask
    # of pivot rows.  A pivot row carries its own bit while the panel runs,
    # so that one XOR passes it on along with the row.
    pw = np.empty((2, n_rows), dtype=np.uint64)
    word = pw[0].view(np.int64)
    hit = np.empty(n_rows, dtype=np.int64)
    hit_mask = hit.view(np.uint64)
    step = np.empty((2, n_rows), dtype=np.uint64)
    pivots = []
    r = 0
    for w in range(wm):
        r0 = r
        pw[0] = a[:, w]
        pw[1] = 0
        perm = np.arange(n_rows)
        for b in range(min(64, n_cols - 64 * w)):
            # all ones on the rows whose bit b is set, zero elsewhere
            np.left_shift(word, 63 - b, out=hit)
            np.right_shift(hit, 63, out=hit)
            i = r + int(hit[r:].argmin())
            if not hit[i]:
                continue
            if i != r:
                pw[0, r], pw[0, i] = pw[0, i], pw[0, r]
                pw[1, r], pw[1, i] = pw[1, i], pw[1, r]
                perm[r], perm[i] = perm[i], perm[r]
                hit[i] = hit[r]
            hit[r] = 0
            pw[1, r] ^= own[r - r0]
            np.bitwise_and(hit_mask, pw[:, r:r + 1], out=step)
            np.bitwise_xor(pw, step, out=pw)
            pivots.append(64 * w + b)
            r += 1
            if r == n_rows:
                break
        if r == r0:
            continue
        pw[1, r0:r] ^= own[:r - r0]
        # only rows from r0 on were swapped, and they are zero left of the
        # panel, so words before w stay put
        a_w = a[perm, w:]
        n_tab = -(-(r - r0) // 8)
        piv = np.zeros((8 * n_tab, a_w.shape[1]), dtype=np.uint64)
        piv[:r - r0] = a_w[r0:r]
        sel = pw[1].view(np.uint8).reshape(n_rows, 8)
        tab = np.empty((256, a_w.shape[1]), dtype=np.uint64)
        tab[0] = 0
        for c in range(n_tab):
            for j in range(8):
                np.bitwise_xor(tab[:1 << j], piv[8 * c + j], out=tab[1 << j:2 << j])
            np.bitwise_xor(a_w, tab[sel[:, c]], out=a_w)
        a[:, w:] = a_w
        if r == n_rows:
            break
    return np.ascontiguousarray(a[:, wm:]), np.array(pivots, dtype=np.int64), r


class SpatiallyCoupledCode:
    """One built code instance; use build_code to construct.

    slot_var[s, c] is the variable on slot s of check c; slots past a
    check's degree hold the sentinel n.  var_slot[k, v] is the flat
    position s * n_checks + c of variable v's k-th edge, in ascending
    check order.  Both are int32, half the bytes of intp; decode copies
    each step's slice into intp buffers for np.take.  The termination
    solve's transform is held packed as _gf2_solver returns it, one bit
    per entry in uint64 words.
    """

    def __init__(self, q, chain_len, coupling, dv, dc, offsets, girth, layout, tail_solver):
        self.q = q
        self.chain_len = chain_len
        self.coupling = coupling
        self.dv = dv
        self.dc = dc
        self.offsets = offsets
        self.girth = girth
        self.n = dc * q * chain_len
        self.n_checks = dv * q * (chain_len + coupling - 1)
        self.k = q * ((dc - dv) * chain_len - dv * (coupling - 1))
        self.rate = self.k / self.n
        self.slot_var, self.var_slot = layout
        self._tail_transform, self._tail_pivots, self._tail_rank = tail_solver
        role = _var_roles(q, chain_len, coupling, dv, dc)
        self.info_vars = np.flatnonzero(role == 0)
        self.tail_vars = np.flatnonzero(role == 2)

    def _parity(self, x, chk0, chk1):
        """Parities of checks chk0..chk1-1 of a word x that carries a 0 at
        the sentinel index n."""
        return np.bitwise_xor.reduce(x[self.slot_var[:, chk0:chk1]], axis=0)

    def encode(self, u) -> np.ndarray:
        """Systematic encoding of k info bits into an n-bit codeword."""
        u = np.asarray(u, dtype=np.uint8).ravel()
        if len(u) != self.k:
            raise ConfigError(f"expected {self.k} info bits, got {len(u)}")
        q, dc, dv, L, w = self.q, self.dc, self.dv, self.chain_len, self.coupling
        x = np.zeros(self.n + 1, dtype=np.uint8)
        x[self.info_vars] = u & 1
        for cls in range((L - w + 1) * dv):
            t, r = divmod(cls, dv)
            base = (t * dc + dc - dv + r) * q
            x[base:base + q] = self._parity(x, cls * q, (cls + 1) * q)
        rhs = self._parity(x, (L - w + 1) * dv * q, self.n_checks)
        packed = np.zeros(8 * self._tail_transform.shape[1], dtype=np.uint8)
        packed[:-(-len(rhs) // 8)] = np.packbits(rhs, bitorder="little")
        # bit i of the product is the parity of row i AND rhs: XOR its words,
        # then the 64 bits of the result
        v = np.bitwise_xor.reduce(self._tail_transform & packed.view("<u8"), axis=1)
        y = np.bitwise_xor.reduce(np.unpackbits(v.view(np.uint8)).reshape(-1, 64), axis=1)
        if np.any(y[self._tail_rank:]):
            raise RuntimeError("termination system inconsistent; corrupted build")
        # the tail is still all zero; free variables stay so
        x[self.tail_vars[self._tail_pivots]] = y[:self._tail_rank]
        return x[:self.n]

    def syndrome(self, x) -> np.ndarray:
        """All check parities of a word."""
        xs = np.append(np.asarray(x, dtype=np.uint8), np.uint8(0))
        return self._parity(xs, 0, self.n_checks).astype(np.int64)

    def to_alist(self) -> str:
        """Standard alist text: dimensions, max degrees, per-node degree
        lists, then 1-based neighbor lists padded with zeros.

        The lists are read off the slot layout, whose edges run in
        ascending order on both sides.
        """
        n, slot_var = self.n, self.slot_var
        var_nbr = self.var_slot.T % self.n_checks + 1
        # the pad sentinel n becomes the alist's 0
        chk_nbr = np.where(slot_var == n, -1, slot_var).T + 1
        lines = [
            f"{n} {self.n_checks}",
            f"{self.dv} {len(slot_var)}",
            " ".join([str(self.dv)] * n),
            " ".join(map(str, (slot_var < n).sum(axis=0).tolist())),
        ]
        lines += [" ".join(map(str, nbr)) for nbr in var_nbr.tolist()]
        lines += [" ".join(map(str, nbr)) for nbr in chk_nbr.tolist()]
        return "\n".join(lines) + "\n"


def _build_edges(q, chain_len, coupling, dv, dc, offsets):
    """(variable, check) ids of every edge, listed along axes (tau, c, r,
    lane); the list order fixes the order of each check's slots."""
    spread = np.array([[_spread_index(r, c, coupling, dv, dc) for r in range(dv)]
                       for c in range(dc)])
    tau = np.arange(chain_len)[:, None, None, None]
    c = np.arange(dc)[None, :, None, None]
    r = np.arange(dv)[None, None, :, None]
    lanes = np.arange(q)
    var_ids = np.broadcast_to((tau * dc + c) * q + lanes, (chain_len, dc, dv, q)).ravel()
    chk_ids = (((tau + spread[:, :, None]) * dv + r) * q
               + (lanes + offsets.T[:, :, None]) % q).ravel()
    return var_ids, chk_ids


def _slot_layout(q, chain_len, coupling, dv, dc, edge_var, edge_check):
    """(slot_var, var_slot) of SpatiallyCoupledCode, from _build_edges' list."""
    n, n_checks = dc * q * chain_len, dv * q * (chain_len + coupling - 1)
    # the list holds blocks of q edges, one block per (tau, c, r), and each
    # block meets every check of one class (the q checks of a position and
    # base row) once.  An edge's slot is the number of blocks listed before
    # its own that meet the same class; a stable sort keeps the list order.
    cls = edge_check[::q] // q
    per_cls = np.bincount(cls)
    blk = np.empty_like(cls)
    blk[np.argsort(cls, kind="stable")] = np.arange(len(cls))
    blk -= (np.cumsum(per_cls) - per_cls)[cls]
    slot = np.repeat(blk, q)
    slot_var = np.full((per_cls.max(), n_checks), n, dtype=np.int32)
    slot_var[slot, edge_check] = edge_var
    slot *= n_checks
    slot += edge_check
    # a variable's checks ascend in an order that depends on its column
    # alone, the order of their classes
    rank = cls[:dc * dv].reshape(dc, dv).argsort(axis=1).argsort(axis=1)
    var_slot = np.empty((dv, n), dtype=np.int32)
    np.put_along_axis(var_slot.reshape(dv, chain_len, dc, q).transpose(1, 2, 0, 3),
                      rank[None, :, :, None], slot.reshape(chain_len, dc, dv, q), axis=2)
    return slot_var, var_slot


def _var_roles(q, chain_len, coupling, dv, dc):
    """Role of every variable: 0 info, 1 interior parity, 2 tail unknown.

    Each position's last dv columns are parity, except in the last w-1
    positions, whose last 2*dv columns are unknowns of the termination
    system."""
    role = np.zeros((chain_len, dc), dtype=np.uint8)
    role[:, dc - dv:] = 1
    role[chain_len - coupling + 1:, dc - 2 * dv:] = 2
    return np.repeat(role.ravel(), q)


def _tail_system(q, chain_len, coupling, dv, dc, edge_check):
    """The square termination system in _gf2_solver's packed rows: row i
    is check chk0 + i, column j the j-th tail unknown of _var_roles."""
    # the unknowns are the last 2*dv columns of the last w-1 positions.  The
    # list runs along (tau, c, r, lane), so their edges lie in its tail, and
    # they meet only checks at chk0 or later.
    t0 = chain_len - coupling + 1
    chk0 = t0 * dv * q
    chk = edge_check[t0 * dc * dv * q:].reshape(coupling - 1, dc, dv, q)[:, dc - 2 * dv:]
    n_tail = (coupling - 1) * 2 * dv * q
    col = np.broadcast_to(np.arange(n_tail).reshape(coupling - 1, 2 * dv, 1, q), chk.shape)
    words = np.zeros((n_tail, -(-n_tail // 64)), dtype="<u8")
    np.bitwise_xor.at(words, ((chk - chk0).ravel(), (col >> 6).ravel()),
                      np.uint64(1) << (col & 63).astype(np.uint64).ravel())
    return words


def build_code(q: int, chain_len: int, coupling: int, seed: int = 0,
               dc: int = DEFAULT_DC) -> SpatiallyCoupledCode:
    """Construct a terminated coupled code.

    Parameters are the lift size Q, chain length L, coupling width w and
    check degree dc; the variable degree is DEFAULT_DV.  Powers of two
    for Q give the offset search the most room.  The build redraws
    offsets until the termination system has the minimal rank deficiency
    dv-1; a failure after many attempts raises.
    """
    dv = DEFAULT_DV
    if q < 2 or chain_len < 2 or coupling < 2:
        raise ConfigError("need q >= 2, chain length >= 2, coupling >= 2")
    if coupling > chain_len:
        raise ConfigError("coupling width cannot exceed the chain length")
    if coupling > dv:
        raise ConfigError("coupling width cannot exceed the variable degree")
    if dc < 2 * dv:
        raise ConfigError("need dc >= 2*dv for the terminated layout")
    for attempt in range(_MAX_BUILD_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
        offsets, violations = _greedy_offsets(q, coupling, dv, dc, rng)
        edges = _build_edges(q, chain_len, coupling, dv, dc, offsets)
        system = _tail_system(q, chain_len, coupling, dv, dc, edges[1])
        transform, pivots, rank = _gf2_solver(system, len(system))
        if len(system) - rank == dv - 1:
            return SpatiallyCoupledCode(
                q, chain_len, coupling, dv, dc, offsets,
                girth=4 if violations else 6,
                layout=_slot_layout(q, chain_len, coupling, dv, dc, *edges),
                tail_solver=(transform, pivots, rank),
            )
        # a rejected draw holds nothing while the next one is solved
        del edges, system, transform, pivots
    raise RuntimeError(
        f"no workable termination after {_MAX_BUILD_ATTEMPTS} offset draws"
    )


class DecodeResult:
    """Hard output word, per-position convergence flags, and the float32
    posterior LLR of every variable at the step that committed it.

    A word that a stop callback ended holds 0 in bits and posteriors past
    the stopping position, and reports no position converged."""

    def __init__(self, bits, converged, iterations, posteriors):
        self.bits = bits
        self.converged = converged
        self.iterations = iterations
        self.posteriors = posteriors


def _phi(x, out, ceil=_PHI_CEIL):
    # involution -ln tanh(x/2), written log1p(2 / expm1(x)) so that float32
    # keeps its tail: float32 tanh(x/2) rounds to 1 near x = 17, where
    # -ln tanh would read 0.  The clip keeps every step finite and normal:
    # expm1 overflows float32 above about 88.7, and 2 / expm1 turns
    # subnormal above about 88.03, so phi(x >= _PHI_CEIL) = phi(_PHI_CEIL),
    # about 1.2e-38.  A lower ceil folds a saturation clip of x >= 0 into
    # the same pass.  Scalar bounds: np.clip against arrays of the bounds
    # runs about 5x slower.
    np.clip(x, _PHI_FLOOR, ceil, out=out)
    np.expm1(out, out=out)
    np.divide(2.0, out, out=out)
    return np.log1p(out, out=out)


def decode(code: SpatiallyCoupledCode, llrs, window: int | None = None,
           iterations: int = 20, saturation: float = 25.0, stop=None) -> DecodeResult:
    """Sliding-window sum-product decoding of one codeword.

    llrs follow the positive-means-zero convention.  The window spans
    `window` positions (default 4w); each step runs up to `iterations`
    full parallel iterations, stops early once the checks of the
    window's first 2w + 1 positions hold, then commits the oldest
    position.  That prefix spans every check within two hops of the
    committed variables (window positions 0 to 2w - 2) and two more: the
    two-hop prefix alone left failed words where checking the whole
    window left none.  A window of at most 2w + 1 positions is all
    prefix.  A position's flag reports whether every check touching it
    holds for the final word and its committed posteriors were all
    nonzero.

    When given, stop(t, bits) is called after position t is committed,
    with the hard word so far (0 past t).  A true return ends decoding
    there: `iterations` counts the iterations that ran, bits and
    posteriors past t stay 0, and no position is flagged converged.
    Committed positions match the full decode bit for bit.

    Messages live on the code's slot layout (see SpatiallyCoupledCode).
    A step is a column slice of it, the window's checks, plus the
    contiguous run of variables those checks reach; slots of committed
    variables take no messages and only fix the parity of their checks.
    Every message, sum and posterior is float32, and check and variable
    sums add one term at a time in slot order.  The LLRs are rounded to
    float32 on entry; saturation must be positive.
    """
    L, w, q, dv, dc = code.chain_len, code.coupling, code.q, code.dv, code.dc
    win = 4 * w if window is None else int(window)
    if win < w:
        raise ConfigError("window must span at least the coupling width")
    if not saturation > 0:
        raise ConfigError("saturation must be positive")
    lam = np.asarray(llrs, dtype=np.float32).ravel()
    if len(lam) != code.n:
        raise ConfigError(f"expected {code.n} LLRs, got {len(lam)}")
    slot_var, var_slot = code.slot_var, code.var_slot
    n, span, n_slots = code.n, dc * q, slot_var.shape[0]
    # index n is the pad sentinel: its hard bit stays 0
    hard = np.zeros(n + 1, dtype=np.uint8)
    bits = hard[:n]
    post = np.zeros(n + 1, dtype=np.float32)
    # check-to-variable messages on the whole layout.  Columns past a
    # step's window are still zero, so a variable's edges to checks the
    # window has not reached add nothing to its posterior.
    c2v = np.zeros((n_slots, code.n_checks), dtype=np.float32)
    c2v_flat = c2v.reshape(-1)
    # work buffers, allocated once: fresh temporaries would fault in pages
    # on every iteration
    max_chk, max_var = min(win, L + w - 1) * dv * q, min(win, L) * span
    f32 = np.empty((5, n_slots * max_chk), dtype=np.float32)
    u8 = np.empty((4, n_slots * max_chk), dtype=np.uint8)
    chk_u8 = np.empty((2, max_chk), dtype=np.uint8)
    chk_f32 = np.empty(max_chk, dtype=np.float32)
    var_msgs = np.empty(dv * max_var, dtype=np.float32)
    var_f32 = np.empty(max_var, dtype=np.float32)
    # np.take runs ~5x slower on strided indices, and converts others to
    # intp first: each step copies its slice of the layout into these
    gvar_buf = np.empty(n_slots * max_chk, dtype=np.intp)
    vslot_buf = np.empty(dv * max_var, dtype=np.intp)
    llr = np.zeros(n, dtype=np.float32)
    # the saturation clip of |v2c|, merged into phi's
    ph_ceil = min(saturation, _PHI_CEIL)
    total_iter = 0
    for t0 in range(L):
        c_hi = min(t0 + win, L + w - 1)
        chk0, chk1 = t0 * dv * q, c_hi * dv * q
        v0, v1 = t0 * span, min(c_hi, L) * span
        n_chk, n_var = chk1 - chk0, v1 - v0
        shape = (n_slots, n_chk)
        gvar = gvar_buf[:n_slots * n_chk].reshape(shape)
        np.copyto(gvar, slot_var[:, chk0:chk1])
        vslot = vslot_buf[:dv * n_var].reshape(dv, n_var)
        np.copyto(vslot, var_slot[:, v0:v1])
        msg = c2v[:, chk0:chk1]
        gath, v2c, ph, mag, live_f = (b[:n_slots * n_chk].reshape(shape) for b in f32)
        # v2c is spent once neg and ph are formed; its bits then carry
        # each message's sign
        sign = v2c.view(np.uint32)
        neg, par, live, far = (b[:n_slots * n_chk].reshape(shape) for b in u8)
        far = far.view(bool)
        chk_par, syn = chk_u8[:, :n_chk]
        ph_sum = chk_f32[:n_chk]
        v_msgs = var_msgs[:dv * n_var].reshape(dv, n_var)
        v_sum = var_f32[:n_var]
        lam_w, post_w = lam[v0:v1], post[v0:v1]
        # slots of committed variables and pads: no messages, and the
        # committed bits fold into a fixed parity per check
        dead = (gvar < v0) | (gvar == n)
        np.logical_not(dead, out=live)
        np.copyto(live_f, live)
        flip = np.bitwise_xor.reduce(hard.take(gvar), axis=0)
        post_w[:] = lam_w
        msg[:] = 0.0
        # every np.take here uses mode="wrap": the layout's indices are in
        # range, and under the default mode="raise" np.take fills out
        # through a buffered copy, about 1.7x slower
        np.take(post, gvar, out=gath, mode="wrap")
        for _ in range(iterations):
            total_iter += 1
            np.subtract(gath, msg, out=v2c)
            np.less(v2c, 0.0, out=neg)
            _phi(np.abs(v2c, out=ph), out=ph, ceil=ph_ceil)
            np.multiply(ph, live_f, out=ph)
            np.sum(ph, axis=0, out=ph_sum)
            np.subtract(ph_sum, ph, out=mag)
            # past the ceiling phi is below every normal float32: send 0,
            # not _phi's clipped 1.2e-38, so that a check whose other
            # inputs carry nothing sends nothing
            np.greater_equal(mag, _PHI_CEIL, out=far)
            _phi(mag, out=mag)
            mag[far] = 0.0
            np.bitwise_and(neg, live, out=neg)
            np.bitwise_xor.reduce(neg, axis=0, out=chk_par)
            np.bitwise_xor(chk_par, flip, out=chk_par)
            np.bitwise_xor(neg, chk_par, out=par)
            # mag is finite and >= 0, so flipping its sign bit is mag * -1,
            # -0.0 included
            np.left_shift(par, np.uint32(31), out=sign)
            np.bitwise_xor(mag.view(np.uint32), sign, out=msg.view(np.uint32))
            np.take(c2v_flat, vslot, out=v_msgs, mode="wrap")
            np.add(lam_w, np.sum(v_msgs, axis=0, out=v_sum), out=post_w)
            # the syndrome test reads the gather the next iteration needs
            np.take(post, gvar, out=gath, mode="wrap")
            np.less(gath, 0.0, out=neg)
            np.bitwise_and(neg, live, out=neg)
            np.bitwise_xor.reduce(neg, axis=0, out=syn)
            np.bitwise_xor(syn, flip, out=syn)
            if not syn[:(2 * w + 1) * dv * q].any():
                break
        llr[v0:v0 + span] = post[v0:v0 + span]
        np.less(llr[v0:v0 + span], 0.0, out=hard[v0:v0 + span])
        if stop is not None and stop(t0, bits):
            return DecodeResult(bits=bits, converged=np.zeros(L, dtype=bool),
                                iterations=total_iter, posteriors=llr)
    min_abs = np.abs(llr).reshape(L, span).min(axis=1)
    syn = code.syndrome(bits)
    clean = syn.reshape(L + w - 1, dv * q).sum(axis=1) == 0
    flags = np.empty(L, dtype=bool)
    for t in range(L):
        flags[t] = bool(clean[t:min(t + w, L + w - 1)].all()) and min_abs[t] > 0.0
    return DecodeResult(bits=bits, converged=flags, iterations=total_iter, posteriors=llr)
