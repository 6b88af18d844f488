"""Vectorized (numpy) backend for the coherent-closure bootstrap.

The pure-Python :class:`~repro.core.coherence.ClosureEngine` keeps
descendant bitsets as Python ints and saturates rule (b) one segment at
a time.  That is the right shape for the *online* path (one step per
call), but the *batch* bootstrap — load every transaction, then
saturate from scratch — spends almost all of its time in big-int
algebra that vectorizes perfectly.  This module packs the same state
into 2-D ``uint64`` matrices and runs the whole fixpoint as
whole-matrix bitwise operations:

Packing layout
    Transactions become contiguous *blocks* of rows.  Each block's
    columns start on a byte boundary (``ceil(len/8)`` bytes per block),
    so a transaction's presence mask is a byte mask and the
    rule-(b) partner filter ``P`` is a per-(level, class-pair) row of
    ``0x00``/``0xFF`` bytes — no sub-byte masking in the hot loop.
    ``pad_ids[i]`` maps dense node id ``i`` to its padded bit column.

Single-Kahn schedule
    Every rule-(b) edge runs from a segment's last step to a step whose
    transaction is *strictly deeper* in the block graph of the seed
    edges (the target is already reachable from the segment, so its
    block is a descendant).  One block-level Kahn ranking computed up
    front therefore stays valid for every edge the saturation will ever
    add.  If the block graph is cyclic, or any same-block seed edge
    points backward, the closure is cyclic and the kernel *declines* —
    the pure-Python engine then produces its canonical witness, keeping
    cycle witnesses bit-identical across backends.

Super-level fixpoint
    Ranks are grouped into super-levels processed deepest-first.
    Within one super-level: sweep its ranks (entity-edge pulls and
    chain cascades), then saturate its segments with byte-domain greedy
    passes — leader extraction is ``argmax`` over the first nonzero
    byte plus a 256-entry lowest-bit table — and converge local
    staleness with change-filtered mini-sweeps.  Generated edges always
    point into deeper, already-final rows, so no global re-sweep is
    ever needed.

Backend seam
    :meth:`ClosureEngine.bootstrap` consults :func:`should_try`:
    the ``REPRO_CLOSURE_BACKEND`` environment variable selects
    ``numpy``, ``python``, or ``auto`` (default; numpy from
    :data:`NUMPY_MIN_NODES` nodes up).  The kernel returns ``None``
    whenever it cannot run (numpy missing, engine grown step-wise,
    cyclic), and the caller falls through to the pure-Python path — the
    Python engine is both the fallback and the differential oracle
    (``tests/core/test_closure_kernel.py``).

The closure itself is backend-independent (the coherent closure is a
unique fixpoint), and this kernel reproduces the Python engine's
descendant bitsets *bit for bit*.  Generating-edge sets and the
``iterations`` counter may differ between backends; verdicts, closures
and cycle witnesses never do.
"""

from __future__ import annotations

import functools
import importlib.util
import os

__all__ = [
    "NUMPY_MIN_NODES",
    "SUPERLEVEL_RANKS",
    "backend_choice",
    "default_backend",
    "kernel_available",
    "should_try",
    "bootstrap_engine",
]

#: Below this node count ``auto`` stays on the Python engine: per-call
#: numpy dispatch overhead (~20-50us an op) swamps the win on small
#: graphs (measured E1 crossover is near 3200 steps), and the online
#: window keeps engines small by pruning.
NUMPY_MIN_NODES = 3072

#: Kahn ranks fused per super-level.  Larger values amortize sweep
#: dispatch over more rows; smaller values shrink the staleness window
#: the inner refresh rounds must converge.  14 measured best on E1.
SUPERLEVEL_RANKS = 14

_ENV_VAR = "REPRO_CLOSURE_BACKEND"
_CHOICES = ("auto", "numpy", "python")


@functools.cache
def kernel_available() -> bool:
    """Whether the numpy backend can run at all in this interpreter.

    Answered without importing numpy: the kernel functions import it
    when first called, so a process that never bootstraps a closure of
    :data:`NUMPY_MIN_NODES` steps — every online window, hence the
    whole serve path — never pays for the import.
    """
    return importlib.util.find_spec("numpy") is not None


@functools.cache
def _lowbit():
    """Lowest set bit per byte value (8 for 0) — leader extraction."""
    import numpy as np

    table = np.full(256, 8, dtype=np.uint8)
    for value in range(1, 256):
        table[value] = (value & -value).bit_length() - 1
    return table


def backend_choice() -> str:
    """The configured backend: ``REPRO_CLOSURE_BACKEND`` or ``auto``.

    Read from the environment on every call so tests and benchmark
    harnesses can force a backend around individual measurements.
    """
    value = os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"
    if value not in _CHOICES:
        raise ValueError(
            f"{_ENV_VAR}={value!r}: expected one of {', '.join(_CHOICES)}"
        )
    return value


def default_backend() -> str:
    """The backend a large batch bootstrap would use right now (what
    ``auto`` resolves to) — label value for metrics surfaces."""
    choice = backend_choice()
    if choice == "python":
        return "python"
    return "numpy" if kernel_available() else "python"


def should_try(n_nodes: int) -> bool:
    """Whether :meth:`ClosureEngine.bootstrap` should attempt the
    vectorized kernel for an ``n_nodes``-step load."""
    choice = backend_choice()
    if choice == "python":
        return False
    floor = 1 if choice == "numpy" else NUMPY_MIN_NODES
    return n_nodes >= floor and kernel_available()


# ---------------------------------------------------------------------------
# engine state -> packed arrays
# ---------------------------------------------------------------------------


def _arrays_from_engine(engine):
    """Pack a freshly batch-loaded engine into kernel arrays.

    Returns ``None`` when the engine does not qualify: transactions not
    loaded as contiguous dense-id blocks, or a same-block seed edge
    pointing backward (a guaranteed cycle — the Python path owns the
    witness).
    """
    import numpy as np

    index = engine.index
    n = len(index)
    blocks = engine._blocks
    T = len(blocks)
    if not T or not n:
        return None
    blen = np.fromiter((hi - lo + 1 for _t, lo, hi in blocks), np.int64, T)
    lo_arr = np.fromiter((lo for _t, lo, _hi in blocks), np.int64, T)
    first_dense = np.concatenate(([0], np.cumsum(blen[:-1])))
    if int(blen.sum()) != n or not np.array_equal(lo_arr, first_dense):
        return None
    bbytes = (blen + 7) >> 3
    bstart_byte = np.concatenate(([0], np.cumsum(bbytes)))
    BY = int(bstart_byte[-1])
    W = (BY + 7) >> 3
    blk = np.repeat(np.arange(T), blen)
    pad_ids = bstart_byte[blk] * 8 + (np.arange(n) - first_dense[blk])
    byte_blk = np.repeat(np.arange(T), bbytes)

    if engine._seed_ids:
        se = np.array(engine._seed_ids, dtype=np.int64)
        es, ed = se[:, 0], se[:, 1]
    else:
        es = ed = np.empty(0, np.int64)
    same = blk[es] == blk[ed]
    if bool(np.any(es[same] >= ed[same])):
        return None  # backward/self same-block edge: cyclic
    cross = ~same
    es, ed = es[cross], ed[cross]
    seed_keys = es * n + ed

    # Multi-member segments straight from the engine (single-member
    # segments never owe an edge: first == last).  The engine built
    # them from the shared cut-boundary sweep, so the two backends
    # cannot disagree on segmentation by construction.
    bi_of_txn = {txn: bi for bi, (txn, _lo, _hi) in enumerate(blocks)}
    sf_l: list[int] = []
    sl_l: list[int] = []
    stx_l: list[int] = []
    slv_l: list[int] = []
    for seg in engine._segs:
        if seg.first != seg.last:
            sf_l.append(seg.first)
            sl_l.append(seg.last)
            stx_l.append(bi_of_txn[seg.txn])
            slv_l.append(seg.level)

    # Per-level class ids over blocks, factorized to small ints.
    k = engine.k
    cids = engine._cids
    cid_arr = []
    for lv0 in range(k):
        uniq: dict = {}
        arr = np.empty(T, np.int64)
        for bi, (txn, _lo, _hi) in enumerate(blocks):
            c = cids[txn][lv0]
            arr[bi] = uniq.setdefault(c, len(uniq))
        cid_arr.append(arr)

    # Partner byte-mask rows, shared across segments with the same
    # (level, same-class, closer-class) key.
    pkey: dict[tuple[int, int, int], int] = {}
    prow_list: list = []
    pid = np.zeros(len(sf_l), dtype=np.int64)
    for i in range(len(sf_l)):
        bi = stx_l[i]
        level = slv_l[i]
        c1 = int(cid_arr[level - 1][bi])
        c2 = int(cid_arr[level][bi]) if level < k else -1
        key = (level, c1, c2)
        j = pkey.get(key)
        if j is None:
            j = len(prow_list)
            pkey[key] = j
            tmask = cid_arr[level - 1] == c1
            if level < k:
                tmask &= cid_arr[level] != c2
            prow_list.append(np.repeat(tmask, bbytes))
        pid[i] = j
    P = (
        np.vstack(prow_list)
        if prow_list
        else np.zeros((0, BY), dtype=bool)
    ).astype(np.uint8) * np.uint8(0xFF)

    return dict(
        n=n,
        T=T,
        W=W,
        BY=BY,
        blen=blen,
        bstart_byte=bstart_byte[:-1],
        blk=blk,
        first_dense=first_dense,
        pad_ids=pad_ids,
        byte_blk=byte_blk,
        es=es,
        ed=ed,
        seed_keys=seed_keys,
        sf=np.array(sf_l, dtype=np.int64),
        sl=np.array(sl_l, dtype=np.int64),
        stx=np.array(stx_l, dtype=np.int64),
        pid=pid,
        P=P,
    )


def _kahn_blocks(d):
    """Block-level Kahn ranks from the cross-block seed edges.

    Returns ``(rank, n_levels)``, or ``(None, 0)`` when the block graph
    is cyclic (the closure then necessarily is too).
    """
    import numpy as np

    T = d["T"]
    bs = d["blk"][d["es"]]
    bd = d["blk"][d["ed"]]
    pair = np.unique(bs * T + bd)
    bs, bd = pair // T, pair % T
    indeg = np.bincount(bd, minlength=T)
    order = np.argsort(bs, kind="stable")
    ds = bd[order]
    starts = np.searchsorted(bs[order], np.arange(T + 1))
    rank = np.full(T, -1, dtype=np.int64)
    frontier = np.flatnonzero(indeg == 0)
    seen = 0
    r = 0
    while frontier.size:
        rank[frontier] = r
        seen += frontier.size
        b, e = starts[frontier], starts[frontier + 1]
        L = e - b
        tot = int(L.sum())
        if not tot:
            break
        shift = np.cumsum(L)
        flat = np.arange(tot) + np.repeat(
            b - np.concatenate(([0], shift[:-1])), L
        )
        succ = ds[flat]
        indeg -= np.bincount(succ, minlength=T)
        cand = np.unique(succ)
        frontier = cand[indeg[cand] == 0]
        r += 1
    if seen < T:
        return None, 0
    return rank, int(rank.max()) + 1


def _prep_slices(es, ed, keyr):
    """Group edges into conflict-free ``(key, position)`` slices so
    ``R[u] |= R[v]`` fancy indexing never writes one row twice; returned
    as ``{key: [(u_slice, v_slice), ...]}``."""
    import numpy as np

    if not es.size:
        return {}
    o1 = np.lexsort((ed, es))
    u1, v1, r1 = es[o1], ed[o1], keyr[o1]
    gs = np.flatnonzero(np.concatenate(([True], u1[1:] != u1[:-1])))
    posn = np.arange(u1.size) - np.repeat(
        gs, np.diff(np.concatenate((gs, [u1.size])))
    )
    maxp = int(posn.max()) + 1
    key = r1 * maxp + posn
    o2 = np.argsort(key, kind="stable")
    u2, v2, k2 = u1[o2], v1[o2], key[o2]
    bnd = np.concatenate(
        ([0], np.flatnonzero(k2[1:] != k2[:-1]) + 1, [k2.size])
    )
    out: dict = {}
    for a, b in zip(bnd[:-1], bnd[1:]):
        out.setdefault(int(k2[a]) // maxp, []).append((u2[a:b], v2[a:b]))
    return out


# ---------------------------------------------------------------------------
# the fixpoint
# ---------------------------------------------------------------------------


def _saturate(d, rank, nlev, sl_ranks=SUPERLEVEL_RANKS):
    """Run the super-level fixpoint; returns ``(R, Rb, rule_b_src,
    rule_b_tgt, inner_rounds)`` with ``R`` the padded reachability
    matrix (reflexive) and the rule-(b) edges deduplicated."""
    import numpy as np

    lowbit = _lowbit()
    n, W, BY, T = d["n"], d["W"], d["BY"], d["T"]
    blk = d["blk"]
    blen = d["blen"]
    fdense = d["first_dense"]
    R = np.zeros((n, W), dtype=np.uint64)
    Rb = R.view(np.uint8)[:, :BY]
    pb = d["pad_ids"]
    Rb[np.arange(n), pb >> 3] |= np.uint8(1) << (pb & 7).astype(np.uint8)

    nS = max(1, -(-nlev // sl_ranks))
    sl_of_rank = np.minimum(np.arange(nlev) // sl_ranks, nS - 1)
    sl_of_blk = sl_of_rank[rank]
    cross = _prep_slices(d["es"], d["ed"], rank[blk[d["es"]]])
    casc = {}
    for r in range(nlev):
        bl_r = np.flatnonzero(rank == r)
        bl = blen[bl_r]
        mx = int(bl.max()) if bl_r.size else 0
        ops = []
        for j in range(mx - 2, -1, -1):
            sel = bl > j + 1
            if sel.any():
                ops.append(fdense[bl_r[sel]] + j)
        casc[r] = ops
    sf, sl_, pid, P = d["sf"], d["sl"], d["pid"], d["P"]
    seg_sl = (
        sl_of_rank[rank[d["stx"]]] if sf.size else np.empty(0, np.int64)
    )
    bblk = d["byte_blk"]
    bsb = d["bstart_byte"]
    add_src: list = []
    add_tgt: list = []
    inner_rounds = 0
    for s in range(nS - 1, -1, -1):
        r_hi = min(nlev, (s + 1) * sl_ranks) - 1
        r_lo = s * sl_ranks
        for r in range(r_hi, r_lo - 1, -1):
            for u, v in cross.get(r, ()):
                R[u] |= R[v]
            for rows in casc[r]:
                R[rows] |= R[rows + 1]
        gi = np.flatnonzero(seg_sl == s)
        if not gi.size:
            continue
        sfr0, slr0, pidr0 = sf[gi], sl_[gi], pid[gi]
        # The same last step can close segments at several levels;
        # partition into parts with unique lasts so the fancy-indexed
        # |= below is conflict-free.
        order = np.argsort(slr0, kind="stable")
        su = slr0[order]
        gs2 = np.flatnonzero(np.concatenate(([True], su[1:] != su[:-1])))
        pzn = np.arange(su.size) - np.repeat(
            gs2, np.diff(np.concatenate((gs2, [su.size])))
        )
        parts = [order[pzn == p] for p in range(int(pzn.max()) + 1)]
        in_sl = (sl_of_blk[blk[d["es"]]] == s) & (
            sl_of_blk[blk[d["ed"]]] == s
        )
        es_sl, ed_sl = d["es"][in_sl], d["ed"][in_sl]
        ns_src: list = []  # rule-(b) edges landing inside this super-level:
        ns_tgt: list = []  # their targets can still grow, so refresh sweeps
        while True:  # must re-pull through them (unlike deeper targets).
            inner_rounds += 1
            round_srcs = []
            for part in parts:
                sfr, slr = sfr0[part], slr0[part]
                M = Rb[sfr] & P[pidr0[part]]
                M &= ~Rb[slr]
                while True:
                    act = M.any(axis=1)
                    if not act.any():
                        break
                    if not act.all():
                        ai = np.flatnonzero(act)
                        M = M[ai]
                        sfr = sfr[ai]
                        slr = slr[ai]
                    # Leader = lowest missing bit per segment; one edge
                    # to it covers everything the leader reaches.
                    lb = (M != 0).argmax(axis=1)
                    lbyte = M[np.arange(M.shape[0]), lb]
                    blkb = bblk[lb]
                    tgt = (
                        fdense[blkb]
                        + (lb - bsb[blkb]) * 8
                        + lowbit[lbyte]
                    )
                    M &= ~Rb[tgt]
                    R[slr] |= R[tgt]
                    add_src.append(slr.copy())
                    add_tgt.append(tgt)
                    in_s = sl_of_blk[blk[tgt]] == s
                    if in_s.any():
                        ns_src.append(slr[in_s])
                        ns_tgt.append(tgt[in_s])
                    round_srcs.append(slr)
            if not round_srcs:
                break
            # Refresh: re-sweep the super-level blocks that reach a
            # modified last — their rows are now stale.
            mods = np.concatenate(round_srcs)
            lastmask = np.zeros(d["BY"], dtype=np.uint8)
            pbs = pb[mods]
            np.bitwise_or.at(
                lastmask,
                pbs >> 3,
                np.uint8(1) << (pbs & 7).astype(np.uint8),
            )
            sl_blocks = np.flatnonzero(sl_of_blk == s)
            hit = (Rb[fdense[sl_blocks]] & lastmask[None, :]).any(axis=1)
            chg = np.zeros(T, dtype=bool)
            chg[sl_blocks[hit]] = True
            eu = []
            ev = []
            if es_sl.size:
                sel = chg[blk[es_sl]] | chg[blk[ed_sl]]
                if sel.any():
                    eu.append(es_sl[sel])
                    ev.append(ed_sl[sel])
            if ns_src:
                bsrc = np.concatenate(ns_src)
                btgt = np.concatenate(ns_tgt)
                bsel = chg[blk[btgt]]
                if bsel.any():
                    eu.append(bsrc[bsel])
                    ev.append(btgt[bsel])
            mini = {}
            if eu:
                eua = np.concatenate(eu)
                eva = np.concatenate(ev)
                mini = _prep_slices(eua, eva, rank[blk[eua]])
            for r in range(r_hi, r_lo - 1, -1):
                for u, v in mini.get(r, ()):
                    R[u] |= R[v]
                for rows in casc[r]:
                    R[rows] |= R[rows + 1]
    if add_src:
        asrc = np.concatenate(add_src)
        atgt = np.concatenate(add_tgt)
        pairk = np.unique(asrc * n + atgt)
        asrc, atgt = pairk // n, pairk % n
    else:
        asrc = atgt = np.empty(0, np.int64)
    return R, Rb, asrc, atgt, inner_rounds


# ---------------------------------------------------------------------------
# writeback
# ---------------------------------------------------------------------------


class _LazyBits:
    """Deferred writeback of kernel results into a
    :class:`~repro.core.reach.ReachabilityIndex`.

    One-shot checks never read the materialized bitsets (the verdict is
    already decided), so the packed rows stay in numpy until a caller
    actually touches the index — then :meth:`materialize` converts each
    padded row to a dense Python int and folds the rule-(b) edges into
    the adjacency.
    """

    __slots__ = ("_rows", "_pad", "_src", "_tgt")

    def __init__(self, rows, pad_ids, src, tgt) -> None:
        self._rows = rows
        self._pad = pad_ids
        self._src = src
        self._tgt = tgt

    def materialize(self, index) -> None:
        import numpy as np

        n = self._rows.shape[0]
        bits = np.unpackbits(self._rows, axis=1, bitorder="little")[
            :, self._pad
        ]
        packed = np.packbits(bits, axis=1, bitorder="little")
        blob = packed.tobytes()
        stride = packed.shape[1]
        reach = index._reach
        for i in range(n):
            reach[i] = int.from_bytes(
                blob[i * stride : (i + 1) * stride], "little"
            )
        adj = index._adj
        radj = index._radj
        for u, v in zip(self._src.tolist(), self._tgt.tolist()):
            adj[u] |= 1 << v
            radj[v] |= 1 << u


def bootstrap_engine(engine, eager: bool = True) -> bool | None:
    """Attempt the vectorized bootstrap of a batch-loaded engine.

    On success the engine is exact and saturated — indistinguishable
    from a Python :meth:`~repro.core.coherence.ClosureEngine.bootstrap`
    except for generating-edge bookkeeping — and ``True`` is returned.
    With ``eager=False`` the index writeback is deferred until first
    touched (see :class:`_LazyBits`); pass ``eager=True`` whenever the
    engine stays live for online updates.

    Returns ``None`` when the kernel declines (numpy missing, engine
    not batch-loaded, cyclic closure): the caller must fall through to
    the Python path.
    """
    if not kernel_available():
        return None
    import numpy as np

    d = _arrays_from_engine(engine)
    if d is None:
        return None
    rank, nlev = _kahn_blocks(d)
    if rank is None:
        return None
    R, Rb, asrc, atgt, rounds = _saturate(d, rank, nlev)
    del R
    index = engine.index
    n = d["n"]
    if asrc.size and d["seed_keys"].size:
        dup = np.isin(asrc * n + atgt, d["seed_keys"])
        if dup.any():
            keep = ~dup
            asrc, atgt = asrc[keep], atgt[keep]
    index.edges += int(asrc.size)
    engine.edges_added += int(asrc.size)
    engine.iterations += int(rounds)
    engine._pending.clear()
    for seg in engine._segs:
        seg.dirty = False
    index._topo = None
    index.last_changed = 0
    payload = _LazyBits(Rb, d["pad_ids"], asrc, atgt)
    if eager:
        payload.materialize(index)
    else:
        index._lazy = payload
    return True
