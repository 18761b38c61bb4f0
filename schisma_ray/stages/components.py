"""Connected components over candidate-duplicate pairs -> dedup groups.

Near-dup pairs (MinHash/SimHash/embedding) form a graph; the dedup
decision needs its connected components (a ~ b ~ c collapses to one
keeper). Two paths:

* **driver union-find** (``components_from_pairs``, and
  ``near_dedup_survivors`` whenever ``_bucket.fold_small`` folds the
  pairs): the verified pair set is orders of magnitude smaller than the
  corpus by construction, so a path-compressed union-find on the driver
  is the right tool.
* **distributed min-label propagation with pointer doubling**
  (``components_distributed``) for giant edge sets: labels start as the
  node id; each round co-locates every node's label row with its
  incident edges by HASH BUCKET (one grouped shuffle), sends
  ``min(label)`` to each neighbor, and folds messages with a second
  bucketed shuffle. The current label pointers (v -> label[v]) are fed
  back in as extra edges each round — they connect nodes already in the
  same component, so components are preserved, and reachability roughly
  squares per round (hash-to-min-style pointer doubling), giving
  O(log V) rounds even for path graphs instead of O(diameter). All
  per-bucket work is vectorized pandas/numpy — one Python call per
  bucket, never per node. Each round is two shuffles over O(V + E)
  narrow int64 rows.

Node ids must be non-negative int64 (doc ids); -1 is used as the
"no value" sentinel inside the message schema.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import _bucket
from ._bucket import bucket_apply, fold_small, semi_join

#: pairs ``near_dedup_survivors`` folds into the driver union-find. On 1M
#: random int64 edges in a 4-CPU session the union-find took 3.7 s (driver
#: peak RSS +330 MB) and ``components_distributed`` 95 s.
_UNION_FIND_PAIRS = 10_000_000


def _union_find(edges: list[tuple]) -> dict:
    parent: dict = {}
    nodes: set = set()

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller id as the root -> stable keeper choice
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in nodes}


def components_distributed(pairs, *, max_rounds: int = 64):
    """(node, component) Dataset via bucketed min-label propagation.

    ``pairs``: pa.Table or Dataset of (a, b) int64 edges. Component id =
    the minimum node id in the component. The iteration state (the
    labels Dataset, V narrow rows) is materialized once per round so the
    lineage stays O(1) deep; edge rows live in the object store and are
    re-scanned, never driver-resident.
    """
    import pandas as pd
    import ray.data as rd

    pairs_ds = rd.from_arrow(pairs) if isinstance(pairs, pa.Table) else pairs

    def explode(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        other = np.concatenate([b, a])
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "other": pa.array(other, pa.int64()),
                "label": pa.array(np.full(len(node), -1, np.int64), pa.int64()),
                "flag": pa.array(np.zeros(len(node), np.int8), pa.int8()),
            }
        )

    # undirected edge rows (2E), bucketed by source node; materialized
    # once and re-scanned every round
    und = pairs_ds.map_batches(explode, batch_format="pyarrow").materialize()
    if und.count() == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "component": pa.array([], pa.int64())}))

    def init_labels(t: pa.Table) -> pa.Table:
        # per-batch distinct; cross-batch duplicates are fine (phase 1
        # folds multiple label rows per node with min)
        node = np.unique(t["node"].combine_chunks().to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "other": pa.array(np.full(len(node), -1, np.int64), pa.int64()),
                "label": pa.array(node, pa.int64()),
                "flag": pa.array(np.ones(len(node), np.int8), pa.int8()),
            }
        )

    labels = und.map_batches(init_labels, batch_format="pyarrow").materialize()

    def send_min(t: pa.Table) -> pd.DataFrame:
        """One bucket: label rows (flag=1) + edge rows (flag=0) for every
        node hashing here. Emits (target, label) messages: each node's
        current min label to all neighbors, plus to itself (flagged, so
        the fold can detect change)."""
        group = t.to_pandas()
        lab = group[group["flag"] == 1]
        cur = lab.groupby("node")["label"].min()
        edges = group[group["flag"] == 0]
        tgt = np.concatenate([edges["other"].to_numpy(), cur.index.to_numpy()])
        msg = np.concatenate(
            [cur.reindex(edges["node"]).to_numpy(), cur.to_numpy()]
        )
        flag = np.concatenate(
            [np.zeros(len(edges), np.int8), np.ones(len(cur), np.int8)]
        )
        return pd.DataFrame({"node": tgt, "label": msg, "flag": flag})

    def fold_min(t: pa.Table) -> pd.DataFrame:
        """One bucket of messages: new label = min over messages per
        node; changed iff it beats the node's own previous label."""
        group = t.to_pandas()
        g = group.groupby("node")
        new = g["label"].min()
        old = group[group["flag"] == 1].groupby("node")["label"].min()
        old = old.reindex(new.index).fillna(np.iinfo(np.int64).max)
        node = new.index.to_numpy()
        return pd.DataFrame(
            {
                "node": node,
                "other": np.full(len(node), -1),
                "label": new.to_numpy(),
                "flag": np.ones(len(node)),
                "changed": new.to_numpy() < old.to_numpy(),
            }
        )

    def pointer_edges(t: pa.Table) -> pa.Table:
        """Label pointers v -> label[v] as extra (bidirectional) edges:
        safe (both endpoints share a component) and they double the
        propagation reach each round."""
        node = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
        lbl = t["label"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = node != lbl
        node, lbl = node[keep], lbl[keep]
        src = np.concatenate([node, lbl]).astype(np.int64)
        dst = np.concatenate([lbl, node]).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(src, pa.int64()),
                "other": pa.array(dst, pa.int64()),
                "label": pa.array(np.full(len(src), -1, np.int64), pa.int64()),
                "flag": pa.array(np.zeros(len(src), np.int8), pa.int8()),
            }
        )

    # Ray's sort-shuffle emits as many blocks as it receives, and union
    # concatenates block lists — without a bound the labels block count
    # would double every round (exponential per-block overhead, measured).
    # Repartitioning the (V-row, narrow) labels state each round keeps
    # every round's plan the same size.
    label_blocks = max(1, min(_bucket.NUM_BUCKETS, und.num_blocks()))
    converged = False
    for _ in range(max_rounds):
        ptr = labels.map_batches(pointer_edges, batch_format="pyarrow")
        merged = labels.union(und).union(ptr)
        msgs = bucket_apply(merged, "node", send_min,
                            schema={"node": pa.int64(), "label": pa.int64(),
                                    "flag": pa.int8()})
        folded = (
            bucket_apply(msgs, "node", fold_min,
                         schema={"node": pa.int64(), "other": pa.int64(),
                                 "label": pa.int64(), "flag": pa.int8(),
                                 "changed": pa.int8()})
            .repartition(label_blocks)
            .materialize()
        )
        n_changed = folded.sum("changed")
        labels = folded.drop_columns(["changed"]).materialize()
        if not n_changed:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"components_distributed did not converge in {max_rounds} rounds"
        )

    return labels.map_batches(
        lambda t: pa.table({"node": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def components_from_pairs(pairs: pa.Table) -> pa.Table:
    """(node, component) for every node appearing in ``pairs``, by a
    driver union-find.

    Component id = the minimum node id in the component (the keeper).
    Edge sets too large to fold onto the driver run through
    ``components_distributed`` instead (``near_dedup_survivors`` picks
    by ``_bucket.fold_small``)."""
    if pairs.num_rows == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "component": pa.array([], pa.int64())})
    edges = list(zip(pairs["a"].to_pylist(), pairs["b"].to_pylist()))
    labels = _union_find(edges)
    nodes = sorted(labels)
    return pa.table(
        {
            "node": pa.array(nodes),
            "component": pa.array([labels[n] for n in nodes]),
        }
    )


def near_dedup_survivors(ds, pairs, id_col: str):
    """Dataset of surviving ids: every id minus non-keeper dup-group members.

    ``pairs`` is a pair Dataset with columns ``a`` and ``b`` (the output
    of ``minhash_dedup_pairs`` etc.; other columns are ignored). The
    components come from one size switch (``_bucket.fold_small``): up to
    ``_UNION_FIND_PAIRS`` pairs fold into a driver union-find; beyond it
    they run distributed (``components_distributed``) and the non-keeper
    labels stay a Dataset. Either way the ids of ``ds`` are anti-joined
    against the non-keepers (``_bucket.semi_join``), broadcast when they
    fold and per hash bucket when they do not. A null id survives.
    """
    import pyarrow.compute as pc

    mat, rows = fold_small(pairs, _UNION_FIND_PAIRS)
    if rows is not None:
        comp = components_from_pairs(rows)
        drop = comp.filter(pc.not_equal(comp["node"], comp["component"]))
    else:
        drop = components_distributed(mat).map_batches(
            lambda t: t.filter(pc.not_equal(t["node"], t["component"])),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return semi_join(ds, id_col, drop, anti=True, columns=[id_col])
