"""Training-corpus preparation operators.

Beyond the reference's validators (reference kettek/schisma has no
corpus tooling; these extend SURVEY.md §2.4's engine obligations with
the stages a large-scale LLM-data pipeline needs):

* ``decontaminate`` — benchmark decontamination: flag corpus documents
  sharing word n-grams with a held-out evaluation set. The benchmark
  side is tiny by nature (eval suites are MBs; the corpus is TBs), so
  its n-gram set is built once and broadcast via a single ``ray.put``;
  the corpus streams through ``map_batches`` and never shuffles.
* ``sample_by_rate`` — deterministic hash-based stratified sampling /
  corpus mixture weighting: keep a row iff
  ``md5(id) % 10000 < rate[key] * 10000``. Pure per-row decision — no
  shuffle, no global state, reproducible across runs and cluster sizes
  (md5, not Python ``hash``, so results are process-invariant).
* ``chunk_text`` — fixed-size character windows with stride (LLM
  context-window preparation). Vectorized: one Arrow ``slice`` kernel
  call per *chunk position*, not per row — the loop is over the max
  chunk count in the batch (tiny), never over documents.

Every operator is SQL-mirrorable and carries a DuckDB oracle in the
catalog (decontaminate: list-slice n-grams + join; sample: md5 CASE;
chunk: generate_series + substring).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ._bucket import bucket_apply, bucket_combine, fold_combine


def _word_ngrams(text: str, n: int) -> set:
    """Distinct word n-grams under the single-space split shared by the
    other text ops (DuckDB ``string_split(text, ' ')`` parity)."""
    w = text.split(" ")
    return {" ".join(w[i : i + n]) for i in range(max(len(w) - n + 1, 0))}


class _ContaminationCounter:
    """Per-batch counter of benchmark n-gram hits. The benchmark gram
    set arrives as an object-store ref (one ``ray.put`` on the driver),
    fetched in the task that calls the instance."""

    def __init__(self, bench_ref, n: int, col: str, id_col: str):
        self.bench_ref = bench_ref
        self.n = n
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        bench = ray.get(self.bench_ref)
        ids, hits = [], []
        texts = batch[self.col].to_pylist()
        for rid, text in zip(batch[self.id_col].to_pylist(), texts):
            if not text:
                continue
            n_hits = len(_word_ngrams(text, self.n) & bench)
            if n_hits:
                ids.append(rid)
                hits.append(n_hits)
        id_type = batch[self.id_col].type
        return pa.table(
            {
                self.id_col: pa.array(ids, id_type),
                "n_hits": pa.array(hits, pa.int64()),
            }
        )


def decontaminate(corpus, bench, *, n: int = 4, col: str = "text",
                  id_col: str = "doc_id"):
    """(id, n_hits) for every corpus document sharing >= 1 word n-gram
    with the benchmark set; ``n_hits`` counts DISTINCT shared grams.

    ``bench`` is a Dataset holding the held-out texts. Its distinct
    n-gram set is folded on the driver — this is the deliberate design,
    not a shortcut: eval benchmarks are small and static while the
    corpus is the 100-TB side, so broadcast-once beats any shuffle by
    orders of magnitude. The corpus side is one streaming
    ``map_batches`` pass (no shuffle, no materialization).
    """
    grams: set = set()
    for b in bench.select_columns([col]).iter_batches(batch_format="pyarrow"):
        for text in b[col].to_pylist():
            if text:
                grams |= _word_ngrams(text, n)
    bench_ref = ray.put(frozenset(grams))
    return corpus.map_batches(
        _ContaminationCounter(bench_ref, n, col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _md5_bucket(values, mod: int = 10000) -> np.ndarray:
    """int(md5(str(v))[:8], 16) % mod per value — process-invariant,
    DuckDB-mirrorable (``CAST(concat('0x', substr(md5(v),1,8)) AS
    BIGINT) % mod``). Batched through the shared vectorized digest."""
    from ._digest import md5_bucket

    return md5_bucket(values, mod)


def sample_by_rate(ds, rates: dict, *, key_col: str = "lang",
                   id_col: str = "doc_id", default_rate: float = 0.0):
    """Deterministic stratified sample / mixture weighting: keep a row
    iff ``md5(id) % 10000 < rates.get(key, default_rate) * 10000``.

    This is the corpus-mixture primitive (weight each source/language
    into a training mix) and the downsampling primitive in one. Purely
    per-row: scales linearly, no shuffle, and the same row set is kept
    at any parallelism level. Rows pass through unprojected.
    """
    thresholds = {k: int(round(r * 10000)) for k, r in rates.items()}
    default_thr = int(round(default_rate * 10000))

    def fn(batch: pa.Table) -> pa.Table:
        buckets = _md5_bucket(batch[id_col].to_pylist())
        keys = batch[key_col].to_pylist()
        thr = np.fromiter(
            (thresholds.get(k, default_thr) for k in keys),
            dtype=np.int64,
            count=len(keys),
        )
        return batch.filter(pa.array(buckets < thr))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def chunk_text(ds, *, size: int = 80, stride: int = 60, col: str = "text",
               id_col: str = "doc_id"):
    """Explode documents into fixed-size character windows:
    (id, chunk_idx, chunk_text) with chunk k covering codepoints
    [k*stride, k*stride + size). Every document yields >= 1 chunk
    (empty text gives one empty chunk, mirroring the oracle's
    ``range(0, greatest(length, 1), stride)``).

    Vectorized per chunk position: chunk k is one
    ``utf8_slice_codeunits`` over the rows still long enough — the
    Python loop runs max-chunks-in-batch times, not once per row.
    Output grows by ~size/stride x; downstream stages see normal-sized
    blocks because Ray re-blocks between operators.
    """
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[col].combine_chunks()
        ids = batch[id_col].combine_chunks()
        empty = pa.table(
            {
                id_col: pa.array([], batch[id_col].type),
                "chunk_idx": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            }
        )
        lengths = pc.fill_null(pc.utf8_length(text), 0).to_numpy(zero_copy_only=False)
        parts = [empty]
        k = 0
        while True:
            start = k * stride
            mask = lengths > start if k else np.ones(len(lengths), dtype=bool)
            if not mask.any():
                break
            m = pa.array(mask)
            parts.append(
                pa.table(
                    {
                        id_col: ids.filter(m),
                        "chunk_idx": pa.array(
                            np.full(int(mask.sum()), k, dtype=np.int64)
                        ),
                        "chunk_text": pc.utf8_slice_codeunits(
                            text.filter(m), start, start + size
                        ),
                    }
                )
            )
            k += 1
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def cap_per_key(ds, *, key_col: str = "source", id_col: str = "doc_id",
                n: int = 10, carry_cols: tuple = ()):
    """Deterministic per-domain cap: keep at most ``n`` rows per key —
    the standard training-mix guard against one domain/source dominating
    the corpus. Selection order is ``md5(id)`` (then id), so the kept
    set is a stable pseudo-random sample, invariant to parallelism,
    block order and PYTHONHASHSEED, and SQL-mirrorable
    (``row_number() OVER (PARTITION BY key ORDER BY md5(id), id)``).

    Combiner-first: each batch keeps its local n smallest (key, md5)
    rows, so the shuffle carries <= n * keys * batches tiny rows — raw
    rows never move — and each hash bucket of the key keeps the n
    smallest of every key it holds (a null key is one key). Output:
    (key, id) plus any ``carry_cols`` (columns ferried through the cap
    unchanged, e.g. the text for a downstream chunker — only surviving
    rows ride the shuffle).
    """
    import pandas as pd

    carry = list(carry_cols)

    def partial(batch: pa.Table) -> pa.Table:
        from ._digest import md5_hex

        ids = batch[id_col]
        cols = {
            key_col: batch[key_col],
            id_col: ids,
            "h": pa.array(md5_hex(ids), pa.string()),
        }
        for c in carry:
            cols[c] = batch[c]
        df = pa.table(cols).to_pandas().sort_values([key_col, "h", id_col])
        # dropna=False: a null key is its own partition (SQL PARTITION BY
        # semantics) — pandas' default silently drops those rows
        return pa.Table.from_pandas(
            df.groupby(key_col, sort=False, dropna=False).head(n),
            preserve_index=False,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def merge(t: pa.Table) -> "pd.DataFrame":
        df = t.to_pandas().sort_values(["h", id_col])
        kept = df.groupby(key_col, sort=False, dropna=False).head(n)
        return kept[[key_col, id_col] + carry]

    return bucket_apply(partials, key_col, merge, schema=None)


def split_assign(ds, fractions: dict, *, id_col: str = "doc_id",
                 split_col: str = "split"):
    """Deterministic train/val/test assignment: every row gets a split
    label by md5 bucket (cumulative fraction thresholds in dict order).
    The canonical ML split — process-, parallelism- and restart-
    invariant, and disjoint/exhaustive by construction (unlike
    per-split sampling, which can double-assign). Fractions must sum
    to 1 (+-1e-9). Rows pass through with the label appended.
    """
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total}")
    names = list(fractions)
    bounds = []
    acc = 0.0
    for name in names:
        acc += fractions[name]
        bounds.append(int(round(acc * 10000)))
    bounds[-1] = 10000  # close the last bucket exactly

    def fn(batch: pa.Table) -> pa.Table:
        b = _md5_bucket(batch[id_col].to_pylist())
        idx = np.searchsorted(np.asarray(bounds), b, side="right")
        labels = pa.array([names[i] for i in idx], pa.string())
        return batch.append_column(split_col, labels)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def pack_sequences(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   seq_len: int = 2048):
    """Concat-and-split sequence-packing assignment (the GPT-style
    training layout): documents are conceptually concatenated in
    ``id_col`` order and split every ``seq_len`` tokens; each doc gets
    its global ``start_offset``, the ``pack_id`` it starts in, its
    ``offset_in_pack`` and how many packs it spans. Null-text rows are
    excluded (they contribute no tokens).

    Distributed shape: token counts per batch (vectorized split), sort
    by id, then ``zip_with_cumsum`` — one tiny remote sum per block +
    a driver prefix-sum over O(num_blocks) ints; the assignment itself
    is per-row arithmetic. Token definition = single-space fields,
    matching SQL ``len(string_split(text, ' '))``.
    """
    import pyarrow.compute as pc

    from .rank import zip_with_cumsum

    def tokens(batch: pa.Table) -> pa.Table:
        text = batch[text_col].combine_chunks()
        t = pa.table(
            {
                id_col: batch[id_col],
                "tokens": pc.cast(
                    pc.list_value_length(pc.split_pattern(text, " ")), pa.int64()
                ),
            }
        )
        return t.filter(pc.is_valid(text))

    counted = ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True)
    offset = zip_with_cumsum(counted.sort(id_col), "tokens",
                             offset_col="start_offset")

    def assign(t: pa.Table) -> pa.Table:
        start = t["start_offset"].combine_chunks().to_numpy(zero_copy_only=False)
        n = t["tokens"].combine_chunks().to_numpy(zero_copy_only=False)
        pack = start // seq_len
        return pa.table(
            {
                id_col: t[id_col],
                "tokens": t["tokens"],
                "start_offset": t["start_offset"],
                "pack_id": pa.array(pack, pa.int64()),
                "offset_in_pack": pa.array(start % seq_len, pa.int64()),
                "n_packs": pa.array(
                    (start + n - 1) // seq_len - pack + 1, pa.int64()
                ),
            }
        )

    return offset.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def weighted_sample(ds, *, weight_col: str, id_col: str = "doc_id",
                    n: int = 100):
    """Deterministic weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis A-ES): each row draws u from its md5-uniform
    (process/parallelism-invariant, like sample_by_rate) and the n rows
    with the largest u^(1/w) — equivalently largest ln(u)/w — win.
    Inclusion probability is proportional to weight, exactly the
    quality-weighted / temperature-sampling primitive a corpus mix
    needs, with zero randomness state to checkpoint.

    Shape: per-batch vectorized keys + local top-n, driver merge of
    n x blocks candidate rows, never the corpus. Rows with weight <= 0
    or null are excluded. Output: (id, key) with key rounded to 6dp
    (SQL-mirrorable: ln of the md5 uniform over the weight).
    """
    import pyarrow.compute as pc

    def local_top(batch: pa.Table) -> pa.Table:
        from ._digest import md5_u32

        ids = batch[id_col].to_pylist()
        w = batch[weight_col].combine_chunks().to_numpy(zero_copy_only=False)
        w = np.asarray(w, np.float64)
        u32 = md5_u32(batch[id_col])
        u = (u32 + 0.5) / 4294967296.0
        ok = np.isfinite(w) & (w > 0)
        key = np.where(ok, np.log(u) / np.maximum(w, 1e-300), -np.inf)
        order = np.argsort(-key, kind="stable")[: min(n, len(ids))]
        order = order[np.isfinite(key[order])]
        return pa.table(
            {
                id_col: pa.array([ids[i] for i in order]),
                # UNROUNDED key end-to-end: the selection (local cut AND
                # driver merge) must rank exactly like the SQL oracle's
                # ORDER BY — rounding before ranking would both diverge
                # from the oracle near the boundary and make the result
                # depend on batch boundaries
                "key": pa.array(key[order], pa.float64()),
            }
        )

    locals_ds = ds.map_batches(local_top, batch_format="pyarrow",
                               zero_copy_batch=True)
    from ._fold import fold_table

    folded = fold_table(locals_ds)
    if folded is None:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "key": pa.array([], pa.float64())})
    merged = folded.to_pandas()
    merged = merged.sort_values(id_col, kind="stable").sort_values(
        "key", ascending=False, kind="stable"
    ).head(n)
    return pa.table({id_col: pa.array(merged[id_col].tolist()),
                     "key": pa.array(np.round(
                         merged["key"].to_numpy(np.float64), 6
                     ), pa.float64())})


def decontam_attribution(corpus, bench, *, n: int = 4, col: str = "text",
                         id_col: str = "doc_id"):
    """(doc_id, bench_id) distinct pairs: WHICH held-out document each
    contaminated corpus document shares a word n-gram with — the audit
    companion to ``decontaminate`` (a filter tells you *that* a doc is
    contaminated; compliance review asks *by what*).

    Same broadcast shape: the bench side folds to a gram -> bench-ids
    inverted index (benchmarks are MBs; the corpus is the 100-TB side)
    and ships once; the corpus streams through one ``map_batches``
    pass fused into its read.
    """
    index: dict = {}
    for b in bench.select_columns([col, id_col]).iter_batches(
        batch_format="pyarrow"
    ):
        for rid, text in zip(b[id_col].to_pylist(), b[col].to_pylist()):
            if not text:
                continue
            for g in _word_ngrams(text, n):
                index.setdefault(g, set()).add(rid)
    index_ref = ray.put({g: tuple(sorted(v)) for g, v in index.items()})

    def attribute(batch: pa.Table) -> pa.Table:
        index = ray.get(index_ref)
        ids_out, bench_out = [], []
        for rid, text in zip(batch[id_col].to_pylist(),
                             batch[col].to_pylist()):
            if not text:
                continue
            hits: set = set()
            for g in _word_ngrams(text, n) & index.keys():
                hits.update(index[g])
            for bid in sorted(hits):
                ids_out.append(rid)
                bench_out.append(bid)
        id_type = batch[id_col].type
        return pa.table(
            {
                id_col: pa.array(ids_out, id_type),
                "bench_id": pa.array(bench_out, id_type),
            }
        )

    return corpus.map_batches(
        attribute, batch_format="pyarrow", zero_copy_batch=True
    )


def concat_chunks(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  chunk_tokens: int = 256, eos: str = "<|eos|>"):
    """Materialized concat-and-chunk LM shards: documents concatenated
    in ``id_col`` order with an ``eos`` token after each, the global
    token stream split every ``chunk_tokens`` tokens, each chunk's TEXT
    reassembled (``pack_sequences`` computes the assignment; this
    produces the shards themselves). Tokens = whitespace fields.

    Distributed shape: sort by id, ``zip_with_cumsum`` for global token
    offsets (O(num_blocks) driver ints), then each doc emits one PIECE
    row per chunk it intersects (almost always 1-2) and ONE
    ``bucket_apply`` keyed by chunk reassembles pieces — shuffle carries
    each token exactly once. The final chunk may be short.
    """
    import pyarrow.compute as pc

    from .rank import zip_with_cumsum

    def tokens(batch: pa.Table) -> pa.Table:
        text = batch[text_col].combine_chunks()
        n = pc.add(
            pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64()), 1
        )  # +1 for the eos token
        return pa.table(
            {id_col: batch[id_col], text_col: text, "n_tok": n}
        ).filter(pc.is_valid(text))

    base = ds.map_batches(tokens, batch_format="pyarrow",
                          zero_copy_batch=True).sort(id_col)
    off = zip_with_cumsum(base, "n_tok", offset_col="g_start")

    def pieces(batch: pa.Table) -> pa.Table:
        # split with the SAME RE2 engine that counted (\S+ and \s+ are
        # complements under one regex dialect); Python str.split()
        # disagrees with RE2 on \x0b / \xa0 and would misalign every
        # chunk after such a doc
        word_lists = pc.split_pattern_regex(
            batch[text_col].combine_chunks(), r"\s+"
        ).to_pylist()
        starts = batch["g_start"].to_numpy(zero_copy_only=False)
        ntoks = batch["n_tok"].to_numpy(zero_copy_only=False)
        c_ids, g_offs, p_texts, p_ns = [], [], [], []
        for wl, s, n in zip(word_lists, starts, ntoks):
            words = [w for w in wl if w]
            words.append(eos)
            e = s + n
            for k in range(int(s) // chunk_tokens, int(e - 1) // chunk_tokens + 1):
                a = max(k * chunk_tokens, int(s))
                b = min((k + 1) * chunk_tokens, int(e))
                c_ids.append(k)
                g_offs.append(a)
                p_texts.append(" ".join(words[a - int(s):b - int(s)]))
                p_ns.append(b - a)
        return pa.table(
            {
                "chunk_id": pa.array(c_ids, pa.int64()),
                "g_off": pa.array(g_offs, pa.int64()),
                "piece": pa.array(p_texts, pa.string()),
                "n": pa.array(p_ns, pa.int64()),
            }
        )

    pcs = off.map_batches(pieces, batch_format="pyarrow", zero_copy_batch=True)

    def assemble(t: pa.Table):
        g = t.to_pandas().sort_values(["chunk_id", "g_off"], kind="stable")
        return g.groupby("chunk_id", sort=True).agg(
            text=("piece", " ".join), n_tokens=("n", "sum")
        ).reset_index()

    return bucket_apply(pcs, "chunk_id", assemble,
                        schema={"chunk_id": pa.int64(), "text": pa.string(),
                                "n_tokens": pa.int64()})


def token_budget_sample(ds, *, budget: int, group_col: str = "lang",
                        text_col: str = "text", id_col: str = "doc_id"):
    """Trim every group to a TOKEN budget in deterministic md5 order —
    the "N tokens per language/domain" mixing step of corpus assembly
    (complement of ``cap_per_key``, which bounds DOCUMENT counts): docs
    are taken in (md5(id), id) order until the group's running token
    total reaches ``budget``; the first doc to cross it is kept (greedy
    prefix, budget is a start-threshold), the rest drop. Tokens are
    single-space splits (the ``token_count_by_lang`` convention; null
    text counts as 1 like SQL ``string_split('', ' ')``). Null-group
    rows carry no budget and are excluded.

    Returns (id, group, n_toks, toks_before) where ``toks_before`` is
    the group-relative exclusive running sum — the audit trail for "why
    was this doc kept".

    Scale shape: ONE narrow sort by (group, md5, id) + the
    ``zip_with_cumsum`` block-offset plan (O(blocks) driver ints) +
    an O(groups) token-total broadcast for group start offsets — the
    ``grouped_ntile`` trick applied to value prefix sums. Text never
    rides the shuffle; no group ever lands in one task."""
    import ray

    from ._digest import md5_hex
    from .rank import group_starts, zip_with_cumsum

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[group_col]))
        text = pc.fill_null(t[text_col].combine_chunks(), "")
        n = pc.cast(
            pc.list_value_length(pc.split_pattern(text, " ")), pa.int64()
        )
        return pa.table({
            id_col: t[id_col],
            group_col: t[group_col],
            "n_toks": n,
            "h": pa.array(md5_hex(t[id_col]), pa.string()),
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    starts, sums = group_starts(narrow, group_col, "n_toks")
    if not sums:
        return narrow.map_batches(
            lambda t: pa.table({
                id_col: t[id_col], group_col: t[group_col],
                "n_toks": t["n_toks"],
                "toks_before": pa.array([], pa.int64()),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        )
    state_ref = ray.put(starts)

    srt = narrow.sort([group_col, "h", id_col])
    with_off = zip_with_cumsum(srt, "n_toks", offset_col="off")

    def pick(t: pa.Table) -> pa.Table:
        import numpy as np

        starts_ = ray.get(state_ref)
        groups = t[group_col].to_pylist()
        gstart = np.fromiter((starts_[g] for g in groups), np.int64,
                             count=len(groups))
        rel = t["off"].to_numpy(zero_copy_only=False) - gstart
        out = pa.table({
            id_col: t[id_col], group_col: t[group_col],
            "n_toks": t["n_toks"],
            "toks_before": pa.array(rel, pa.int64()),
        })
        return out.filter(pa.array(rel < budget))

    return with_off.map_batches(pick, batch_format="pyarrow",
                                zero_copy_batch=True)


def repeat_upsample(ds, weights: dict, *, key_col: str = "lang",
                    id_col: str = "doc_id", default_weight: float = 1.0):
    """Deterministic fractional UPSAMPLING — the epoch-repeat-factor
    primitive (oversample rare domains into a training mix, the
    complement of ``sample_by_rate``'s downsampling): a weight of 2.3
    emits every row twice plus a third copy for the ~30% of ids whose
    md5 uniform falls below the fraction (same ``md5(id) % 10000``
    convention as ``sample_by_rate``, so a rate r < 1 reproduces it
    exactly). Output rows carry ``copy_idx`` (0-based) so downstream
    shuffling/packing can tell copies apart.

    Purely per-row (np.repeat on the batch): no shuffle, linear scale,
    identical output at any parallelism."""
    floors = {k: int(np.floor(w)) for k, w in weights.items()}
    fracs = {k: int(round((w - np.floor(w)) * 10000))
             for k, w in weights.items()}
    dfloor = int(np.floor(default_weight))
    dfrac = int(round((default_weight - np.floor(default_weight)) * 10000))

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        buckets = _md5_bucket(batch[id_col].to_pylist())
        base = np.fromiter((floors.get(k, dfloor) for k in keys),
                           np.int64, count=len(keys))
        frac = np.fromiter((fracs.get(k, dfrac) for k in keys),
                           np.int64, count=len(keys))
        reps = base + (buckets < frac)
        idx = np.repeat(np.arange(len(keys), dtype=np.int64), reps)
        out = batch.take(pa.array(idx))
        ends = np.cumsum(reps)
        copy_idx = np.arange(int(ends[-1]) if len(ends) else 0,
                             dtype=np.int64) - np.repeat(ends - reps, reps)
        return out.append_column("copy_idx", pa.array(copy_idx, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def truncation_waste(ds, *, max_len: int, col: str = "text",
                     id_col: str = "doc_id"):
    """Context-length waste audit: for every document LONGER than
    ``max_len`` tokens, the tokens a truncate-at-max_len policy would
    discard — (id, n_toks, n_lost) with n_lost = n_toks - max_len. The
    "what does L actually cost on this corpus" question asked when
    choosing a context length (the alternative to chunking/packing).
    Single-space tokens (the ``token_count_by_lang`` convention; null
    text counts as 1 like SQL ``string_split('', ' ')``). Pure map,
    zero shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[col].combine_chunks(), "")
        n = pc.cast(pc.list_value_length(pc.split_pattern(text, " ")),
                    pa.int64())
        keep = pc.greater(n, max_len)
        out = pa.table({id_col: t[id_col], "n_toks": n}).filter(keep)
        return out.append_column(
            "n_lost", pc.subtract(out["n_toks"], pa.scalar(max_len, pa.int64()))
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def stratified_exact_split(ds, fractions: dict, *, group_col: str = "lang",
                           id_col: str = "doc_id"):
    """EXACT-count stratified train/val/test assignment: within every
    group, rows are ordered by (md5(id), id) and the first
    ``(n_g * cumfrac_e6 + 5e5) // 1e6`` rows go to each split in
    declaration order, the remainder to the last — so per-stratum
    split sizes are exact (half-up rounded), not merely expected as in
    the rate-based ``split_assign``. Deterministic at any parallelism;
    null-group rows are excluded. Returns (id, group, split).

    Scale shape: the ``grouped_ntile`` plan — narrow (id, group, md5)
    projection, ONE sort, O(blocks) driver ints for global ordinals,
    O(groups) start/count broadcast, vectorized per-block assignment."""
    import ray

    from ._digest import md5_hex
    from .rank import group_starts, zip_with_index

    names = list(fractions)
    cum = np.cumsum([fractions[k] for k in names])
    if not np.isclose(cum[-1], 1.0):
        raise ValueError("fractions must sum to 1")
    cum_e6 = [int(round(c * 1_000_000)) for c in cum[:-1]]

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[group_col]))
        return pa.table({
            id_col: t[id_col],
            group_col: t[group_col],
            "h": pa.array(md5_hex(t[id_col]), pa.string()),
        })

    narrow = ds.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    state_ref = ray.put(group_starts(narrow, group_col))

    ranked = zip_with_index(
        narrow.sort([group_col, "h", id_col]), index_col="__rank")

    def assign(t: pa.Table) -> pa.Table:
        starts_, counts_ = ray.get(state_ref)
        groups = t[group_col].to_pylist()
        r = t["__rank"].combine_chunks().to_numpy(zero_copy_only=False)
        gstart = np.fromiter((starts_[g] for g in groups), np.int64,
                             count=len(groups))
        gn = np.fromiter((counts_[g] for g in groups), np.int64,
                         count=len(groups))
        rn = r - gstart  # 1-based within-group rank
        label = np.full(len(groups), names[-1], dtype=object)
        for name, ce6 in zip(names[-2::-1], cum_e6[::-1]):
            cut = (gn * ce6 + 500_000) // 1_000_000
            label[rn <= cut] = name
        return pa.table({
            id_col: t[id_col],
            group_col: t[group_col],
            "split": pa.array(label, pa.string()),
        })

    return ranked.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)


def split_leakage(ds, *, key_col: str, id_col: str,
                  train_pct: int = 8, mod: int = 10):
    """Cross-split leakage audit: content keys (a phash, a text
    fingerprint) that land in BOTH the train and the validation side of
    the deterministic md5 split — the exact leak a dedup-unaware split
    creates, inflating eval scores. Emits one row per leaking key with
    its per-split counts.

    Split rule is the engine's md5_u32 convention (``md5(id) % mod <
    train_pct`` -> train), so the audit reproduces whatever
    ``split_assign`` would have done without materializing the split.
    Combiner-first: per-key split counts by ``bucket_combine``, filter
    to both-sides-positive."""
    import pyarrow.compute as pc

    from ._digest import md5_u32

    def split(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key_col]))
        is_train = (md5_u32(t[id_col].combine_chunks()) % mod) < train_pct
        return pa.table({
            key_col: t[key_col],
            "train": pa.array(is_train.astype(np.int64), pa.int64()),
            "val": pa.array((~is_train).astype(np.int64), pa.int64()),
        })

    merged = bucket_combine(
        ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True),
        key_col, {"train_n": ("train", "sum"), "val_n": ("val", "sum")})

    def leaks(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.greater(t["train_n"], 0),
                                pc.greater(t["val_n"], 0)))

    return merged.map_batches(leaks, batch_format="pyarrow",
                              zero_copy_batch=True)


def mixture_plan(ds, key_col: str, token_col: str,
                 weights_e6: dict[str, int], total_target: int) -> pa.Table:
    """Epoch/repeat planner closing the loop between token accounting
    and mixture sampling: given each key's available token count, the
    target mixture weights (e6 ints summing to 1e6) and a total token
    budget, emit per key the available tokens, the target token count
    and the repeat factor (``target / available`` as a half-up e6 int
    — >1e6 means upsample/repeat epochs, <1e6 means subsample; feeds
    ``doc_repeat_upsample`` / ``sample_by_rate`` directly).

    One combiner-first grouped-sum pass (key cardinality bounded by
    contract); every derived number is an exact integer on both sides.
    Keys absent from ``weights_e6`` get weight 0; keys in the plan but
    absent from the corpus report 0 available tokens and repeat -1
    (unsatisfiable)."""
    from .stats import _grouped_int_sums

    got = _grouped_int_sums(ds, key_col, token_col)
    have = {k: int(v) for k, v in zip(got[key_col].to_pylist(),
                                      got["total"].to_pylist())}
    # the grouped sum keeps Arrow's null-key group; a null mixture key
    # is meaningless (SQL side filters `key IS NOT NULL`)
    have.pop(None, None)
    keys = sorted(set(have) | set(weights_e6))
    rows = {"key": [], "n_tokens": [], "weight_e6": [],
            "target_tokens": [], "repeat_e6": []}
    for k in keys:
        n = have.get(k, 0)
        w = int(weights_e6.get(k, 0))
        target = (2 * w * total_target + 1_000_000) // 2_000_000
        rep = -1 if n == 0 else (2 * target * 1_000_000 + n) // (2 * n)
        rows["key"].append(k)
        rows["n_tokens"].append(n)
        rows["weight_e6"].append(w)
        rows["target_tokens"].append(target)
        rows["repeat_e6"].append(rep)
    return pa.table({
        "key": pa.array(rows["key"], pa.string()),
        "n_tokens": pa.array(rows["n_tokens"], pa.int64()),
        "weight_e6": pa.array(rows["weight_e6"], pa.int64()),
        "target_tokens": pa.array(rows["target_tokens"], pa.int64()),
        "repeat_e6": pa.array(rows["repeat_e6"], pa.int64()),
    })


def split_balance(ds, *, group_col: str, id_col: str,
                  train_pct: int = 8, mod: int = 10,
                  threshold_e6: int = 20_000) -> pa.Table:
    """Split-fairness audit: per stratum (language, source, format),
    the train/val counts under the deterministic md5 split and the
    stratum's half-up e6 train share against the GLOBAL train share —
    flagging strata whose share deviates by more than ``threshold_e6``
    (default 2%). An id-keyed hash split is only fair in expectation;
    a small or adversarially-keyed stratum can land lopsided, silently
    starving its eval slice. Same split rule as ``split_leakage`` /
    ``split_assign`` (``md5_u32(id) % mod < train_pct``), so the audit
    reports on the split the pipeline would actually produce.

    Combiner-first: per-batch (stratum, is_train) count partials — two
    ints per stratum per batch — folded driver-side; the result is
    |strata| rows by contract (strata are low-cardinality columns).
    Null strata are excluded on both sides. All shares are exact
    half-up integer math (``(2e6*x + d) // (2d)``)."""
    from ._digest import md5_u32

    def sides(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[group_col]))
        is_train = (md5_u32(t[id_col].combine_chunks()) % mod) < train_pct
        return pa.table({
            group_col: t[group_col],
            "n_train": pa.array(is_train.astype(np.int64), pa.int64()),
            "n_val": pa.array((~is_train).astype(np.int64), pa.int64()),
        })

    merged = fold_combine(
        ds.map_batches(sides, batch_format="pyarrow", zero_copy_batch=True),
        group_col, {"n_train": ("n_train", "sum"), "n_val": ("n_val", "sum")})
    if not merged.num_rows:
        return pa.table({
            group_col: pa.array([], pa.string()),
            "n_train": pa.array([], pa.int64()),
            "n_val": pa.array([], pa.int64()),
            "train_share_e6": pa.array([], pa.int64()),
            "global_share_e6": pa.array([], pa.int64()),
            "diff_e6": pa.array([], pa.int64()),
            "flagged": pa.array([], pa.bool_()),
        })
    tr = merged["n_train"].to_numpy(zero_copy_only=False).astype(np.int64)
    va = merged["n_val"].to_numpy(zero_copy_only=False).astype(np.int64)
    tot = tr + va
    g_tr = int(tr.sum())
    g_tot = int(tot.sum())
    global_e6 = (2_000_000 * g_tr + g_tot) // (2 * g_tot) if g_tot else 0
    share_e6 = (2_000_000 * tr + tot) // (2 * tot)
    diff = np.abs(share_e6 - global_e6)
    return pa.table({
        group_col: merged[group_col],
        "n_train": pa.array(tr, pa.int64()),
        "n_val": pa.array(va, pa.int64()),
        "train_share_e6": pa.array(share_e6, pa.int64()),
        "global_share_e6": pa.array(
            np.full(len(tr), global_e6, np.int64), pa.int64()),
        "diff_e6": pa.array(diff, pa.int64()),
        "flagged": pa.array(diff > threshold_e6),
    })


def stratified_hash_sample(ds, *, group_col: str = "lang",
                           id_col: str = "doc_id", n: int = 10) -> pa.Table:
    """Deterministic fixed-size per-stratum sample: within each stratum
    the ``n`` lowest ``(md5_u32(id), id)`` ranks — the eval-carving
    sample that is the SAME ``n`` rows per group at any corpus size,
    block layout or worker count (a rate sample's output grows with the
    data; a hash-RANK sample is constant and reproducible, so a
    regenerated corpus yields the same held-out docs).

    Scale shape: per-batch per-group local bottom-n (vectorized
    lexsort + groupby head), so the fold is bounded by
    ``|groups| x n x blocks`` rows and the final driver-side bottom-n
    touches only that. Nothing corpus-sized ever leaves the batches.
    Null strata are excluded (oracle parity)."""
    from ._digest import md5_u32
    from ._fold import fold_table

    def bottom(df):
        return (df.sort_values([group_col, "u", id_col], kind="mergesort")
                  .groupby(group_col, sort=False).head(n))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[group_col]))
        empty = pa.schema([(group_col, pa.string()),
                           (id_col, pa.int64()),
                           ("u", pa.int64())]).empty_table()
        if t.num_rows == 0:
            return empty
        u = md5_u32(t[id_col].combine_chunks())
        df = pa.table({
            group_col: t[group_col],
            id_col: t[id_col],
            "u": pa.array(u, pa.int64()),
        }).to_pandas()
        return pa.Table.from_pandas(bottom(df), preserve_index=False)

    folded = fold_table(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
    )
    if folded is None or folded.num_rows == 0:
        return pa.table({
            group_col: pa.array([], pa.string()),
            id_col: pa.array([], pa.int64()),
            "sample_rank": pa.array([], pa.int64()),
        })
    df = bottom(folded.to_pandas())
    df["sample_rank"] = df.groupby(group_col, sort=False).cumcount() + 1
    return pa.table({
        group_col: pa.array(df[group_col], pa.string()),
        id_col: pa.array(df[id_col].to_numpy(np.int64), pa.int64()),
        "sample_rank": pa.array(df["sample_rank"].to_numpy(np.int64),
                                pa.int64()),
    })


def source_overlap(ds, *, group_col: str = "source", col: str = "text",
                   n: int = 3) -> pa.Table:
    """Exact pairwise n-gram overlap matrix between corpus sources —
    the contamination/mixture-design view ABOVE document grain: which
    sources are near-copies of each other (a crawl re-packaged under a
    new name inflates its mixture weight silently). For every source
    pair: distinct-gram intersection, per-source distinct counts and
    the half-up e6 Jaccard.

    Scale shape: sources are discovered in one bounded pass and mapped
    to BITS (<= 63 sources per mask by contract — beyond that the mask
    chunks); per-batch distinct (gram, source) rows collapse before
    ONE gram-keyed groupby (the vocabulary-sized shuffle this op
    shares with vocab_stats); after it each (gram, source) is globally
    unique, so summing the per-gram bit values IS the OR, and the
    C(|sources|, 2) pair counts fold as integers from per-batch
    popcount partials. The |sources|^2 result never exceeds a driver
    dict by contract."""

    def valid(t: pa.Table) -> pa.Table:
        s = t[group_col].combine_chunks()
        return pa.table({group_col: s.filter(pc.is_valid(s))})

    found = fold_combine(
        ds.map_batches(valid, batch_format="pyarrow", zero_copy_batch=True),
        group_col, {})
    empty = pa.table({
        "src_a": pa.array([], pa.string()),
        "src_b": pa.array([], pa.string()),
        "inter": pa.array([], pa.int64()),
        "n_a": pa.array([], pa.int64()),
        "n_b": pa.array([], pa.int64()),
        "jaccard_e6": pa.array([], pa.int64()),
    })
    if found.num_rows == 0:
        return empty
    sources = sorted(found[group_col].to_pylist())
    if len(sources) > 63:
        raise ValueError("source_overlap: more than 63 sources needs "
                         "chunked masks")
    bit = {s: i for i, s in enumerate(sources)}

    def gram_partial(t: pa.Table) -> pa.Table:
        empty_g = pa.schema([("g", pa.string()),
                             (group_col, pa.string())]).empty_table()
        t = t.filter(pc.is_valid(t[group_col]))
        if t.num_rows == 0:
            return empty_g
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        keep = pc.not_equal(flat, "")
        w = flat.filter(keep).to_numpy(zero_copy_only=False)
        p = parent.filter(keep).to_numpy(zero_copy_only=False)
        m = len(w) - n + 1
        if m <= 0:
            return empty_g
        ok = np.ones(m, bool)
        g = w[:m].astype(object)
        for j in range(1, n):
            ok &= p[:m] == p[j:m + j]
            g = g + " " + w[j:m + j]
        srcs = t[group_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        return pa.table({
            "g": pa.array(g[ok], pa.string()),
            group_col: pa.array(srcs[p[:m][ok]], pa.string()),
        })

    def source_bit(t: pa.Table) -> pa.Table:
        srcs = t[group_col].to_numpy(zero_copy_only=False)
        masks = np.array([1 << bit[s] for s in srcs], np.int64)
        return pa.table({"g": t["g"], "mask": pa.array(masks, pa.int64())})

    # distinct (gram, source) -> one gram sum; rows are globally unique
    # after the first combine, so sum(bit) == OR of bits
    masks = bucket_combine(
        bucket_combine(ds.map_batches(gram_partial, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       ["g", group_col], {})
        .map_batches(source_bit, batch_format="pyarrow", zero_copy_batch=True),
        "g", {"mask": ("mask", "sum")})

    k = len(sources)

    def pair_partial(t: pa.Table) -> pa.Table:
        m = t["mask"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        singles = np.array([((m >> i) & 1).sum() for i in range(k)],
                           np.int64)
        rows_a, rows_b, inter = [], [], []
        for i in range(k):
            bi = (m >> i) & 1
            for j in range(i + 1, k):
                rows_a.append(i)
                rows_b.append(j)
                inter.append(int((bi & ((m >> j) & 1)).sum()))
        return pa.table({
            "ai": pa.array(rows_a, pa.int64()),
            "bi": pa.array(rows_b, pa.int64()),
            "inter": pa.array(inter, pa.int64()),
            "sa": pa.array(
                [int(singles[i]) for i in rows_a], pa.int64()),
            "sb": pa.array(
                [int(singles[j]) for j in rows_b], pa.int64()),
        })

    agg = fold_combine(
        masks.map_batches(pair_partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["ai", "bi"], {c: (c, "sum") for c in ("inter", "sa", "sb")})
    if agg.num_rows == 0:
        return empty
    ai = agg["ai"].to_pylist()
    bi = agg["bi"].to_pylist()
    inter = np.array(agg["inter"].to_pylist(), np.int64)
    na = np.array(agg["sa"].to_pylist(), np.int64)
    nb = np.array(agg["sb"].to_pylist(), np.int64)
    union = na + nb - inter
    jac = np.where(union > 0,
                   (2_000_000 * inter + union) // (2 * np.maximum(
                       union, 1)), 0)
    order = np.lexsort((bi, ai))
    return pa.table({
        "src_a": pa.array([sources[ai[i]] for i in order], pa.string()),
        "src_b": pa.array([sources[bi[i]] for i in order], pa.string()),
        "inter": pa.array(inter[order], pa.int64()),
        "n_a": pa.array(na[order], pa.int64()),
        "n_b": pa.array(nb[order], pa.int64()),
        "jaccard_e6": pa.array(jac[order], pa.int64()),
    })
