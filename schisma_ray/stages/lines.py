"""Line-level (paragraph) dedup across a corpus — CCNet-style
(Wenzek et al. 2020, arXiv:1911.00359): drop every line that already
occurred earlier in the corpus (boilerplate headers/footers, repeated
paragraphs), keeping the globally FIRST occurrence by (doc_id, pos),
then reconstruct each document from its surviving lines.

Scale shape: one explode pass (vectorized Arrow ``split_pattern`` +
``list_flatten``), ONE ``bucket_apply`` keyed by line — every occurrence
of an identical line lands in the same bucket, so per-bucket
``drop_duplicates(keep="first")`` on the exact line string is globally
correct (the hash only routes; equality decides) — and ONE keyed by
doc id to reassemble documents. No driver hop;
both shuffles carry only (id, pos, line) rows.

Documents whose every line is dropped disappear from the output (same
as the SQL ``GROUP BY`` over kept rows — documented contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply


def _explode_fn(text_col: str, id_col: str, sep: str, carry_cols: tuple = ()):
    def explode(batch: pa.Table) -> pa.Table:
        # a null text contributes no lines (the doc vanishes, like the
        # SQL WHERE text IS NOT NULL); without this, list_value_length's
        # null->NaN->int64 cast corrupts every offset after it
        batch = batch.filter(pc.is_valid(batch[text_col]))
        texts = batch[text_col].combine_chunks()
        lines_list = pc.split_pattern(texts, sep)
        flat = pc.list_flatten(lines_list)
        parent = pc.list_parent_indices(lines_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        lens = pc.list_value_length(lines_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        starts = np.zeros(len(lens), np.int64)
        if len(lens) > 1:
            starts[1:] = np.cumsum(lens)[:-1]
        pos = np.arange(len(flat), dtype=np.int64) - starts[parent]
        cols = {
            id_col: batch[id_col].take(pa.array(parent)),
            "pos": pa.array(pos, pa.int64()),
            "line": flat,
            "n_total": pa.array(lens[parent], pa.int64()),
        }
        for c in carry_cols:  # doc-level constants ride the explode
            cols[c] = batch[c].take(pa.array(parent))
        return pa.table(cols)

    return explode


def line_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
               sep: str = "\n", num_buckets: int = 64,
               carry_cols: tuple = ()):
    """Dataset of (id, text, n_kept, n_total[, carry_cols...]): each
    document rebuilt from the lines whose globally-first occurrence
    (min (doc_id, pos)) it owns. The per-doc string join is per-KEY CPU
    inside one bucket task, never a per-key Ray task. ``carry_cols``
    are doc-level columns ferried through unchanged (e.g. lang/source
    for a downstream pipeline stage)."""
    exploded = ds.map_batches(
        _explode_fn(text_col, id_col, sep, carry_cols),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    carry = {c: c for c in carry_cols}

    def keep_first(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([id_col, "pos"], kind="stable")
        return g.drop_duplicates(subset="line", keep="first")

    kept = bucket_apply(
        exploded, "line", keep_first, num_buckets=num_buckets,
        schema={id_col: id_col, "pos": pa.int64(), "line": "line",
                "n_total": pa.int64(), **carry})

    def rebuild(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([id_col, "pos"], kind="stable")
        return g.groupby(id_col, sort=True).agg(
            text=("line", sep.join),
            n_kept=("line", "size"),
            n_total=("n_total", "first"),
            **{c: (c, "first") for c in carry_cols},
        ).reset_index()

    return bucket_apply(
        kept, id_col, rebuild, num_buckets=num_buckets,
        schema={id_col: id_col, "text": pa.string(), "n_kept": pa.int64(),
                "n_total": pa.int64(), **carry})


def c4_clean(ds, *, text_col: str = "text", id_col: str = "doc_id",
             sep: str = "\n", min_words: int = 3, min_lines: int = 5,
             carry_cols: tuple = ()):
    """C4-style page cleaning (Raffel et al. 2020, arXiv:1910.10683
    §2.2), the subset expressible without external word lists:

    * keep only lines ending in terminal punctuation (``. ! ? "``),
    * keep only lines with >= ``min_words`` words,
    * drop lines containing "javascript" (case-insensitive),
    * drop pages containing "lorem ipsum" (case-insensitive) or a
      curly brace,
    * drop pages with fewer than ``min_lines`` surviving lines.

    Every rule is per-document, so this is ONE vectorized map_batches —
    zero shuffle at any scale. Line checks run over the flattened line
    array with Arrow compute kernels (RE2 regex, substring, count);
    only the final per-doc string join is per-key CPU inside the batch.
    """

    def clean(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[text_col]))
        texts = batch[text_col].combine_chunks()
        low = pc.utf8_lower(texts)
        page_ok = pc.and_(
            pc.invert(pc.match_substring(low, "lorem ipsum")),
            pc.invert(pc.match_substring(texts, "{")),
        ).to_numpy(zero_copy_only=False)

        lines_list = pc.split_pattern(texts, sep)
        flat = lines_list.flatten()
        parent = pc.list_parent_indices(lines_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        lens = pc.list_value_length(lines_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)

        keep = pc.and_(
            pc.and_(
                pc.match_substring_regex(flat, '[.!?"]$'),
                pc.greater_equal(
                    pc.count_substring_regex(flat, r"\S+"), min_words
                ),
            ),
            pc.invert(pc.match_substring(pc.utf8_lower(flat), "javascript")),
        ).to_numpy(zero_copy_only=False)

        n_docs = len(texts)
        kept_counts = np.bincount(parent[keep], minlength=n_docs)
        doc_ok = page_ok & (kept_counts >= min_lines)
        row_ok = keep & doc_ok[parent]

        kept_lines = pd.Series(flat.filter(pa.array(row_ok)).to_pylist())
        joined = kept_lines.groupby(parent[row_ok]).agg(sep.join)
        doc_idx = joined.index.to_numpy().astype(np.int64)
        take = pa.array(doc_idx)
        cols = {
            id_col: batch[id_col].take(take),
            text_col: pa.array(joined.to_numpy(), pa.string()),
            "n_kept": pa.array(kept_counts[doc_idx], pa.int64()),
            "n_total": pa.array(lens[doc_idx], pa.int64()),
        }
        for c in carry_cols:
            cols[c] = batch[c].take(take)
        return pa.table(cols)

    return ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


def duplicated_lines(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     sep: str = "\n", min_count: int = 2,
                     num_buckets: int = 64):
    """Dataset of (line, n): lines occurring >= min_count times across
    the corpus (the boilerplate report). Per-bucket counts are globally
    exact — identical lines co-locate by hash."""
    exploded = ds.map_batches(
        _explode_fn(text_col, id_col, sep),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def count_lines(t: pa.Table) -> pd.DataFrame:
        n = t.to_pandas().groupby("line", sort=True).size()
        n = n[n >= min_count]
        return pd.DataFrame({"line": n.index.to_numpy(), "n": n.to_numpy()})

    return bucket_apply(exploded, "line", count_lines, num_buckets=num_buckets,
                        schema={"line": pa.string(), "n": pa.int64()})
