"""Text analysis operators over a document table.

* ``text_metrics`` — vectorized per-document counters whose semantics
  are deliberately chosen to be ANSI-SQL-reproducible (the DuckDB
  oracle mirrors them exactly): char length, single-space word split,
  uppercase count.
* ``token_count_by_lang`` — per-document token counts summed per
  language by ``bucket_combine`` (combiner pattern; the shuffle carries
  one row per lang per batch).
* ``lang_id`` — n-gram/stopword heuristic language identifier (a task
  fused into the read; tables compiled once per instance).
* ``quality_score`` — composite quality scoring from the metrics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply, bucket_combine, fold_combine
from ._math import frac_e6 as _frac_e6

_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "zu", "mit", "von", "nicht"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "de", "que", "por"},
}


def text_metrics(ds, col: str = "text", id_col: str = "doc_id"):
    """(id, n_chars, n_words, n_upper) — all SQL-mirrorable.

    n_words counts single-space-separated fields (DuckDB
    ``len(string_split(text, ' '))``), n_upper counts [A-Z].
    """

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[col].combine_chunks()
        n_chars = pc.utf8_length(text)
        words = pc.split_pattern(text, " ")
        n_words = pc.list_value_length(words)
        upper = pc.count_substring_regex(text, "[A-Z]")
        return pa.table(
            {
                id_col: batch[id_col],
                "n_chars": pc.cast(n_chars, pa.int64()),
                "n_words": pc.cast(n_words, pa.int64()),
                "n_upper": pc.cast(upper, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def token_count_by_lang(ds, col: str = "text", lang_col: str = "lang"):
    """(lang, tokens) — total single-space tokens per language."""

    def tokens(batch: pa.Table) -> pa.Table:
        text = batch[col].combine_chunks()
        n_words = pc.cast(
            pc.list_value_length(pc.split_pattern(text, " ")), pa.int64()
        )
        return pa.table({lang_col: batch[lang_col], "tokens": n_words})

    return bucket_combine(
        ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True),
        lang_col, {"tokens": ("tokens", "sum")})


BPE_ISH_PATTERN = r"'[a-z]+| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


class BpeTokenCounter:
    """BPE-style token counter (GPT-2-ish regex pre-tokenizer split:
    contraction suffixes, words, numbers, punctuation runs). The
    compiled pattern lives once per instance; counts match DuckDB's RE2
    ``regexp_extract_all`` on the same pattern (oracle-verified)."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        import re

        self.col = col
        self.id_col = id_col
        self.pattern = re.compile(BPE_ISH_PATTERN)

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts = [
            0 if t is None else len(self.pattern.findall(t))
            for t in batch[self.col].to_pylist()
        ]
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_tokens": pa.array(counts, pa.int64()),
            }
        )


def bpe_token_counts(ds, col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        BpeTokenCounter(col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


class LangId:
    """Heuristic language identifier (stopword voting with a
    CJK-codepoint shortcut). Tables are built once per instance."""

    def __init__(self, col: str = "text", id_col: str = "doc_id"):
        self.col = col
        self.id_col = id_col
        self.tables = {lang: frozenset(ws) for lang, ws in _STOPWORDS.items()}

    def classify(self, text: str) -> str:
        if not text:
            return "und"
        cjk = sum(1 for ch in text[:200] if "一" <= ch <= "鿿")
        if cjk > len(text[:200]) * 0.2:
            return "zh"
        words = text.lower().split()
        best, best_score = "und", 0
        for lang, stops in self.tables.items():
            score = sum(1 for w in words if w in stops)
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.classify(t or "") for t in batch[self.col].to_pylist()]
        return pa.table(
            {self.id_col: batch[self.id_col], "lang_pred": pa.array(preds, pa.string())}
        )


def lang_id(ds, col: str = "text", id_col: str = "doc_id"):
    return ds.map_batches(
        LangId(col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def regex_filter(ds, pattern: str, *, col: str = "text", invert: bool = False):
    """Content-policy filter: drop rows whose ``col`` matches ``pattern``
    (``invert=True`` keeps only matches). Fully vectorized — Arrow's RE2
    ``match_substring_regex`` per batch, no actor state, no Python rows.
    The classic scrub stage (PII patterns, boilerplate markers, banned
    phrases) of a training-data pipeline; RE2 semantics match DuckDB's
    ``regexp_matches`` so the oracle reproduces it exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(
            pc.match_substring_regex(batch[col].combine_chunks(), pattern), False
        )
        return batch.filter(m if invert else pc.invert(m))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def redact_regex(ds, pattern: str, replacement: str = "[REDACTED]", *,
                 col: str = "text", id_col: str = "doc_id"):
    """PII scrubbing: (id, redacted, n_redacted) — every match of
    ``pattern`` in ``col`` replaced with ``replacement``, plus the
    non-overlapping match count. Fully vectorized (Arrow RE2
    ``replace_substring_regex`` / ``count_substring_regex``); RE2
    semantics match DuckDB ``regexp_replace(..., 'g')`` /
    ``regexp_extract_all`` so the oracle reproduces it exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[col].combine_chunks()
        return pa.table(
            {
                id_col: batch[id_col],
                "redacted": pc.replace_substring_regex(
                    text, pattern, replacement
                ),
                "n_redacted": pc.cast(
                    pc.count_substring_regex(text, pattern), pa.int64()
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def repetition_metrics(ds, col: str = "text", id_col: str = "doc_id"):
    """(id, n_words, n_distinct, diversity) — repetition signals
    (Gopher-style filters drop documents with low distinct-word ratios).

    Tokenization is the single-space split shared by the other text ops;
    the per-doc set is inherent (same cost class as MinHash shingling)
    but the split itself is Arrow-vectorized and the loop touches token
    lists, not characters.
    """

    def fn(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch[col].combine_chunks(), " ")
        n_words = pc.fill_null(
            pc.cast(pc.list_value_length(words), pa.int64()), 0
        ).to_numpy()
        n_distinct = np.fromiter(
            (len(set(w)) if w is not None else 0 for w in words.to_pylist()),
            dtype=np.int64,
            count=len(words),
        )
        diversity = np.where(n_words > 0, n_distinct / np.maximum(n_words, 1), 0.0)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_words": pa.array(n_words, pa.int64()),
                "n_distinct": pa.array(n_distinct, pa.int64()),
                "diversity": pa.array(np.round(diversity, 6), pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def quality_score_values(text) -> "np.ndarray":
    """Vectorized quality scores for one Arrow string array.

    score = 0.4 * min(1, n_words/64) + 0.3 * [3 <= avg_word_len <= 12]
          + 0.3 * (1 - upper_ratio), rounded to 6 dp. Pure
    pyarrow.compute + numpy (no pandas copy of the text column); every
    term is SQL-expressible so the DuckDB oracle reproduces it
    bit-for-bit on float64. Shared by the quality_score stage and the
    corpus-clean composite pipeline.
    """
    n_chars = pc.fill_null(pc.cast(pc.utf8_length(text), pa.int64()), 0).to_numpy()
    n_words = pc.fill_null(
        pc.cast(pc.list_value_length(pc.split_pattern(text, " ")), pa.int64()), 0
    ).to_numpy()
    n_upper = pc.fill_null(
        pc.cast(pc.count_substring_regex(text, "[A-Z]"), pa.int64()), 0
    ).to_numpy()
    avg_wl = np.where(n_words > 0, (n_chars - (n_words - 1)) / np.maximum(n_words, 1), 0.0)
    score = (
        0.4 * np.minimum(1.0, n_words / 64.0)
        + 0.3 * ((avg_wl >= 3) & (avg_wl <= 12)).astype(np.float64)
        + 0.3 * (1.0 - np.where(n_chars > 0, n_upper / n_chars, 0.0))
    )
    return np.round(score, 6)


def quality_score(ds, col: str = "text", id_col: str = "doc_id"):
    """(id, score in [0,1]) — length/word-shape quality heuristic."""

    def fn(batch: pa.Table) -> pa.Table:
        score = quality_score_values(batch[col].combine_chunks())
        return pa.table(
            {
                id_col: batch[id_col],
                "score": pa.array(score, pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _top_terms(g, k: int, lang_col: str):
    """The k best (score desc, word asc) rows of each language in the
    pandas frame ``g``; a null language is one group, as in SQL."""
    g = g.sort_values(["score", "word"], ascending=[False, True],
                      kind="mergesort")
    return g.groupby(lang_col, sort=False, dropna=False).head(k)[
        [lang_col, "word", "score"]
    ]


def _tfidf_local_topk_fn(n_docs_ref, k: int, lang_col: str):
    """Per-block score + local top-k per language for
    ``tfidf_top_terms`` — module-level so the skew bound (at most k
    rows per language per block entering the final merge) is directly
    unit-testable. ``n_docs_ref`` is a ray.put dict {lang: n_docs}."""
    import ray

    def local_topk(t: pa.Table):
        g = t.to_pandas()
        nd = ray.get(n_docs_ref)
        n = g[lang_col].map(lambda x: float(nd.get(x, 1))).to_numpy(np.float64)
        g["score"] = np.round(
            g["tf"].to_numpy(np.float64)
            * np.log(n / g["df"].to_numpy(np.float64)),
            6,
        )
        return _top_terms(g, k, lang_col)

    return local_topk


def tfidf_top_terms(ds, *, k: int = 5, col: str = "text",
                    lang_col: str = "lang", id_col: str = "doc_id"):
    """(lang, word, score): the k highest-TF-IDF terms per language —
    corpus keyword profiling. tf = term occurrences within the
    language, df = docs of that language containing the term,
    score = round(tf * ln(n_docs_lang / df), 6); ties break word-asc.

    Combiner-first and fully vectorized: each batch explodes its text
    ONCE via Arrow list kernels (split -> flatten + parent indices; no
    Python per row/token) and pre-aggregates (lang, word) -> (tf, df)
    — df partials sum exactly because a document lives in exactly one
    batch. The only shuffle carries those collapsed partials; the
    per-language doc totals are a 5-row fold.
    """
    import ray

    def explode_partial(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t[col].combine_chunks(), " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        tri = pa.table(
            {
                lang_col: t[lang_col].combine_chunks().take(parent),
                "word": flat,
                id_col: t[id_col].combine_chunks().take(parent),
            }
        )
        agg = tri.group_by([lang_col, "word"]).aggregate(
            [([], "count_all"), (id_col, "count_distinct")]
        )
        return agg.rename_columns([lang_col, "word", "tf", "df"])

    partials = ds.map_batches(
        explode_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    totals = bucket_combine(partials, [lang_col, "word"],
                            {"tf": ("tf", "sum"), "df": ("df", "sum")})

    # per-language doc totals: a 5-row keyed fold
    n = fold_combine(ds, lang_col, {"n": (lang_col, "count_all")})
    n_docs = dict(zip(n[lang_col].to_pylist(), n["n"].to_pylist()))

    # Scores are ROW-LOCAL once totals are collapsed (each (lang, word)
    # exists exactly once), so the final top-k never needs a
    # vocabulary-sized group task: score + local top-k per lang within
    # each block, then merge the <= k-per-lang-per-block survivors —
    # the bm25_topk shape. A language's whole vocab never co-locates.
    n_ref = ray.put(n_docs)
    locals_ds = totals.map_batches(
        _tfidf_local_topk_fn(n_ref, k, lang_col), batch_format="pyarrow"
    )

    def merge_topk(t: pa.Table):
        return _top_terms(t.to_pandas(), k, lang_col)

    # a language's rows here are bounded by k * blocks, not vocab
    return bucket_apply(locals_ds, lang_col, merge_topk, schema=None)


def redact_all(ds, patterns, *, col: str = "text", id_col: str = "doc_id"):
    """Multi-class PII scrubbing in one vectorized pass:
    ``patterns`` is a list of (name, regex, token). Output:
    (id, redacted, n_<name>...) — counts are taken on the ORIGINAL
    text (classes don't mask each other's counts); replacements apply
    sequentially in list order. All Arrow RE2 kernels, DuckDB-parity
    (nested regexp_replace + regexp_extract_all)."""

    def fn(batch: pa.Table) -> pa.Table:
        text = batch[col].combine_chunks()
        cols = {id_col: batch[id_col]}
        red = text
        for name, pat, token in patterns:
            cols[f"n_{name}"] = pc.cast(
                pc.count_substring_regex(text, pat), pa.int64()
            )
            red = pc.replace_substring_regex(red, pat, token)
        cols["redacted"] = red
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def bm25_topk(ds, query_terms, *, k: int = 10, k1: float = 1.5,
              b: float = 0.75, col: str = "text", id_col: str = "doc_id"):
    """BM25 document retrieval for a bag of query terms -> top-k
    (doc_id, score) — the classic lexical-search scorer (Robertson/
    Sparck Jones; the +1 idf variant so idf is always positive).

    Distributed shape (ONE tokenizing pass over the corpus):

    1. per batch, explode tokens with Arrow list kernels ONCE, filter
       to the broadcast query terms, pre-aggregate (doc, term) -> tf
       carrying the doc length, and append one marker row holding the
       batch's (doc count, token total) — corpus N / avgdl ride the
       same pass instead of re-splitting the corpus; a doc lives in
       one batch so tf/doclen/df partials are exact per batch;
    2. df per term = count_distinct partials over the (small) matched
       table; idf broadcasts; the BM25 kernel is vectorized numpy and
       each block emits only its local top-k — the driver folds k rows
       per block, never the matched table.

    Token = single-space field (SQL ``string_split(text, ' ')`` parity).
    Score = sum_t idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)),
    idf = ln((N - df + 0.5)/(df + 0.5) + 1), rounded to 6dp.
    """
    import pandas as pd
    import ray

    terms = sorted(set(query_terms))
    terms_ref = ray.put(pa.array(terms, pa.string()))

    def matches(t: pa.Table) -> pa.Table:
        id_type = t.schema.field(id_col).type
        text = t[col].combine_chunks()
        valid = pc.is_valid(text)
        t = pa.table({id_col: t[id_col], col: text}).filter(valid)
        text = t[col].combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        dl = pc.cast(pc.list_value_length(words), pa.int64())
        tri = pa.table(
            {
                id_col: t[id_col].combine_chunks().take(parent),
                "term": flat,
                "dl": dl.take(parent),
            }
        ).filter(pc.is_in(flat, value_set=ray.get(terms_ref)))
        agg = tri.group_by([id_col, "term", "dl"]).aggregate([([], "count_all")])
        agg = agg.rename_columns([id_col, "term", "dl", "tf"])
        agg = agg.append_column(
            "stats", pa.array(np.zeros(agg.num_rows, np.int8), pa.int8())
        )
        # marker row: this batch's corpus totals (token count in dl,
        # doc count in tf) — N/avgdl ride the single tokenizing pass
        marker = pa.table(
            {
                id_col: pa.array([None], id_type),
                "term": pa.array([""], pa.string()),
                "dl": pa.array([int(pc.sum(dl).as_py() or 0)], pa.int64()),
                "tf": pa.array([t.num_rows], pa.int64()),
                "stats": pa.array([1], pa.int8()),
            }
        )
        return pa.concat_tables([agg, marker])

    matched = ds.map_batches(
        matches, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def corpus_partial(t: pa.Table) -> pa.Table:
        m = t.filter(pc.equal(t["stats"], 1))
        return pa.table(
            {
                "docs": pa.array([int(pc.sum(m["tf"]).as_py() or 0)], pa.int64()),
                "tokens": pa.array([int(pc.sum(m["dl"]).as_py() or 0)], pa.int64()),
            }
        )

    stats = matched.map_batches(
        corpus_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    n_docs = stats.sum("docs")
    n_tokens = stats.sum("tokens")
    if not n_docs:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    avgdl = n_tokens / n_docs

    # df per term: per-batch count_distinct partials sum exactly (a doc
    # lives in exactly one matched batch); the fold is |terms| rows
    def batch_df(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["stats"], 0))
        agg = t.select(["term", id_col]).group_by("term").aggregate(
            [(id_col, "count_distinct")]
        )
        return agg.rename_columns(["term", "df"])

    df = fold_combine(
        matched.map_batches(batch_df, batch_format="pyarrow",
                            zero_copy_batch=True),
        "term", {"df": ("df", "sum")})
    df = dict(zip(df["term"].to_pylist(), df["df"].to_pylist()))
    if not df:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    idf = {
        t: float(np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0))
        for t, d in df.items()
    }
    idf_ref = ray.put(idf)

    # score pass: vectorized BM25 kernel per (doc, term) row, per-doc
    # sums exact within the batch, then a bounded local-top-k per block
    # — the driver folds k rows per block, never the matched table
    def score_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["stats"], 0)).drop_columns(["stats"])
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        m = t.to_pandas().sort_values([id_col, "term"], kind="stable")
        lut = ray.get(idf_ref)
        tf = m["tf"].to_numpy(np.float64)
        dl = m["dl"].to_numpy(np.float64)
        term_idf = np.fromiter(
            (lut.get(x, 0.0) for x in m["term"]), np.float64, count=len(m)
        )
        m["part"] = term_idf * tf * (k1 + 1) / (
            tf + k1 * (1 - b + b * dl / avgdl)
        )
        scores = m.groupby(id_col, sort=True)["part"].sum().round(6)
        top = scores.sort_values(ascending=False, kind="stable").head(k)
        out = top.reset_index()
        return pa.table({id_col: pa.array(out[id_col].tolist()),
                         "score": pa.array(out["part"].tolist(), pa.float64())})

    locals_ds = matched.map_batches(
        score_topk, batch_format="pyarrow", zero_copy_batch=True
    )
    from ._fold import fold_table

    folded = fold_table(locals_ds)
    if folded is None:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    merged = folded.to_pandas()
    merged = merged.sort_values(id_col, kind="stable").sort_values(
        "score", ascending=False, kind="stable"
    ).head(k)
    return pa.table({id_col: pa.array(merged[id_col].tolist()),
                     "score": pa.array(merged["score"].tolist(), pa.float64())})


def _index_partial_fn(col: str, id_col: str, max_postings: int):
    """Per-batch pre-capped posting partials for ``inverted_index`` —
    module-level so the skew bound (at most max_postings rows per term
    per batch entering the shuffle) is directly unit-testable."""

    def explode_partial(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t[col].combine_chunks(), " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        tri = pa.table(
            {
                "term": flat,
                id_col: t[id_col].combine_chunks().take(parent),
            }
        )
        tri = tri.filter(pc.not_equal(tri["term"], ""))
        g = (
            tri.group_by(["term", id_col]).aggregate([])
            .to_pandas()
            .sort_values(["term", id_col], kind="mergesort")
        )
        rn = g.groupby("term", sort=False).cumcount().to_numpy()
        size = g.groupby("term", sort=False)[id_col].transform("size")
        # the batch's df partial rides on each term's FIRST posting row
        # (rank 0 always survives the cap) — no sentinel rows, doc id
        # dtype untouched through the Arrow round-trip
        g = g.assign(
            df_part=np.where(rn == 0, size.to_numpy(np.int64), 0)
        )
        return g[rn < max_postings]

    return explode_partial


def inverted_index(ds, *, col: str = "text", id_col: str = "doc_id",
                   max_postings: int = 20):
    """(term, df, postings): the search-infra build step — per term, the
    global document frequency and the ``max_postings`` lowest doc ids as
    a comma-joined posting string.

    Combiner-first with PRE-CAPPED partials: each batch explodes its
    text ONCE via Arrow list kernels, dedupes (term, doc) locally
    (a doc lives wholly in one batch, so per-batch-distinct IS globally
    distinct and per-batch df partials sum exactly), then caps BEFORE
    the shuffle — per (term, batch) it ships one df-partial row plus at
    most ``max_postings`` posting rows (the batch's lowest doc ids).
    Batch doc sets are disjoint, so the global lowest-m ids per term
    are contained in the union of per-batch lowest-m: the cap loses
    nothing. The term-hash-bucketed shuffle therefore carries
    O(terms x blocks x m) rows, never every (term, doc) pair — a stop
    word's posting traffic is bounded by blocks, not corpus size."""
    partials = ds.map_batches(
        _index_partial_fn(col, id_col, max_postings),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    import pandas as pd

    def merge(t: pa.Table) -> pd.DataFrame:
        group = t.to_pandas()
        df_map = group.groupby("term", sort=False)["df_part"].sum()
        g = group.sort_values(["term", id_col], kind="mergesort")
        rn = g.groupby("term", sort=False).cumcount()
        capped = g[rn < max_postings].copy()
        capped["_s"] = capped[id_col].astype(str)
        postings = capped.groupby("term", sort=False)["_s"].agg(",".join)
        return pd.DataFrame(
            {
                "term": postings.index,
                "df": df_map.loc[postings.index].to_numpy(),
                "postings": postings.to_numpy(),
            }
        )

    return bucket_apply(partials, "term", merge,
                        schema={"term": pa.string(), "df": pa.int64(),
                                "postings": pa.string()})


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
# the paper's A1.1 default bounds — single source of truth for the
# gopher_quality stage and the prepare_corpus --gopher path
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_LEN_E6 = 3_000_000
GOPHER_MAX_MEAN_LEN_E6 = 10_000_000
GOPHER_MIN_DISTINCT_STOP = 2


def gopher_stats_values(texts: pa.Array, stopwords: tuple = GOPHER_STOPWORDS):
    """(n_words, mean_len_e6, n_distinct_stopwords) int64 arrays for one
    Arrow string array — the word statistics behind the Gopher rules,
    shared by the ``gopher_quality`` report stage and the corpus-prepare
    filter. Mean word length is ``floor(chars * 1e6 / words + 0.5)`` so
    downstream rule checks are integer-exact vs SQL. Null texts count
    as empty (n_words = 0, fails the word-count rule) — the oracle
    spells the same with ``coalesce(text, '')``."""
    texts = pc.fill_null(texts, "")
    words = pc.count_substring_regex(texts, r"\S+").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    chars = pc.utf8_length(
        pc.replace_substring_regex(texts, r"\s+", "")
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    safe_words = np.where(words == 0, 1, words)
    mean_e6 = np.floor(
        chars.astype(np.float64) * 1_000_000.0 / safe_words + 0.5
    ).astype(np.int64)
    mean_e6[words == 0] = 0
    n_stop = np.zeros(len(texts), np.int64)
    for sw in stopwords:
        n_stop += pc.match_substring_regex(
            texts, rf"\b{sw}\b"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
    return words, mean_e6, n_stop


def text_hygiene(ds, *, col: str = "text", id_col: str = "doc_id"):
    """Encoding-hygiene screen: per document, the count of U+FFFD
    replacement characters (the mojibake signature a botched decode
    leaves behind) and of C0 control characters other than
    tab/newline/CR (terminal junk, binary leakage), plus a ``passed``
    flag when both are zero. The standard pre-training sanity gate
    that runs BEFORE tokenization — replacement characters silently
    poison the token distribution.

    Counts are integers, so the SQL oracle agrees exactly (DuckDB
    ``length``/``replace``/``regexp_replace`` count the same
    codepoints). Vectorized Arrow kernels, zero shuffle; null text
    counts as empty and passes (the null itself is the schema
    validator's finding, not this screen's)."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[col].combine_chunks(), "")
        n_chars = pc.cast(pc.utf8_length(texts), pa.int64())
        n_rep = pc.cast(pc.count_substring(texts, "�"), pa.int64())
        n_ctl = pc.cast(
            pc.count_substring_regex(
                texts, r"[\x00-\x08\x0B\x0C\x0E-\x1F]"
            ),
            pa.int64(),
        )
        passed = pc.and_(pc.equal(n_rep, 0), pc.equal(n_ctl, 0))
        return pa.table(
            {
                id_col: batch[id_col],
                "n_chars": n_chars,
                "n_replacement": n_rep,
                "n_control": n_ctl,
                "passed": passed,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def gopher_quality(ds, *, col: str = "text", id_col: str = "doc_id",
                   min_words: int = GOPHER_MIN_WORDS,
                   max_words: int = GOPHER_MAX_WORDS,
                   min_mean_len_e6: int = GOPHER_MIN_MEAN_LEN_E6,
                   max_mean_len_e6: int = GOPHER_MAX_MEAN_LEN_E6,
                   min_distinct_stop: int = GOPHER_MIN_DISTINCT_STOP,
                   stopwords: tuple = GOPHER_STOPWORDS):
    """Gopher-style document quality rules (Rae et al. 2021,
    arXiv:2112.11446 A1.1), the word-statistics subset: word count in
    [min_words, max_words], mean word length in [3, 10], and the
    "contains >= 2 distinct common stopwords" requirement. Defaults are
    the paper's; callers tune bounds to their corpus.

    One vectorized map_batches (RE2 kernels), zero shuffle. Mean word
    length is carried as ``floor(chars * 1e6 / words + 0.5)`` int64 —
    the rule evaluates in integers so the SQL oracle agrees exactly,
    never through float repr. Emits one row per document with per-rule
    booleans (the audit report); filter on ``passed`` for the keep-set.
    """

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[col].combine_chunks()
        words, mean_e6, n_stop = gopher_stats_values(texts, stopwords)
        p_words = (words >= min_words) & (words <= max_words)
        p_mean = (mean_e6 >= min_mean_len_e6) & (mean_e6 <= max_mean_len_e6)
        p_stop = n_stop >= min_distinct_stop
        return pa.table(
            {
                id_col: batch[id_col],
                "n_words": pa.array(words, pa.int64()),
                "mean_len_e6": pa.array(mean_e6, pa.int64()),
                "n_stop": pa.array(n_stop, pa.int64()),
                "pass_words": pa.array(p_words),
                "pass_mean": pa.array(p_mean),
                "pass_stop": pa.array(p_stop),
                "passed": pa.array(p_words & p_mean & p_stop),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _group_runs(doc: np.ndarray, h: np.ndarray):
    """Sort (doc, hash) pairs and return (order, run_starts, run_counts)
    — the vectorized per-(doc, key) counter every repetition signal
    below shares. ``order`` maps sorted position -> original index."""
    if len(doc) == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    order = np.lexsort((h, doc))
    ds_, hs_ = doc[order], h[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])))
    )
    counts = np.diff(np.concatenate((starts, [len(ds_)])))
    return order, starts, counts




_GRAM_PRIME = np.uint64(0x9E3779B97F4A7C15)


def _flat_with_parents(texts, pattern: str):
    """Split an Arrow string array and return (flat values, parent row
    index, per-row list length) as numpy-friendly pieces."""
    import pandas as pd

    split = pc.split_pattern(texts, pattern)
    split = split.combine_chunks() if isinstance(split, pa.ChunkedArray) else split
    lens = pc.list_value_length(split).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(split)
    parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    h = pd.util.hash_array(
        flat.to_numpy(zero_copy_only=False)
    ).astype(np.uint64)
    return flat, parent, lens, h


def gopher_repetition_values(texts):
    """The Gopher repetition signals (Rae et al. 2021, arXiv:2112.11446
    A1.1 "repetition removal") for one Arrow string array, all
    e6-integer fractions so the SQL oracle agrees exactly:

    * ``n_lines`` and ``dup_line_frac_e6`` — fraction of lines that are
      repeats of an earlier line in the same document,
    * ``dup_line_char_frac_e6`` — fraction of line characters sitting
      in those repeated occurrences,
    * ``top2_char_frac_e6`` — characters covered by the most frequent
      word 2-gram (count, then gram length, both maximized — the
      deterministic tie-break the oracle mirrors) over total chars,
    * ``dup5_char_frac_e6`` — sum of count x length over word 5-grams
      occurring >= 2 times, over total chars (the standard
      occurrence-weighted approximation of Gopher's dup-n-gram rule).

    Null text counts as empty. Everything is one utf-split + hash +
    lexsort run-length pass per batch — no Python loop over rows.
    Grams are compared by 64-bit hash (engine-internal); a within-doc
    collision is the usual ~k^2/2^64 nonevent."""
    texts = pc.fill_null(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray)
        else texts, "",
    )
    nrows = len(texts)
    tc = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)

    # ---- line-level signals
    lflat, lparent, n_lines, lh = _flat_with_parents(texts, "\n")
    llen = pc.utf8_length(lflat).to_numpy(zero_copy_only=False).astype(np.int64)
    order, starts, counts = _group_runs(lparent, lh)
    gdoc = lparent[order][starts]
    glen = llen[order][starts]
    n_groups = np.bincount(gdoc, minlength=nrows).astype(np.int64)
    dup_lines = n_lines - n_groups
    line_chars = np.bincount(lparent, weights=llen, minlength=nrows).astype(np.int64)
    first_chars = np.bincount(gdoc, weights=glen, minlength=nrows).astype(np.int64)
    dup_chars = line_chars - first_chars

    # ---- word n-gram signals
    wflat, wparent, _, wh = _flat_with_parents(texts, " ")
    wlen = pc.utf8_length(wflat).to_numpy(zero_copy_only=False).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(wlen)))

    def gram_groups(n: int):
        if len(wh) < n:
            return (np.empty(0, np.int64),) * 3
        m = wparent[: len(wparent) - n + 1] == wparent[n - 1:]
        gh = wh[: len(wh) - n + 1].copy()
        for j in range(1, n):
            gh = gh * _GRAM_PRIME ^ wh[j: len(wh) - n + 1 + j]
        gdoc_ = wparent[: len(wparent) - n + 1][m]
        gh = gh[m]
        idx = np.flatnonzero(m)
        clen = cs[idx + n] - cs[idx] + (n - 1)
        o, s, c = _group_runs(gdoc_, gh)
        return gdoc_[o][s], clen[o][s], c.astype(np.int64)

    # top 2-gram: max count, then max char length at that count
    d2, cl2, c2 = gram_groups(2)
    top2 = np.zeros(nrows, np.int64)
    if len(d2):
        o = np.lexsort((cl2, c2, d2))
        dd, cc, ll = d2[o], c2[o], cl2[o]
        last = np.flatnonzero(
            np.concatenate((dd[1:] != dd[:-1], [True]))
        )
        top2[dd[last]] = cc[last] * ll[last]

    d5, cl5, c5 = gram_groups(5)
    dup5 = np.zeros(nrows, np.int64)
    if len(d5):
        dm = c5 >= 2
        dup5 = np.bincount(
            d5[dm], weights=(c5[dm] * cl5[dm]), minlength=nrows
        ).astype(np.int64)

    return (
        n_lines,
        _frac_e6(dup_lines, n_lines),
        _frac_e6(dup_chars, line_chars),
        _frac_e6(top2, tc),
        _frac_e6(dup5, tc),
    )


def gopher_repetition(ds, *, col: str = "text", id_col: str = "doc_id"):
    """(id, n_lines, dup_line_frac_e6, dup_line_char_frac_e6,
    top2_char_frac_e6, dup5_char_frac_e6) — the Gopher repetition-
    removal audit, one zero-shuffle vectorized pass per batch."""

    def fn(batch: pa.Table) -> pa.Table:
        n_lines, dlf, dlc, t2, d5 = gopher_repetition_values(batch[col])
        return pa.table(
            {
                id_col: batch[id_col],
                "n_lines": pa.array(n_lines, pa.int64()),
                "dup_line_frac_e6": pa.array(dlf, pa.int64()),
                "dup_line_char_frac_e6": pa.array(dlc, pa.int64()),
                "top2_char_frac_e6": pa.array(t2, pa.int64()),
                "dup5_char_frac_e6": pa.array(d5, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# Gopher A1.1 format-rule default bounds (reject if violated)
GOPHER_MAX_SYMBOL_RATIO_E6 = 100_000     # '#'/'...' to words  > 0.1
GOPHER_MAX_BULLET_FRAC_E6 = 900_000      # bullet-started lines > 0.9
GOPHER_MAX_ELLIPSIS_FRAC_E6 = 300_000    # '...'-ended lines    > 0.3
GOPHER_MIN_ALPHA_FRAC_E6 = 800_000       # words w/ a letter    < 0.8


def gopher_format_values(texts):
    """(symbol_ratio_e6, bullet_frac_e6, ellipsis_frac_e6,
    alpha_word_frac_e6) int64 arrays for one Arrow string column — the
    Gopher FORMAT signals (Rae et al. 2021 A1.1): hash/ellipsis symbol
    ratio to words, fraction of lines starting with a bullet, fraction
    of lines ending with an ellipsis, fraction of words containing an
    alphabetic character. All e6-integer, all SQL-mirrorable, all
    RE2-vectorized — zero shuffle, no row loops. Null text counts as
    empty (0 words -> every ratio 0, which fails the alpha rule)."""
    texts = pc.fill_null(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray)
        else texts, "",
    )
    nrows = len(texts)
    n_words = pc.count_substring_regex(texts, r"\S+").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_sym = (
        pc.count_substring_regex(texts, r"\.\.\.").to_numpy(zero_copy_only=False)
        + pc.count_substring(texts, "#").to_numpy(zero_copy_only=False)
        + pc.count_substring(texts, "…").to_numpy(zero_copy_only=False)
    ).astype(np.int64)

    lsplit = pc.split_pattern(texts, "\n")
    n_lines = pc.list_value_length(lsplit).to_numpy(zero_copy_only=False).astype(np.int64)
    lflat = pc.list_flatten(lsplit)
    lparent = np.repeat(np.arange(nrows, dtype=np.int64), n_lines)
    bullet = pc.match_substring_regex(lflat, r"^\s*[-*•]").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    ell = pc.match_substring_regex(lflat, r"(\.\.\.|…)$").to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    n_bullet = np.bincount(lparent, weights=bullet, minlength=nrows).astype(np.int64)
    n_ell = np.bincount(lparent, weights=ell, minlength=nrows).astype(np.int64)

    wsplit = pc.split_pattern_regex(texts, r"\s+")
    wlens = pc.list_value_length(wsplit).to_numpy(zero_copy_only=False).astype(np.int64)
    wflat = pc.list_flatten(wsplit)
    wparent = np.repeat(np.arange(nrows, dtype=np.int64), wlens)
    has_alpha = pc.and_(
        pc.match_substring_regex(wflat, "[A-Za-z]"),
        pc.not_equal(wflat, ""),
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    n_alpha = np.bincount(wparent, weights=has_alpha, minlength=nrows).astype(np.int64)

    return (
        _frac_e6(n_sym, n_words),
        _frac_e6(n_bullet, n_lines),
        _frac_e6(n_ell, n_lines),
        _frac_e6(n_alpha, n_words),
    )


def gopher_format(ds, *, col: str = "text", id_col: str = "doc_id",
                  max_symbol_e6: int = GOPHER_MAX_SYMBOL_RATIO_E6,
                  max_bullet_e6: int = GOPHER_MAX_BULLET_FRAC_E6,
                  max_ellipsis_e6: int = GOPHER_MAX_ELLIPSIS_FRAC_E6,
                  min_alpha_e6: int = GOPHER_MIN_ALPHA_FRAC_E6):
    """(id, symbol_ratio_e6, bullet_frac_e6, ellipsis_frac_e6,
    alpha_word_frac_e6, pass_* booleans, passed) — the Gopher FORMAT
    rule audit, one zero-shuffle vectorized pass per batch. Defaults
    are the paper's bounds; rules evaluate in integers so the SQL
    oracle agrees exactly."""

    def fn(batch: pa.Table) -> pa.Table:
        sym, bul, ell, alpha = gopher_format_values(batch[col])
        p_sym = sym <= max_symbol_e6
        p_bul = bul <= max_bullet_e6
        p_ell = ell <= max_ellipsis_e6
        p_alpha = alpha >= min_alpha_e6
        return pa.table(
            {
                id_col: batch[id_col],
                "symbol_ratio_e6": pa.array(sym, pa.int64()),
                "bullet_frac_e6": pa.array(bul, pa.int64()),
                "ellipsis_frac_e6": pa.array(ell, pa.int64()),
                "alpha_word_frac_e6": pa.array(alpha, pa.int64()),
                "pass_symbol": pa.array(p_sym),
                "pass_bullet": pa.array(p_bul),
                "pass_ellipsis": pa.array(p_ell),
                "pass_alpha": pa.array(p_alpha),
                "passed": pa.array(p_sym & p_bul & p_ell & p_alpha),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def train_char_bigram_lm(texts, *, add_k: int = 1) -> pa.Table:
    """Driver-side character-bigram LM trainer (the model side of
    CCNet/KenLM-style perplexity filtering, Wenzek et al. 2020 — a
    bigram stand-in for the 5-gram KenLM this container can't host).
    Model-sized by construction: at most 65536 rows.

    Returns (bigram: 2-char string, lp_e6: int64) with add-k smoothing
    over the 65536-bigram byte space, plus one sentinel row
    (bigram = '') carrying the unseen-bigram log-prob. Log-probs are
    FROZEN as ``floor(ln(p) * 1e6 + 0.5)`` integers at train time —
    scoring on both the Ray and SQL side is pure integer summation, so
    parity never passes through float repr or summation order.

    Bigram semantics are 2-CHAR (codepoint) substrings end to end:
    trainer, scorer fast path (ascii), scorer fallback (non-ascii) and
    the SQL oracle all key on the same 2-char strings, so multi-byte
    reference text trains the exact keys the scorer looks up. The add-k
    denominator keeps the fixed 65536-slot smoothing space (a defined
    constant, not a claim about the true codepoint-pair space)."""
    import math
    from collections import Counter

    counts: Counter = Counter()
    for t in texts:
        if not t or len(t) < 2:
            continue
        cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(
            np.int64
        )
        codes = cp[:-1] * 0x110000 + cp[1:]
        u, c = np.unique(codes, return_counts=True)
        counts.update(dict(zip(u.tolist(), c.tolist())))
    total = sum(counts.values())
    denom = total + add_k * 65536

    def lp_e6(c: int) -> int:
        return int(math.floor(math.log((c + add_k) / denom) * 1e6 + 0.5))

    bigrams = [chr(code // 0x110000) + chr(code % 0x110000)
               for code in counts]
    lps = [lp_e6(c) for c in counts.values()]
    bigrams.append("")            # sentinel: unseen-bigram floor
    lps.append(lp_e6(0))
    return pa.table({"bigram": pa.array(bigrams, pa.string()),
                     "lp_e6": pa.array(lps, pa.int64())})


def lm_score(ds, model: pa.Table, *, col: str = "text",
             id_col: str = "doc_id"):
    """(id, lp_e6, n_bigrams) per document under a persisted char-bigram
    LM: total integer log-prob and bigram count (callers derive the
    per-bigram average / perplexity proxy and threshold on it). The
    model broadcasts once (``ray.put``); ASCII texts score through a
    65536-slot int64 table (fully vectorized per doc); docs with fewer
    than 2 chars emit no row (no bigrams — same as the SQL GROUP BY).
    Bigram semantics are 2-CHAR substrings (== SQL ``substring``),
    which equals byte bigrams on the ASCII corpora this targets."""
    import ray

    floor_lp = None
    lut: dict = {}
    for bg, lp in zip(model["bigram"].to_pylist(), model["lp_e6"].to_pylist()):
        if bg == "":
            floor_lp = lp
        else:
            lut[bg] = lp
    if floor_lp is None:
        # without the sentinel, unseen bigrams would silently score 0
        # (probability 1) and garbage text would rank best
        raise ValueError(
            "model table lacks the bigram='' sentinel row "
            "(use train_char_bigram_lm)"
        )
    table = np.full(65536, floor_lp, np.int64)
    for bg, lp in lut.items():
        a, b = ord(bg[0]), ord(bg[1])
        if a < 256 and b < 256:
            table[a * 256 + b] = lp
    model_ref = ray.put((table, floor_lp, lut))

    def fn(batch: pa.Table) -> pa.Table:
        tab, f_lp, d = ray.get(model_ref)
        arr = batch[col].combine_chunks()
        valid = pc.and_(
            pc.is_valid(arr),
            pc.greater_equal(pc.fill_null(pc.binary_length(arr), 0), 2),
        )
        # per-DOC ascii routing: utf8_length == binary_length iff pure
        # ascii, so one exotic doc no longer degrades its whole batch
        is_ascii = pc.equal(
            pc.fill_null(pc.utf8_length(arr), 0),
            pc.fill_null(pc.binary_length(arr), 0),
        )
        both = pa.table({id_col: batch[id_col], "__t": arr})
        kept = both.filter(pc.and_(valid, is_ascii))
        exotic = both.filter(pc.and_(valid, pc.invert(is_ascii)))
        outs = []
        if exotic.num_rows:
            # 2-char string semantics via dict (matches SQL substring)
            ids, lps, ns = [], [], []
            for rid, t in zip(exotic[id_col].to_pylist(),
                              exotic["__t"].to_pylist()):
                if len(t) < 2:
                    continue
                pairs = [t[i:i + 2] for i in range(len(t) - 1)]
                ids.append(rid)
                lps.append(sum(d.get(p, f_lp) for p in pairs))
                ns.append(len(pairs))
            outs.append(pa.table({id_col: pa.array(ids, batch[id_col].type),
                                  "lp_e6": pa.array(lps, pa.int64()),
                                  "n_bigrams": pa.array(ns, pa.int64())}))
        if kept.num_rows:
            txt = kept["__t"].combine_chunks()
            # zero-copy view of the batch's ascii text: one pair-code
            # array over the concatenated byte buffer, one table gather,
            # one reduceat per-doc sum — no per-row Python
            off_width = (np.int64 if pa.types.is_large_string(txt.type)
                         else np.int32)
            off = np.frombuffer(txt.buffers()[1], off_width)[
                txt.offset:txt.offset + len(txt) + 1
            ].astype(np.int64)
            data = np.frombuffer(txt.buffers()[2], np.uint8)
            seg = data[off[0]:off[-1]]
            starts = off[:-1] - off[0]
            codes = seg[:-1].astype(np.int32) * 256 + seg[1:]
            lp = tab[codes]
            # pairs straddling a doc boundary contribute nothing; each
            # doc's reduceat segment [start_i, start_{i+1}) then sums
            # exactly its own len-1 bigrams (every kept doc has len >=
            # 2, so segments are non-empty and reduceat is well-defined)
            boundary = starts[1:] - 1
            lp[boundary] = 0
            sums = (np.add.reduceat(lp, starts) if len(lp)
                    else np.array([], np.int64))
            ns_arr = (off[1:] - off[:-1]) - 1
            outs.append(pa.table({id_col: kept[id_col],
                                  "lp_e6": pa.array(sums, pa.int64()),
                                  "n_bigrams": pa.array(ns_arr, pa.int64())}))
        if not outs:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "lp_e6": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64())})
        return pa.concat_tables(outs)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


LOG2_TABLE_SIZE = 1 << 17  # covers doc lengths the gate corpora see


def build_log2_table(max_m: int = LOG2_TABLE_SIZE) -> pa.Table:
    """(m, l_e12) for m in 1..max_m with l_e12 = floor(log2(m) * 1e12
    + 0.5) — the FROZEN integer-log artifact behind ``char_entropy``
    (the lm_scores recipe: persist the logs once, never recompute them
    in SQL, so parity can't drift on a libm ulp)."""
    m = np.arange(1, max_m + 1, dtype=np.int64)
    l_e12 = np.floor(np.log2(m.astype(np.float64)) * 1e12 + 0.5).astype(
        np.int64
    )
    return pa.table({"m": m, "l_e12": l_e12})


def char_entropy(ds, log2_table: pa.Table, *, col: str = "text",
                 id_col: str = "doc_id"):
    """(id, n_chars, entropy_e6): per-document Shannon character
    entropy in bits — the compression-style quality signal (gibberish
    and boilerplate sit at the entropy extremes; natural prose bands in
    the middle). Null text counts as empty (n_chars = 0, entropy 0).

    INTEGER-EXACT by construction: with frozen L(m) = floor(log2(m)
    * 1e12 + 0.5) from the persisted artifact,

        H_num = N * L(N) - sum_c n_c * L(n_c)          (exact int64)
        entropy_e6 = (H_num + N * 500000) // (N * 1000000)

    — pure integer arithmetic on both sides (the SQL oracle joins the
    SAME parquet artifact), so no float sum ordering can diverge.

    Fully vectorized per batch: one utf-32 decode of the concatenated
    text, one np.unique over (doc, codepoint) keys, one reduceat —
    zero shuffle, row-local output."""
    import ray

    lt = log2_table["l_e12"].combine_chunks().to_numpy(zero_copy_only=False)
    max_m = len(lt)
    # L indexed by m (1-based): L[m] = l_e12 of m; L[0] unused
    L = np.concatenate(([0], lt)).astype(np.int64)
    l_ref = ray.put(L)

    def fn(batch: pa.Table) -> pa.Table:
        Lt = ray.get(l_ref)
        lengths, ent = char_entropy_values(batch[col], Lt)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_chars": pa.array(lengths, pa.int64()),
                "entropy_e6": pa.array(ent, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def char_entropy_values(texts, L: "np.ndarray"):
    """(n_chars, entropy_e6) int64 arrays for one Arrow string column
    under the frozen integer-log2 lookup ``L`` (index m -> l_e12, L[0]
    unused) — the kernel shared by the ``char_entropy`` stage and the
    ``prepare_corpus`` entropy filter."""
    texts = pc.fill_null(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray)
        else texts, "",
    ).to_pylist()
    nrows = len(texts)
    lengths = np.fromiter((len(s) for s in texts), np.int64, nrows)
    if lengths.max(initial=0) >= len(L):
        raise ValueError(
            f"document longer than log2 table ({len(L) - 1}); rebuild "
            "the artifact with a larger max_m"
        )
    joined = "".join(texts)
    codes = np.frombuffer(joined.encode("utf-32-le"), np.uint32).astype(
        np.int64
    )
    doc_idx = np.repeat(np.arange(nrows, dtype=np.int64), lengths)
    # codepoints < 2^21: (doc << 21 | code) is collision-free
    uk, counts = np.unique((doc_idx << 21) | codes, return_counts=True)
    udoc = uk >> 21
    term = counts.astype(np.int64) * L[counts]
    h_num = np.zeros(nrows, np.int64)
    if len(uk):
        seg = np.flatnonzero(np.concatenate(([True], udoc[1:] != udoc[:-1])))
        h_num[udoc[seg]] = -np.add.reduceat(term, seg)
    nz = lengths > 0
    h_num[nz] += lengths[nz] * L[lengths[nz]]
    ent = np.zeros(nrows, np.int64)
    ent[nz] = (h_num[nz] + lengths[nz] * 500_000) // (lengths[nz] * 1_000_000)
    return lengths, ent


def train_word_classifier(texts, labels, *, max_vocab: int = 65536) -> pa.Table:
    """Driver-side linear text-classifier trainer — the fastText-style
    quality/educational-value scorer of DCLM (Li et al. 2024) and
    FineWeb-Edu (Penedo et al. 2024), shrunk to a naive-Bayes log-odds
    bag-of-words this container can train deterministically. Model-
    sized by construction (vocab capped at ``max_vocab`` by total
    count, ties by word).

    Returns (word, weight_e6): per-word add-one-smoothed log-odds
    ``floor(ln((c_pos+1)/(n_pos+V) / ((c_neg+1)/(n_neg+V))) * 1e6 +
    0.5)`` FROZEN as int64 at train time. Scoring is then a pure
    integer SUM of weights over word occurrences — order-independent,
    so the SQL oracle (explode + join + SUM) agrees exactly."""
    from collections import Counter

    pos: Counter = Counter()
    neg: Counter = Counter()
    for text, lab in zip(texts, labels):
        words = (text or "").split()
        (pos if lab else neg).update(words)
    vocab = sorted(
        set(pos) | set(neg),
        key=lambda w: (-(pos[w] + neg[w]), w),
    )[:max_vocab]
    v = len(vocab)
    n_pos = sum(pos.values())
    n_neg = sum(neg.values())
    weights = [
        int(np.floor(
            (np.log((pos[w] + 1) / (n_pos + v))
             - np.log((neg[w] + 1) / (n_neg + v))) * 1e6 + 0.5
        ))
        for w in vocab
    ]
    return pa.table(
        {"word": pa.array(vocab, pa.string()),
         "weight_e6": pa.array(weights, pa.int64())}
    )


def classifier_score(ds, model: pa.Table, *, col: str = "text",
                     id_col: str = "doc_id"):
    """(id, score_e6, n_hits): frozen-weight linear classifier scoring
    — sum of the model's integer word weights over every word
    OCCURRENCE (words outside the vocab contribute 0), plus the hit
    count. The model broadcasts once via ``ray.put``; each batch does
    one whitespace explode + one ``pc.index_in`` + two bincounts —
    vectorized, zero shuffle, null text scores 0."""
    import ray

    model_ref = ray.put(
        (model["word"].combine_chunks(),
         model["weight_e6"].to_numpy(zero_copy_only=False).astype(np.int64))
    )

    def fn(batch: pa.Table) -> pa.Table:
        vocab, weights = ray.get(model_ref)
        texts = pc.fill_null(batch[col].combine_chunks(), "")
        score, hits = classifier_score_values(texts, vocab, weights)
        return pa.table(
            {
                id_col: batch[id_col],
                "score_e6": pa.array(score, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def classifier_score_values(texts: pa.Array, vocab: pa.Array,
                            weights: np.ndarray):
    """(score_e6, n_hits) int64 arrays for one (null-free) Arrow string
    array under a frozen integer-weight word model — the kernel shared
    by the ``classifier_score`` stage and the ``prepare_corpus``
    classifier filter. One whitespace explode + one ``pc.index_in`` +
    two bincounts; out-of-vocab words contribute 0."""
    wsplit = pc.split_pattern_regex(texts, r"\s+")
    lens = pc.list_value_length(wsplit).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    flat = pc.list_flatten(wsplit)
    parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    # index_in yields NULL (not -1) for out-of-vocab words
    idx = pc.fill_null(pc.index_in(flat, value_set=vocab), -1).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    hit = idx >= 0
    w = np.where(hit, weights[np.where(hit, idx, 0)], 0)
    score = np.bincount(parent, weights=w, minlength=len(lens)).astype(np.int64)
    hits = np.bincount(parent, weights=hit, minlength=len(lens)).astype(np.int64)
    return score, hits


class LangMismatch(LangId):
    """Label-consistency audit: rows whose DECLARED language disagrees
    with the heuristic prediction — the classic mislabeled-data sweep
    before per-language processing. Reuses LangId's tables."""

    def __init__(self, col: str = "text", id_col: str = "doc_id",
                 lang_col: str = "lang"):
        super().__init__(col, id_col)
        self.lang_col = lang_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.classify(t or "") for t in batch[self.col].to_pylist()]
        t = pa.table(
            {
                self.id_col: batch[self.id_col],
                self.lang_col: batch[self.lang_col],
                "lang_pred": pa.array(preds, pa.string()),
            }
        )
        return t.filter(
            pc.invert(pc.equal(t[self.lang_col], t["lang_pred"]))
        )


def lang_mismatches(ds, col: str = "text", id_col: str = "doc_id",
                    lang_col: str = "lang"):
    return ds.map_batches(
        LangMismatch(col, id_col, lang_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def flesch_scores(ds, *, col: str = "text", id_col: str = "doc_id"):
    """Flesch reading-ease per document in EXACT e3-integer arithmetic
    (206.835 − 1.015·words/sentences − 84.6·syllables/words, each ratio
    a half-up integer divide): words = \\S+ runs, sentences = [.!?]+
    runs floored at 1, syllables = the classic vowel-group
    approximation ([aeiouyAEIOUY]+ runs; whitespace breaks groups, so
    the global count equals the per-word sum). Wordless documents are
    absent (no defined score). Pure vectorized map, zero shuffle —
    three RE2 counts per batch, identical regexes on both oracle
    sides."""

    def fn(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t[col].combine_chunks(), "")

        def runs(pat: str) -> np.ndarray:
            return pc.count_substring_regex(texts, pat).to_numpy(
                zero_copy_only=False).astype(np.int64)

        w = runs(r"\S+")
        s = np.maximum(runs(r"[.!?]+"), 1)
        y = runs(r"[aeiouyAEIOUY]+")
        keep = w > 0
        wk, sk, yk = w[keep], s[keep], y[keep]
        a = (2 * 1015 * wk + sk) // (2 * sk)
        b = (2 * 84600 * yk + wk) // (2 * wk)
        return pa.table({
            id_col: t[id_col].filter(pa.array(keep)),
            "n_words": pa.array(wk, pa.int64()),
            "n_sentences": pa.array(sk, pa.int64()),
            "n_syllables": pa.array(yk, pa.int64()),
            "flesch_e3": pa.array(206835 - a - b, pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


LICENSE_RULES = (
    ("cc0", r"(?i)creative commons zero|\bcc0\b|public domain"),
    ("cc-by", r"(?i)creative commons|\bcc[- ]by\b"),
    ("mit", r"(?i)\bmit license\b"),
    ("apache", r"(?i)apache license"),
    ("all-rights-reserved", r"(?i)all rights reserved"),
)


def license_tags(ds, *, col: str = "text", id_col: str = "doc_id",
                 rules=LICENSE_RULES):
    """License-aware curation tag per document: the FIRST matching
    pattern in rule order wins (most-permissive-first priority chain),
    'none' when nothing matches. One compiled-RE2 match per rule per
    batch (identical patterns in the SQL CASE); pure map, zero
    shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t[col].combine_chunks(), "")
        tag = np.full(len(texts), "none", dtype=object)
        undecided = np.ones(len(texts), bool)
        for name, pat in rules:
            hit = pc.match_substring_regex(texts, pat).to_numpy(
                zero_copy_only=False).astype(bool)
            take = undecided & hit
            tag[take] = name
            undecided &= ~hit
        return pa.table({
            id_col: t[id_col],
            "license_tag": pa.array(tag, pa.string()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def sentence_explode(ds, *, id_col: str = "doc_id", text_col: str = "text",
                     sep: str = ". "):
    """Explode documents into numbered sentences with word counts —
    the row layout sentence-level dedup / filtering / alignment
    pipelines operate on (one doc row -> k sentence rows).

    Row-local and zero shuffle; one vectorized split per batch (Arrow
    list kernels + cumsum segment counts, no Python loop over rows or
    sentences). The separator is a literal (default '. ') so the SQL
    string_split oracle is exact; null texts are dropped."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        parts = pc.split_pattern(t[text_col].combine_chunks(), sep)
        lens = pc.list_value_length(parts).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = pc.list_flatten(parts)
        total = int(lens.sum())
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(lens) \
            else np.zeros(0, np.int64)
        sent_idx = (np.arange(total, dtype=np.int64)
                    - np.repeat(starts, lens) + 1)
        ids = t[id_col].combine_chunks().take(
            pa.array(np.repeat(np.arange(len(lens)), lens), pa.int64())
        )
        toks = pc.split_pattern(flat, " ")
        toffs_flat = pc.list_flatten(toks)
        nonempty = pc.not_equal(toffs_flat, "").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        tlens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        bounds = np.concatenate([[0], np.cumsum(tlens)])
        cs = np.concatenate([[0], np.cumsum(nonempty)])
        n_words = cs[bounds[1:]] - cs[bounds[:-1]]
        return pa.table({
            id_col: ids,
            "sent_idx": pa.array(sent_idx, pa.int64()),
            "sentence": flat,
            "n_words": pa.array(n_words, pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def lexical_diversity(ds, *, col: str = "text", id_col: str = "doc_id"):
    """Per-document lexical-diversity audit: word count, distinct-word
    count, hapax-legomena count (words occurring exactly once in the
    doc) and the type/token ratio as an e6 integer — the standard
    repetitiveness / vocabulary-richness signal that complements the
    Gopher repetition rules (a doc can pass dup-line checks yet cycle a
    tiny vocabulary).

    Vectorized per batch: one whitespace explode, empty tokens dropped
    (so counts equal the oracle's ``regexp_extract_all('\\S+')``), then
    a pandas (doc, word) value_counts — C-level group machinery, no
    Python loop over rows. A doc lives wholly in one batch, so per-batch
    stats are exact; zero shuffle. Docs with no words are dropped on
    both sides (TTR undefined). ``ttr_e6`` is the half-up integer
    divide ``(2*distinct*1e6 + words) // (2*words)``, bit-exact vs the
    SQL oracle."""
    import pandas as pd

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[col].combine_chunks(), "")
        wsplit = pc.split_pattern_regex(texts, r"\s+")
        lens = pc.list_value_length(wsplit).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = pc.list_flatten(wsplit)
        parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        parent = parent[keep]
        words = flat.filter(pa.array(keep))
        if len(parent) == 0:
            return pa.schema([
                (id_col, batch.schema.field(id_col).type),
                ("n_words", pa.int64()), ("n_distinct", pa.int64()),
                ("n_hapax", pa.int64()), ("ttr_e6", pa.int64()),
            ]).empty_table()
        wc = pd.DataFrame(
            {"p": parent, "w": words.to_numpy(zero_copy_only=False)}
        ).groupby(["p", "w"], sort=False).size()
        per_doc = wc.groupby(level=0)
        n_words = per_doc.sum()
        n_distinct = per_doc.size()
        n_hapax = (wc == 1).groupby(level=0).sum()
        pids = n_words.index.to_numpy()
        nw = n_words.to_numpy(np.int64)
        nd = n_distinct.to_numpy(np.int64)
        return pa.table({
            id_col: batch[id_col].combine_chunks().take(
                pa.array(pids, pa.int64())
            ),
            "n_words": pa.array(nw, pa.int64()),
            "n_distinct": pa.array(nd, pa.int64()),
            "n_hapax": pa.array(n_hapax.to_numpy(np.int64), pa.int64()),
            "ttr_e6": pa.array(
                (2 * nd * 1_000_000 + nw) // (2 * nw), pa.int64()
            ),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# fixed evaluation order for the dominant script tie-break (first max
# wins) — shared by the stage and mirrored in the SQL oracle's CASE
# chain
SCRIPT_CLASSES = (
    ("latin", r"\p{Latin}"),
    ("digit", r"[0-9]"),
    ("cjk", r"\p{Han}"),
    ("cyrillic", r"\p{Cyrillic}"),
    ("space", r"\s"),
)


def script_mix(ds, *, col: str = "text", id_col: str = "doc_id"):
    """Per-document Unicode-script composition audit: codepoint counts
    for Latin letters, ASCII digits, Han (CJK), Cyrillic and whitespace,
    the remainder as ``n_other``, plus the dominant class (first-max
    wins over the fixed SCRIPT_CLASSES order, ``other`` last) — the
    mixed-script / wrong-script screen run before language-specific
    processing (a "Latin" corpus with CJK-dominant rows is a scrape
    bug).

    RE2 script classes (``\\p{Han}``...) count identically in Arrow and
    DuckDB (both RE2), so every column is integer-exact vs the SQL
    oracle. One ``count_substring_regex`` per class per batch, zero
    shuffle; null text counts as empty."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch[col].combine_chunks(), "")
        total = pc.cast(pc.utf8_length(texts), pa.int64()).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        counts = {}
        for name, pat in SCRIPT_CLASSES:
            counts[name] = pc.cast(
                pc.count_substring_regex(texts, pat), pa.int64()
            ).to_numpy(zero_copy_only=False).astype(np.int64)
        other = total - sum(counts.values())
        mat = np.stack(list(counts.values()) + [other])
        dom_idx = np.argmax(mat, axis=0)  # first max wins, rows in order
        names = np.array([n for n, _ in SCRIPT_CLASSES] + ["other"])
        cols = {id_col: batch[id_col]}
        for name in counts:
            cols[f"n_{name}"] = pa.array(counts[name], pa.int64())
        cols["n_other"] = pa.array(other, pa.int64())
        cols["dominant"] = pa.array(names[dom_idx], pa.string())
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


class LangConfusion(LangId):
    """Per-batch (declared, predicted) language pairs — LangMismatch's
    aggregate sibling: the whole matrix, not just the disagreeing rows,
    counted per cell by ``lang_confusion``."""

    def __init__(self, col: str = "text", id_col: str = "doc_id",
                 lang_col: str = "lang"):
        super().__init__(col, id_col)
        self.lang_col = lang_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.classify(t or "") for t in batch[self.col].to_pylist()]
        t = pa.table({
            self.lang_col: batch[self.lang_col],
            "lang_pred": pa.array(preds, pa.string()),
        })
        # drop null declared labels so the off-diagonal mass equals the
        # LangMismatch row count exactly (its null != pred compare is
        # null -> filtered; a (NULL, pred) cell here would break the
        # invariant on corpora with unlabeled rows)
        return t.filter(pc.is_valid(t[self.lang_col].combine_chunks()))


def lang_confusion(ds, *, col: str = "text", id_col: str = "doc_id",
                   lang_col: str = "lang") -> pa.Table:
    """Declared-vs-predicted language confusion matrix: (lang,
    lang_pred, n) — the label-quality summary behind the
    ``lang_mismatches`` row-level audit (which cell is big tells you
    WHICH mislabeling happened, not just how much). The classifier runs
    in a task fused into the read; the keyed fold is bounded by
    langs^2."""
    merged = fold_combine(
        ds.map_batches(LangConfusion(col, id_col, lang_col),
                       batch_format="pyarrow", zero_copy_batch=True),
        [lang_col, "lang_pred"], {"n": ("lang_pred", "count_all")})
    if not merged.num_rows:
        return pa.schema([(lang_col, pa.string()), ("lang_pred", pa.string()),
                          ("n", pa.int64())]).empty_table()
    return merged


def token_fertility(ds, *, col: str = "text", key_col: str = "lang"):
    """Per-key tokenizer-fertility audit: total UTF-8 bytes, total
    whitespace tokens and bytes-per-token as a half-up e6 integer —
    the capacity-planning number (how many bytes buy a token) that
    differs sharply across languages and catches a tokenizer that
    fragments one language into byte soup.

    One combiner-first pass: per-batch (key, bytes, tokens) partials
    via two Arrow kernels, then a tiny key-cardinality groupby; null
    text contributes 0/0, null keys are dropped. Integer-exact vs the
    SQL oracle (DuckDB ``strlen`` = bytes, ``regexp_extract_all('\\S+')``
    = the same token rule)."""

    def lengths(t: pa.Table) -> pa.Table:
        texts = pc.fill_null(t[col].combine_chunks(), "")
        return pa.table({
            key_col: t[key_col],
            "b": pc.cast(pc.binary_length(texts), pa.int64()),
            "tok": pc.cast(
                pc.count_substring_regex(texts, r"\S+"), pa.int64()
            ),
        }).filter(pc.is_valid(t[key_col].combine_chunks()))

    merged = fold_combine(
        ds.map_batches(lengths, batch_format="pyarrow", zero_copy_batch=True),
        key_col, {"b": ("b", "sum"), "tok": ("tok", "sum")})
    if not merged.num_rows:
        return pa.schema([
            (key_col, pa.string()), ("n_bytes", pa.int64()),
            ("n_tokens", pa.int64()), ("bytes_per_token_e6", pa.int64()),
        ]).empty_table()
    b = merged["b"].to_numpy(zero_copy_only=False).astype(np.int64)
    tok = merged["tok"].to_numpy(zero_copy_only=False).astype(np.int64)
    bpt = np.where(
        tok > 0,
        (2 * b * 1_000_000 + tok) // (2 * np.maximum(tok, 1)),
        -1,
    ).astype(np.int64)
    return pa.table({
        key_col: merged[key_col],
        "n_bytes": pa.array(b, pa.int64()),
        "n_tokens": pa.array(tok, pa.int64()),
        "bytes_per_token_e6": pa.array(bpt, pa.int64()),
    })


def word_pmi_top(ds, *, col: str = "text", id_col: str = "doc_id",
                 vocab_k: int = 20, top_pairs: int = 20, min_pair: int = 5):
    """(word_a, word_b, n_ab, pmi): the ``top_pairs`` highest-PMI
    unordered word pairs over the ``vocab_k`` most document-frequent
    words — the collocation/topical-association profile
    (pmi = ln(n_ab * n_docs / (df_a * df_b)), doc-level events,
    round 6; pairs below ``min_pair`` co-occurrences are noise and
    dropped).

    Scale shape: df partials collapse per batch (a doc lives in one
    batch, so distinct-(doc, word) partials sum exactly); the vocabulary
    is a de-skewed global top-k (per-block local top-k, bounded merge —
    never the full vocab in one task); pair counting reuses the
    ``event_type_cooccurrence`` doc-bucket triangle over the
    vocab-restricted (doc, word) rows (per-doc distinct vocab words
    <= vocab_k by construction); the final PMI table is
    <= vocab_k^2/2 rows — bounded by construction."""
    import ray

    from .window import event_type_cooccurrence

    def df_partial(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        tri = pa.table({
            id_col: t[id_col].combine_chunks().take(parent),
            "word": flat,
        }).filter(pc.not_equal(flat, ""))
        agg = tri.group_by("word").aggregate([(id_col, "count_distinct")])
        return agg.rename_columns(["word", "df"])

    totals = bucket_combine(
        ds.map_batches(df_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "word", {"df": ("df", "sum")})

    def local_topk(t: pa.Table) -> pa.Table:
        return t.sort_by([("df", "descending"),
                          ("word", "ascending")]).slice(0, vocab_k)

    vocab_rows = []
    for b in totals.map_batches(
        local_topk, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        vocab_rows += list(zip(t["word"].to_pylist(), t["df"].to_pylist()))
    vocab_rows.sort(key=lambda x: (-x[1], x[0]))
    vocab = dict(vocab_rows[:vocab_k])  # word -> df
    n_docs = ds.count()
    vref = ray.put(vocab)

    def restrict(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        keep = pc.is_in(flat, value_set=pa.array(sorted(ray.get(vref))))
        return pa.table({
            id_col: t[id_col].combine_chunks().take(parent),
            "word": flat,
        }).filter(keep)

    pairs = event_type_cooccurrence(
        ds.map_batches(restrict, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col=id_col, type_col="word",
        max_types_per_key=vocab_k,
    )

    def score(t: pa.Table) -> pa.Table:
        dfm = ray.get(vref)
        a = t["type_a"].to_pylist()
        b = t["type_b"].to_pylist()
        n_ab = t["n_users"].to_pylist()
        # the cooccurrence overflow marker cannot fire here (per-doc
        # distinct vocab words <= vocab_k == the cap) — but filter
        # defensively so a marker never KeyErrors the df lookup
        keep = [n >= min_pair and x in dfm and y in dfm
                for x, y, n in zip(a, b, n_ab)]
        pmi = [
            round(float(np.log(float(n) * n_docs / (dfm[x] * dfm[y]))), 6)
            if k else 0.0
            for x, y, n, k in zip(a, b, n_ab, keep)
        ]
        return pa.table({
            "word_a": pa.array(a, pa.string()),
            "word_b": pa.array(b, pa.string()),
            "n_ab": pa.array(n_ab, pa.int64()),
            "pmi": pa.array(pmi, pa.float64()),
        }).filter(pa.array(keep, pa.bool_()))

    scored = pairs.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True)

    def final_topk(t: pa.Table) -> pa.Table:
        return t.sort_by([("pmi", "descending"), ("word_a", "ascending"),
                          ("word_b", "ascending")]).slice(0, top_pairs)

    # one task: the final top-k sees every scored pair
    return scored.repartition(1).map_batches(
        final_topk, batch_format="pyarrow", batch_size=None)


def vocab_stats(ds, *, col: str = "text", lang_col: str = "lang"):
    """Corpus-level vocabulary profile per language: total token
    occurrences, distinct types, hapax legomena (corpus frequency
    exactly 1), plus type-token ratio and hapax share as half-up e6
    integers — the Zipf-tail health check a tokenizer/mixture decision
    wants (a language whose hapax share explodes is OCR noise or
    boilerplate soup; a collapsing TTR means dedup missed a template).

    Scale shape: per-batch (lang, word) count partials collapse each
    batch to its distinct pairs before ONE (lang, word) groupby — the
    only vocabulary-sized shuffle; after it every (lang, word) row is
    globally unique, so per-block per-lang partials (sum/count/hapax
    count) sum exactly into a |langs|-row groupby. Null langs and empty
    tokens are excluded on both sides (oracle parity with DuckDB
    ``string_split_regex``). Ratios are exact half-up integer math:
    ``(2e6*x + d) // (2d)``."""

    def lang_words(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[lang_col]))
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        return pa.table({
            lang_col: t[lang_col].combine_chunks().take(parent),
            "word": flat,
        }).filter(pc.not_equal(flat, ""))

    totals = bucket_combine(
        ds.map_batches(lang_words, batch_format="pyarrow",
                       zero_copy_batch=True),
        [lang_col, "word"], {"n": ("word", "count_all")})

    def hapax(t: pa.Table) -> pa.Table:
        return t.append_column("hapax", pc.cast(pc.equal(t["n"], 1), pa.int64()))

    folded = bucket_combine(
        totals.map_batches(hapax, batch_format="pyarrow", zero_copy_batch=True),
        lang_col, {"n_tokens": ("n", "sum"), "n_types": ("n", "count_all"),
                   "n_hapax": ("hapax", "sum")})

    def final(t: pa.Table) -> pa.Table:
        tok = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        typ = t["n_types"].to_numpy(zero_copy_only=False).astype(np.int64)
        hap = t["n_hapax"].to_numpy(zero_copy_only=False).astype(np.int64)
        ttr = (2_000_000 * typ + tok) // (2 * tok)
        hshare = (2_000_000 * hap + typ) // (2 * typ)
        return pa.table({
            lang_col: t[lang_col],
            "n_tokens": pa.array(tok, pa.int64()),
            "n_types": pa.array(typ, pa.int64()),
            "n_hapax": pa.array(hap, pa.int64()),
            "ttr_e6": pa.array(ttr, pa.int64()),
            "hapax_e6": pa.array(hshare, pa.int64()),
        })

    return folded.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


def doc_novelty(ds, *, col: str = "text", id_col: str = "doc_id",
                k: int = 3):
    """Per-document novelty score: the share of a document's distinct
    word ``k``-grams that appear in NO other document (corpus document
    frequency exactly 1), as a half-up e6 integer — high novelty marks
    original content worth upsampling; near-zero novelty marks template
    spam the dedup family should have caught. Documents with fewer than
    ``k`` words emit no row (no grams, ratio undefined) — oracle
    matches.

    Scale shape: gram construction is one vectorized pass per batch
    (Arrow split/flatten + numpy object-concat over the flat word array
    with doc-boundary masking — no per-row Python loop); a document's
    row is atomic to one batch, so in-batch per-doc distinct == global
    per-doc distinct. The only corpus-sized exchange is the gram-keyed
    groupby for document frequency; novel grams carry their single
    owner doc_id out of that groupby for free (``min(doc_id)`` of a
    df==1 gram IS the owner), so no text-to-gram join is ever needed.
    The final (doc_id) groupby folds |docs|-sized partial rows."""

    def grams_partial(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [(id_col, pa.int64()), ("g", pa.string())]
        ).empty_table()
        if t.num_rows == 0:
            return empty
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        keep = pc.not_equal(flat, "")
        w = flat.filter(keep).to_numpy(zero_copy_only=False)
        p = parent.filter(keep).to_numpy(zero_copy_only=False)
        m = len(w) - k + 1
        if m <= 0:
            return empty
        ok = np.ones(m, bool)
        g = w[:m].astype(object)
        for j in range(1, k):
            ok &= p[:m] == p[j:m + j]
            g = g + " " + w[j:m + j]
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        tri = pa.table({
            id_col: pa.array(ids[p[:m][ok]], pa.int64()),
            "g": pa.array(g[ok], pa.string()),
        })
        return tri.group_by([id_col, "g"]).aggregate([])

    grams = ds.map_batches(grams_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    totals = bucket_combine(grams, id_col, {"n_grams": ("g", "count_all")})
    dfreq = bucket_combine(grams, "g", {"df": ("g", "count_all"),
                                        "owner": (id_col, "min")})

    def as_tot(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "n_grams": t["n_grams"],
            "n_novel": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
        })

    def as_nov(t: pa.Table) -> pa.Table:
        # one row per novel gram, credited to its single owner doc
        hit = t.filter(pc.equal(t["df"], 1))
        return pa.table({
            id_col: pc.cast(hit["owner"], pa.int64()),
            "n_grams": pa.array(np.zeros(hit.num_rows, np.int64), pa.int64()),
            "n_novel": pa.array(np.ones(hit.num_rows, np.int64), pa.int64()),
        })

    merged = bucket_combine(
        totals.map_batches(as_tot, batch_format="pyarrow",
                           zero_copy_batch=True)
        .union(dfreq.map_batches(as_nov, batch_format="pyarrow",
                                 zero_copy_batch=True)),
        id_col, {"n_grams": ("n_grams", "sum"), "n_novel": ("n_novel", "sum")})

    def final(t: pa.Table) -> pa.Table:
        ng = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.int64)
        nv = t["n_novel"].to_numpy(zero_copy_only=False).astype(np.int64)
        e6 = (2_000_000 * nv + ng) // (2 * ng)
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "n_grams": pa.array(ng, pa.int64()),
            "n_novel": pa.array(nv, pa.int64()),
            "novelty_e6": pa.array(e6, pa.int64()),
        })

    return merged.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


def word_pagerank(ds, *, col: str = "text", id_col: str = "doc_id",
                  vocab_k: int = 30, iters: int = 5,
                  damping_pct: int = 85) -> pa.Table:
    """Weighted PageRank over the document-co-occurrence graph of the
    ``vocab_k`` most document-frequent words — the centrality profile
    of a corpus's topical core (a word with high PageRank co-occurs
    with *other* well-connected words, not merely often). Runs a FIXED
    ``iters`` power iterations in exact e6 integer arithmetic (floor
    division at every step), so the DuckDB oracle — the same five
    iterations unrolled as CTEs over HUGEINTs — agrees bit-for-bit;
    no float summation order can drift.

    pr_0(v) = 1e6 // n;  pr_{i+1}(v) =
    (1e6 - d_e6) // n + (d_pct * sum_u floor(pr_i(u) * w(u,v) /
    out_w(u))) // 100, with out_w(u) the weighted degree.

    Scale shape: document frequencies and the co-occurrence triangle
    are the distributed part (same de-skewed plan as ``word_pmi_top``:
    per-batch df partials, per-block local top-k vocab with a bounded
    merge, ``event_type_cooccurrence`` doc-bucket triangle capped at
    ``vocab_k`` types per doc). The graph itself is
    <= vocab_k*(vocab_k-1)/2 edges BY CONSTRUCTION, so the power
    iteration runs driver-side on a bounded table — the standard
    split for iterative algorithms over a reduced graph."""
    import ray

    from .window import OVERFLOW_TYPE, event_type_cooccurrence

    def df_partial(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        tri = pa.table({
            id_col: t[id_col].combine_chunks().take(parent),
            "word": flat,
        }).filter(pc.not_equal(flat, ""))
        agg = tri.group_by("word").aggregate([(id_col, "count_distinct")])
        return agg.rename_columns(["word", "df"])

    totals = bucket_combine(
        ds.map_batches(df_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "word", {"df": ("df", "sum")})

    def local_topk(t: pa.Table) -> pa.Table:
        return t.sort_by([("df", "descending"),
                          ("word", "ascending")]).slice(0, vocab_k)

    from ._fold import fold_table

    folded = fold_table(
        totals.map_batches(local_topk, batch_format="pyarrow")
    )
    vocab_rows = (
        list(zip(folded["word"].to_pylist(), folded["df"].to_pylist()))
        if folded is not None else []
    )
    vocab_rows.sort(key=lambda x: (-x[1], x[0]))
    vocab = sorted(w for w, _ in vocab_rows[:vocab_k])
    if not vocab:
        return pa.table({"word": pa.array([], pa.string()),
                         "pr_e6": pa.array([], pa.int64())})
    vref = ray.put(vocab)

    def restrict(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.fill_null(t[col].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        keep = pc.is_in(flat, value_set=pa.array(ray.get(vref)))
        return pa.table({
            id_col: t[id_col].combine_chunks().take(parent),
            "word": flat,
        }).filter(keep)

    pairs = fold_table(event_type_cooccurrence(
        ds.map_batches(restrict, batch_format="pyarrow",
                       zero_copy_batch=True),
        key_col=id_col, type_col="word",
        max_types_per_key=vocab_k,
    ))

    idx = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)
    edges: list[tuple[int, int, int]] = []
    if pairs is not None:
        for a, b, w in zip(pairs["type_a"].to_pylist(),
                           pairs["type_b"].to_pylist(),
                           pairs["n_users"].to_pylist()):
            # the cap equals the per-doc vocab bound, so the overflow
            # marker cannot fire; guard anyway
            if a == OVERFLOW_TYPE or b == OVERFLOW_TYPE:
                continue
            edges.append((idx[a], idx[b], int(w)))
    out_w = [0] * n
    for a, b, w in edges:
        out_w[a] += w
        out_w[b] += w

    base = (1_000_000 - damping_pct * 10_000) // n
    pr = [1_000_000 // n] * n
    for _ in range(iters):
        contrib = [0] * n
        for a, b, w in edges:
            contrib[b] += pr[a] * w // out_w[a]
            contrib[a] += pr[b] * w // out_w[b]
        pr = [base + (damping_pct * c) // 100 for c in contrib]

    return pa.table({
        "word": pa.array(vocab, pa.string()),
        "pr_e6": pa.array(pr, pa.int64()),
    })


def compression_ratio(ds, *, col: str = "text", id_col: str = "doc_id",
                      max_ratio_e6: int | None = None,
                      level: int = 6):
    """Per-document zlib compression ratio (compressed bytes /
    utf-8 bytes, half-up e6 int) — the RefinedWeb-style repetition
    signal: highly templated or repeated content compresses far below
    natural prose, and the ratio needs no tokenizer or model. With
    ``max_ratio_e6`` set, returns only docs AT/BELOW the threshold
    (the suspicious ones); otherwise every non-empty doc.

    No SQL analogue exists (DuckDB has no DEFLATE), so this op is
    property-pinned (monotonicity on repeated content, layout
    invariance, byte-exact recompute) rather than oracled — the one
    stage in the battery whose semantics ARE the codec. Per-doc
    ``zlib.compress`` is a Python call per row by necessity (no Arrow
    kernel); it is the decoder's shape: CPU-bound, stateless,
    embarrassingly parallel, and the emitted row is three ints."""
    import zlib

    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        s = t[col].combine_chunks()
        keep = pc.and_(pc.is_valid(s), pc.greater(pc.binary_length(s),
                                                  0))
        t2 = t.filter(keep)
        empty = pa.schema([
            (id_col, pa.int64()), ("n_bytes", pa.int64()),
            ("z_bytes", pa.int64()), ("ratio_e6", pa.int64()),
        ]).empty_table()
        if t2.num_rows == 0:
            return empty
        texts = t2[col].to_pylist()
        nb = np.empty(len(texts), np.int64)
        zb = np.empty(len(texts), np.int64)
        for i, txt in enumerate(texts):
            raw = txt.encode("utf-8")
            nb[i] = len(raw)
            zb[i] = len(zlib.compress(raw, level))
        ratio = (2_000_000 * zb + nb) // (2 * nb)
        out = pa.table({
            id_col: t2[id_col],
            "n_bytes": pa.array(nb, pa.int64()),
            "z_bytes": pa.array(zb, pa.int64()),
            "ratio_e6": pa.array(ratio, pa.int64()),
        })
        if max_ratio_e6 is not None:
            out = out.filter(pc.less_equal(out["ratio_e6"],
                                           max_ratio_e6))
        return out

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)
