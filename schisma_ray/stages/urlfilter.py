"""Domain-blocklist URL filtering (the CCNet / RefinedWeb URL-filter
stage: drop documents whose source host is a blocked domain or any
subdomain of one — UT1-blocklist semantics).

The blocklist is model-sized by nature (UT1 is a few million domains,
MBs as a hash set), so it broadcasts once via ``ray.put`` and every
batch does vectorized work only: one RE2 host extraction, then at most
``max_depth`` successive leading-label strips, each probed with
``pc.is_in`` against the broadcast set — never a per-row Python loop
and never a shuffle. At 100 TB this stage stays embarrassingly
parallel; the blocklist ships once through the object store.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._bucket import bucket_apply

_HOST_RE = r"^[a-z][a-z0-9+.-]*://([^/?#]+)"


def host_of(urls):
    """Vectorized host extraction: the authority part after the scheme
    (RE2; ports/userinfo are kept — blocklists that need them list
    them). Nulls and scheme-less strings yield null."""
    urls = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls
    ex = pc.extract_regex(urls, _HOST_RE.replace("(", "(?P<h>", 1))
    return pc.struct_field(ex, "h")


def url_blocklist(ds, blocked, *, url_col: str = "url",
                  id_col: str = "doc_id", max_depth: int = 127):
    """(id, host, blocked): every row tagged with its extracted host
    and whether the host equals — or is ANY-depth subdomain of — a
    blocklist entry. Every proper suffix of the host is probed (one
    leading-label strip + ``is_in`` per level, stopping as soon as no
    host in the batch has a dot left); ``max_depth`` is only the DNS
    253-byte sanity cap, not a semantic bound."""
    import ray

    if not isinstance(blocked, (set, frozenset)):
        blocked = frozenset(blocked)
    blocked_ref = ray.put(pa.array(sorted(blocked), pa.string()))

    def fn(batch: pa.Table) -> pa.Table:
        bl = ray.get(blocked_ref)
        host = host_of(batch[url_col])
        probe = pc.fill_null(host, "")
        hit = pc.is_in(probe, value_set=bl)
        for _ in range(max_depth - 1):
            # nothing left to strip anywhere -> done
            if not pc.any(pc.match_substring(probe, ".")).as_py():
                break
            probe = pc.replace_substring_regex(
                probe, r"^[^.]*\.", "", max_replacements=1
            )
            hit = pc.or_(hit, pc.is_in(probe, value_set=bl))
        return pa.table(
            {id_col: batch[id_col], "host": host, "blocked": hit}
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------ canonical dedup
#: applied in order; each is (RE2 pattern, replacement). RE2 is the
#: regex engine on BOTH sides (pyarrow replace_substring_regex and
#: DuckDB regexp_replace), so the canonical form is parity-exact.
CANONICAL_RULES = (
    (r"^[a-z][a-z0-9+.-]*://", ""),  # scheme
    (r"^www[0-9]*\.", ""),           # leading www / www2 label
    (r"#.*$", ""),                   # fragment (before query: # may hide ?)
    (r"\?.*$", ""),                  # query string (tracking params)
    (r"/+$", ""),                    # trailing slashes
)


def canonicalize_urls(urls) -> pa.Array:
    """Vectorized URL canonical form: lower-case, then the
    ``CANONICAL_RULES`` strip chain. A production canonicalizer would
    strip only known tracking parameters instead of the whole query;
    the rule table is the knob."""
    urls = urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls
    out = pc.utf8_lower(urls)
    for pat, rep in CANONICAL_RULES:
        out = pc.replace_substring_regex(out, pat, rep)
    return out


def url_canonical_dups(ds, *, url_col: str = "url", id_col: str = "doc_id",
                       num_buckets: int = 32):
    """(id, canon_url, group_size) for every row whose CANONICAL url is
    shared with at least one other row — duplicate detection that exact
    byte-equality misses (scheme/www/fragment/tracking-param variants
    of the same page).

    Scale shape: one vectorized canonicalize pass, then ONE
    canonical-hash bucket shuffle; within a bucket a pandas
    ``transform('size')`` computes exact global group sizes (hash
    routes all equal canons to one bucket, equality decides — the
    line_dedup contract). No driver folds, no pair explosion."""

    def canon(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch[id_col],
                         "canon_url": canonicalize_urls(batch[url_col])})

    def dups(t: pa.Table) -> pd.DataFrame:
        group = t.to_pandas()
        group["group_size"] = group.groupby("canon_url")["canon_url"].transform("size")
        return group[group["group_size"] > 1]

    return bucket_apply(
        ds.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True),
        "canon_url", dups, num_buckets=num_buckets,
        schema={id_col: id_col, "canon_url": pa.string(),
                "group_size": pa.int64()})
