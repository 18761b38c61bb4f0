"""Seeded URL fixture for domain-blocklist filtering (the CCNet /
RefinedWeb URL-filter stage — Wenzek et al. 2020; Penedo et al. 2023
§3.1 use curated blocklists like UT1 to drop documents by source
domain before any content filter runs).

The base documents table has no URLs, so this companion table derives
one deterministic URL per document, planting the defects the filter
exists to catch:

* ``doc_id % 13 == 0`` — host IS a blocked domain (``badhostK.com``),
* ``doc_id % 17 == 0`` — host is a SUBDOMAIN of a blocked domain
  (``cdn.trackerK.net``) — the suffix-match case,
* everything else — a clean ``wwwN.siteM.TLD`` host.

``blocklist_file`` writes the blocklist itself as a parquet artifact so
the Ray stage (broadcast set) and the DuckDB oracle (EXISTS join) read
the identical list. Both are pure functions of the base table,
atomically cached.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from .image_table import cached

BLOCKED_DOMAINS = tuple(
    [f"badhost{k}.com" for k in range(5)]
    + [f"tracker{k}.net" for k in range(3)]
    + ["phish.example"]
)

_TLDS = ("com", "org", "net", "io")


def blocklist_file(sf_dir: str) -> Path:
    """Persist the (domain) blocklist parquet consumed by both sides."""
    def build(tmp: Path) -> None:
        pq.write_table(
            pa.table({"domain": pa.array(sorted(BLOCKED_DOMAINS), pa.string())}),
            tmp,
        )

    return cached("url_blocklist_v1/blocklist.parquet", build)


def url_documents(sf_dir: str) -> Path:
    """Generate (or reuse) the (doc_id, url) table; returns the path."""
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["doc_id"])
        urls = []
        for doc_id in base["doc_id"].to_pylist():
            if doc_id % 13 == 0:
                host = f"badhost{doc_id % 5}.com"
            elif doc_id % 17 == 0:
                host = f"cdn.tracker{doc_id % 3}.net"
            else:
                host = f"www{doc_id % 3}.site{doc_id % 37}.{_TLDS[doc_id % 4]}"
            urls.append(f"https://{host}/path{doc_id % 7}/page?id={doc_id}")

        pq.write_table(
            pa.table({"doc_id": base["doc_id"],
                      "url": pa.array(urls, pa.string())}),
            tmp,
        )

    return cached(f"url_docs_{tag}/url_documents.parquet", build)
