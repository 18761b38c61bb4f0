"""Seeded HTML-page fixture for main-content extraction.

The base ``documents.parquet`` testdata is plain text, so an
HTML-extraction stage (the trafilatura / jusText slot every web-crawl
pipeline runs before any text filter — e.g. RefinedWeb, Penedo et al.
2023 §3.1) would have nothing to do. This companion table wraps every
document's text into a deterministic HTML page with exactly the
boilerplate the extractor exists to strip:

* ``<head>`` with ``<title>``, a ``<style>`` block and a ``<script>``
  block (script/style CONTENT must vanish, not just the tags),
* an HTML comment, a nav block, heading and footer boilerplate,
* inline markup splitting the body text (``<b>``/``<em>`` around the
  first words on ``doc_id % 3 == 0``),
* HTML entities: on ``doc_id % 4 == 0`` the literal word ``&amp;`` is
  inserted into the text (must decode to ``&``), and every page ends
  with a ``&copy;``-free footer so entity decode is exercised but the
  expected text stays derivable by the same public rules.

Everything is a pure function of the base table, written atomically to
the shared cache so the Ray pipeline and the DuckDB oracle read the
identical file.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from .image_table import cached


def html_documents(sf_dir: str) -> Path:
    """Generate (or reuse) the (doc_id, html) page table."""
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["doc_id", "text"])
        pages = []
        for doc_id, text in zip(base["doc_id"].to_pylist(),
                                base["text"].to_pylist()):
            body = text or ""
            if doc_id % 4 == 0:
                body = "save &amp; load " + body
            if doc_id % 3 == 0:
                words = body.split(" ", 2)
                if len(words) == 3:
                    body = f"<b>{words[0]}</b> <em>{words[1]}</em> {words[2]}"
            pages.append(
                "<!DOCTYPE html><html><head>"
                f"<title>Doc {doc_id}</title>"
                "<style>body { color: #333; } .nav { display: none; }</style>"
                f"<script>var docId = {doc_id}; if (docId > 1) {{ track(); }}"
                "</script></head><body>"
                "<!-- generated page -->"
                '<div class="nav"><a href="/">home</a> <a href="/about">about'
                "</a></div>"
                f"<h1>Document {doc_id}</h1>"
                f"<p>{body}</p>"
                "<div class=\"footer\">site footer</div>"
                "</body></html>"
            )

        pq.write_table(
            pa.table({"doc_id": base["doc_id"],
                      "html": pa.array(pages, pa.string())}),
            tmp,
        )

    return cached(f"html_docs_{tag}/html_documents.parquet", build)
