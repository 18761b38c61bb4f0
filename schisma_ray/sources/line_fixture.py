"""Seeded multi-line document fixture for line-level (paragraph) dedup.

The base ``documents.parquet`` testdata is single-line word streams, so
a CCNet-style line dedup would pass vacuously. This companion table
rewraps every document into newline-separated lines of
``words_per_line`` words and deterministically plants the defects the
operator exists to remove (the boilerplate motivation of CCNet,
Wenzek et al. 2020, arXiv:1911.00359):

* a shared HEADER line on every ``doc_id % 5 == 0`` document,
* a shared FOOTER line on every ``doc_id % 7 == 0`` document,
* an intra-document repeat (line 1 := line 0) on ``doc_id % 11 == 0``.

Everything is a pure function of the base table; written atomically to
the shared cache so the Ray pipeline and the DuckDB oracle read the
identical file.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from .image_table import cached

HEADER = "cookie notice please accept our terms of service"
FOOTER = "copyright example-crawler all rights reserved"


def c4_documents(sf_dir: str, *, words_per_line: int = 8) -> Path:
    """Fixture for the C4 cleaning rules (Raffel et al. 2020 §2.2):
    line-wrapped documents with a deterministic punctuation suffix on
    ~80% of lines (period/bang/question/end-quote by
    ``(doc_id * 31 + pos) % 5``; the remainder unpunctuated) plus the
    planted page/line defects the filters exist to remove:

    * ``doc_id % 17 == 0`` — a "lorem ipsum dolor sit amet." line,
    * ``doc_id % 19 == 0`` — a line containing a curly brace,
    * ``doc_id % 23 == 0`` — an "enable javascript ..." line.
    """
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        suffixes = [".", "!", "?", '"', ""]
        base = pq.read_table(base_path, columns=["doc_id", "text", "lang", "source"])
        out_texts = []
        for doc_id, text in zip(base["doc_id"].to_pylist(), base["text"].to_pylist()):
            words = text.split()
            lines = [
                " ".join(words[i:i + words_per_line])
                for i in range(0, len(words), words_per_line)
            ]
            if not lines:
                lines = [""]
            lines = [
                ln + suffixes[(doc_id * 31 + pos) % 5]
                for pos, ln in enumerate(lines)
            ]
            if doc_id % 17 == 0:
                lines.insert(len(lines) // 2, "lorem ipsum dolor sit amet.")
            if doc_id % 19 == 0:
                lines.insert(0, "window.dataLayer = { push: true }.")
            if doc_id % 23 == 0:
                lines.append("please enable javascript to view this page.")
            out_texts.append("\n".join(lines))

        tbl = pa.table(
            {
                "doc_id": base["doc_id"],
                "text": pa.array(out_texts, pa.string()),
                "lang": base["lang"],
                "source": base["source"],
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"c4_docs_{tag}_w{words_per_line}/c4_documents.parquet", build)


def format_documents(sf_dir: str, *, words_per_line: int = 8) -> Path:
    """Fixture for the Gopher FORMAT rules (Rae et al. 2021 A1.1):
    line-wrapped documents with the deterministic defects each rule
    exists to reject:

    * ``doc_id % 7 == 0`` — every line bullet-prefixed (``- ``),
    * ``doc_id % 13 == 0`` — every even line ends with ``...``,
    * ``doc_id % 5 == 0`` — a pure ``#`` symbol line appended,
    * ``doc_id % 29 == 0`` — all words digit-only (no alphabetic).
    """
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["doc_id", "text", "lang", "source"])
        out_texts = []
        for doc_id, text in zip(base["doc_id"].to_pylist(), base["text"].to_pylist()):
            words = (text or "").split()
            if doc_id % 29 == 0:
                words = [str(doc_id * 31 + j) for j in range(len(words))]
            lines = [
                " ".join(words[i:i + words_per_line])
                for i in range(0, len(words), words_per_line)
            ]
            if not lines:
                lines = [""]
            if doc_id % 13 == 0:
                lines = [
                    ln + "..." if pos % 2 == 0 else ln
                    for pos, ln in enumerate(lines)
                ]
            if doc_id % 7 == 0:
                lines = ["- " + ln for ln in lines]
            if doc_id % 5 == 0:
                lines.append("# " * 13 + "#")
            out_texts.append("\n".join(lines))

        tbl = pa.table(
            {
                "doc_id": base["doc_id"],
                "text": pa.array(out_texts, pa.string()),
                "lang": base["lang"],
                "source": base["source"],
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"format_docs_{tag}_w{words_per_line}/format_documents.parquet", build)


def hygiene_documents(sf_dir: str) -> Path:
    """Fixture for the encoding-hygiene screen (mojibake / control
    characters — the decode-corruption defects real crawls carry):

    * ``doc_id % 13 == 0`` — two U+FFFD replacement characters spliced
      mid-text (the classic mojibake signature of a botched decode),
    * ``doc_id % 17 == 0`` — a BEL (\\x07) and an ESC (\\x1b) control
      character spliced in (terminal-junk / binary-leak signature).

    Everything is a pure function of the base table, atomically cached
    so the Ray pipeline and the DuckDB oracle read the identical file.
    """
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["doc_id", "text", "lang", "source"])
        out_texts = []
        for doc_id, text in zip(base["doc_id"].to_pylist(), base["text"].to_pylist()):
            t = text or ""
            mid = len(t) // 2
            if doc_id % 13 == 0:
                t = t[:mid] + "��" + t[mid:]
            if doc_id % 17 == 0:
                third = len(t) // 3
                t = t[:third] + "\x07" + t[third:] + "\x1b"
            out_texts.append(t)

        tbl = pa.table(
            {
                "doc_id": base["doc_id"],
                "text": pa.array(out_texts, pa.string()),
                "lang": base["lang"],
                "source": base["source"],
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"hygiene_docs_{tag}_v1/hygiene_documents.parquet", build)


def line_documents(sf_dir: str, *, words_per_line: int = 8) -> Path:
    """Generate (or reuse) the line-wrapped table; returns the parquet path."""
    base_path = Path(sf_dir) / "documents.parquet"
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        base = pq.read_table(base_path, columns=["doc_id", "text", "lang", "source"])
        doc_ids = base["doc_id"].to_pylist()
        texts = base["text"].to_pylist()
        out_texts = []
        for doc_id, text in zip(doc_ids, texts):
            words = text.split()
            lines = [
                " ".join(words[i:i + words_per_line])
                for i in range(0, len(words), words_per_line)
            ]
            if not lines:
                lines = [""]
            if doc_id % 11 == 0 and len(lines) >= 2:
                lines[1] = lines[0]
            if doc_id % 5 == 0:
                lines.insert(0, HEADER)
            if doc_id % 7 == 0:
                lines.append(FOOTER)
            out_texts.append("\n".join(lines))

        tbl = pa.table(
            {
                "doc_id": base["doc_id"],
                "text": pa.array(out_texts, pa.string()),
                "lang": base["lang"],
                "source": base["source"],
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"line_docs_{tag}_w{words_per_line}/line_documents.parquet", build)
