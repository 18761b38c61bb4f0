"""Seeded near-duplicate embedding fixture.

The base ``embeddings.parquet`` testdata has no pairs above ~0.52
cosine (measured), so an unseeded near-dup query passes vacuously with
0 rows. This companion table makes the check falsifiable: the base
vectors plus ``n_planted`` perturbed copies (cosine >= 0.999 to their
source) under fresh vec_ids. Everything is a pure function of
(base table, seed); written atomically to the shared cache so the Ray
pipeline and the DuckDB oracle read the identical file.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .image_table import cached


def seeded_near_dup_embeddings(sf_dir: str, *, n_planted: int = 16,
                               eps: float = 0.02, seed: int = 99) -> Path:
    """Generate (or reuse) the seeded table; returns the parquet path."""
    base_path = Path(sf_dir) / "embeddings.parquet"
    base = pq.read_table(base_path)
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        vec_ids = base["vec_id"].to_pylist()
        order = np.argsort(vec_ids)[:n_planted]
        max_id = max(vec_ids)
        rng = np.random.default_rng([seed, base.num_rows])

        new_ids, new_vecs, new_labels = [], [], []
        labels = base["label"].to_pylist() if "label" in base.column_names else None
        for k, idx in enumerate(order):
            v = np.asarray(base["embedding"][int(idx)].as_py(), dtype=np.float64)
            noise = rng.standard_normal(len(v))
            v2 = v + eps * np.linalg.norm(v) * noise / np.linalg.norm(noise)
            new_ids.append(max_id + 1 + k)
            new_vecs.append(v2.astype(np.float32).tolist())
            new_labels.append(labels[int(idx)] if labels is not None else 0)

        planted = pa.table(
            {
                "vec_id": pa.array(new_ids, pa.int64()),
                "embedding": pa.array(new_vecs, pa.list_(pa.float32())),
                "label": pa.array(new_labels, pa.int32()),
            }
        )
        base_cast = pa.table(
            {
                "vec_id": base["vec_id"],
                "embedding": base["embedding"].combine_chunks().cast(pa.list_(pa.float32())),
                "label": base["label"] if labels is not None else pa.array([0] * base.num_rows, pa.int32()),
            }
        )
        merged = pa.concat_tables([base_cast, planted])
        pq.write_table(merged, tmp)

    return cached(f"emb_seeded_{tag}_p{n_planted}_s{seed}/embeddings_seeded.parquet", build)


def corrupt_embeddings(sf_dir: str) -> Path:
    """Embedding table with planted vector-validity anomalies — the
    falsifiable input for the NaN/Inf/zero-norm/null-element/length
    checks (the base table is fully clean, so an unseeded validity
    query passes vacuously). One anomaly class per row, first matching
    index rule wins; everything is a pure function of the base table
    and atomically cached so Ray + DuckDB read the same file:

    - ``i % 97 == 3``  -> NaN at element ``i % dim``
    - ``i % 89 == 5``  -> +inf at element ``i % dim``
    - ``i % 83 == 7``  -> -inf at element ``i % dim``
    - ``i % 79 == 11`` -> all-zero vector
    - ``i % 73 == 13`` -> null element at ``i % dim``
    - ``i % 71 == 17`` -> truncated to 3 elements
    """
    base_path = Path(sf_dir) / "embeddings.parquet"
    base = pq.read_table(base_path)
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        vecs = []
        for i, v in enumerate(base["embedding"].to_pylist()):
            v = [np.float32(x) for x in v]
            dim = len(v)
            if i % 97 == 3:
                v[i % dim] = np.float32("nan")
            elif i % 89 == 5:
                v[i % dim] = np.float32("inf")
            elif i % 83 == 7:
                v[i % dim] = np.float32("-inf")
            elif i % 79 == 11:
                v = [np.float32(0.0)] * dim
            elif i % 73 == 13:
                v[i % dim] = None
            elif i % 71 == 17:
                v = v[:3]
            vecs.append(v)

        tbl = pa.table(
            {
                "vec_id": base["vec_id"],
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
            }
        )
        pq.write_table(tbl, tmp)

    return cached(f"emb_corrupt_{tag}_v1/embeddings_corrupt.parquet", build)


def paired_caption_embeddings(sf_dir: str, *, mismatch_every: int = 4,
                              eps: float = 0.15, seed: int = 41) -> Path:
    """Image/caption embedding pairs for CLIP-score-style alignment
    filtering: caption vectors are small perturbations of their image
    vector (aligned, high cosine), except every ``mismatch_every``-th
    pair whose caption embedding is an unrelated random vector (the
    mis-captioned rows the filter exists to drop). Pure function of
    (base table, seed); atomically cached for Ray + DuckDB parity."""
    base_path = Path(sf_dir) / "embeddings.parquet"
    base = pq.read_table(base_path)
    tag = hashlib.md5(base_path.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        rng = np.random.default_rng([seed, base.num_rows])
        img_vecs, cap_vecs = [], []
        for i, v in enumerate(base["embedding"].to_pylist()):
            v = np.asarray(v, dtype=np.float64)
            if i % mismatch_every == 0:
                cap = rng.standard_normal(len(v))
            else:
                noise = rng.standard_normal(len(v))
                cap = v + eps * np.linalg.norm(v) * noise / np.linalg.norm(noise)
            img_vecs.append(v.astype(np.float32).tolist())
            cap_vecs.append(cap.astype(np.float32).tolist())

        tbl = pa.table(
            {
                "pair_id": base["vec_id"],
                "img_emb": pa.array(img_vecs, pa.list_(pa.float32())),
                "cap_emb": pa.array(cap_vecs, pa.list_(pa.float32())),
            }
        )
        pq.write_table(tbl, tmp)

    return cached((
        f"pair_emb_{tag}_m{mismatch_every}_s{seed}"
        f"_e{int(round(eps * 10000))}"
        "/paired_embeddings.parquet"
    ), build)
