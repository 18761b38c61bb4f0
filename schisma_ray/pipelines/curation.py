"""End-to-end image curation — the image-side analogue of
``prepare_corpus``: one composable DAG from raw table to the curated
survivor set.

    validate (fused schema + decode + cross-field)
      -> quarantine every row with ANY violation (anti-join against
         the violation row refs, per hash bucket once they outgrow
         the driver fold)
      -> byte-exact dedup keep-first (md5-of-payload fingerprints, one
         fingerprint groupby; identical encoded files collapse)
      -> pHash near-dup survivors (banded Hamming pairs -> distributed
         components -> min-id keeper per group)

Every stage is an existing oracled primitive; the composite is oracled
end-to-end (catalog ``image_curation``) by chaining the same SQL
fragments. Scale shape: the quarantine anti-join and two bucketed
shuffle joins on narrow id sets, the fingerprint groupby, and the
banded pair chain — the corpus bytes are read once and never shuffled.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _non_null_ids(t: pa.Table) -> pa.Table:
    return t.filter(pc.is_valid(t["image_id"]))


def clean_image_ids(table_dir):
    """Quarantine split, clean side: Dataset of the non-null
    ``image_id`` values of rows with no violation of any check, by one
    anti-join of the id column against the violation row refs
    (``_bucket.semi_join``: broadcast while they fold on the driver,
    per hash bucket past that)."""
    from ..stages._bucket import semi_join
    from .validate_pipeline import read_images, validate_images

    vio_refs = validate_images(table_dir).map_batches(
        lambda t: pa.table({"image_id": t["row_ref"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return semi_join(read_images(table_dir, ["image_id"]), "image_id",
                     vio_refs, _non_null_ids, anti=True)


def curate_images(table_dir, *, max_hamming: int = 3,
                  inject_dup_every: int = 0):
    """-> Dataset of surviving ``image_id`` rows.

    ``inject_dup_every > 0`` unions a byte-identical twin (id + '-d',
    same bytes, same phash) of every Nth CLEAN row — by the numeric
    tail of its id — into the dedup stages; twins of valid rows are
    valid by construction, so the quarantine semantics are unchanged
    while the byte-dedup stage provably fires (the oracle injects the
    same twins)."""
    from ..stages.components import near_dedup_survivors
    from ..stages.dedup import (
        exact_dedup_keep_first,
        hamming_near_dup_pairs,
    )
    from ..stages.join import shuffle_hash_join
    from .validate_pipeline import read_images

    clean_ids = clean_image_ids(table_dir)

    # fingerprint AT THE READ: bytes never leave the read task (a
    # bytes-heavy block re-serializes its parent buffer on every
    # shuffle slice — the documented 20x trap); everything downstream
    # is the narrow (image_id, fingerprint, phash) projection
    from ..stages.dedup import payload_md5_hex

    def fingerprint_narrow(t: pa.Table) -> pa.Table:
        fps = payload_md5_hex(t["bytes"].to_pylist())
        return pa.table({
            "image_id": t["image_id"],
            "fingerprint": pa.array(fps, pa.string()),
            "phash": t["phash"],
        })

    narrow = read_images(table_dir, ["image_id", "bytes", "phash"]).map_batches(
        fingerprint_narrow, batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()  # bytes read + hashed exactly once

    clean = shuffle_hash_join(narrow, clean_ids, "image_id")

    if inject_dup_every > 0:
        n = inject_dup_every

        def twins(t: pa.Table) -> pa.Table:
            ids = t["image_id"].to_pylist()
            sel = pa.array([
                i is not None and int(i.rsplit("-", 1)[-1]) % n == 0
                for i in ids
            ])
            v = t.filter(sel)
            # byte-identical twin: the fingerprint IS identical by
            # construction, so no bytes are needed to build it
            return pa.table({
                "image_id": pc.binary_join_element_wise(
                    v["image_id"].combine_chunks(),
                    pa.array(["-d"] * len(v), pa.string()), ""),
                "fingerprint": v["fingerprint"],
                "phash": v["phash"],
            })

        proj = clean.map_batches(
            lambda t: t.select(["image_id", "fingerprint", "phash"]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        clean = proj.union(proj.map_batches(
            twins, batch_format="pyarrow", zero_copy_batch=True,
        ))

    fps = clean.map_batches(
        lambda t: t.filter(pc.is_valid(t["fingerprint"])),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()  # consumed by keep-first and the join
    keepers = exact_dedup_keep_first(fps, key="fingerprint", id_col="image_id")
    kept = shuffle_hash_join(fps, keepers, "image_id")

    sigs = kept.map_batches(
        lambda t: pa.table({
            "image_id": t["image_id"], "phash": t["phash"],
        }).filter(pc.and_(pc.is_valid(t["image_id"]),
                          pc.is_valid(t["phash"]))),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()  # pair generation + survivors both consume it
    pairs = hamming_near_dup_pairs(
        sigs, sig_col="phash", id_col="image_id", max_hamming=max_hamming
    )
    return near_dedup_survivors(sigs, pairs, "image_id")
