"""Query catalog: every operator exposed through the driver contract.

Each query is one ``q_<name>`` function of ``sf_dir`` (a Ray Data
pipeline); ``QUERIES`` is derived from them, and ``ALIASES`` names the
queries that share another's code or oracle. Most queries also have an
ANSI-SQL oracle template (``_SQL``) that DuckDB runs to reproduce them
bit-for-bit on the same parquet inputs, column names included (the
check hashes values under sorted column names). Queries without a
SQL-expressible semantics (decoding, sketches, heuristics) carry no
oracle and get a rows-only check.

``oracle(name, sf_dir)`` renders one template for any scale: each
``{placeholder}`` names a generated fixture (the image+caption table of
sources/image_table.py, a seeded companion table, a model artifact),
and rendering generates only the fixtures it names.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc  # noqa: F401 — closures shipped to workers rely on it
import ray.data as rd

from ..schema import BigInt, String
from ..sources import (
    brightness_fixture,
    embedding_fixture,
    fidelity_fixture,
    html_fixture,
    image_table,
    line_fixture,
    struct_fixture,
    url_fixture,
)
from ..stages import ColumnSpec, TableSchema, in_set, not_empty, range_check
from ..stages._bucket import bucket_combine, fold_combine
from ..stages._fold import fold_column, fold_table
from ..stages.conform import TableConformer
from ..stages.dedup import (
    content_fingerprint,
    exact_dedup_keep_first,
    minhash_dedup_pairs,
    simhash_dup_pairs,
)
from ..stages.referential import referential_violations
from ..stages.similarity import ann_ivf, ann_lsh, cosine_near_dup_pairs, knn_brute_force
from ..stages.stats import HLL, ValueCounts, categorical_drift, numeric_stats
from ..stages.text import (
    bpe_token_counts,
    lang_id,
    quality_score,
    text_metrics,
    token_count_by_lang,
)
from ..stages.uniqueness import uniqueness_violations
from ..stages.validate import TableValidator
from .validate_pipeline import (
    LIGHT_COLUMNS,
    image_table_schema,
    read_images,
    validate_images,
)

#: the scale ``oracle_sql()`` renders for
ORACLE_SF_DIR = "/root/testdata/sf0.01"
DOC_LANGS = ["de", "en", "es", "fr", "zh"]

_VIO_COLS = ["row_ref", "path", "code", "expected", "received"]


def _img_dir(sf_dir: str) -> Path:
    return image_table.generate_for_sf(sf_dir)


def _ref_ids(sf_dir: str) -> str:
    return str(_img_dir(sf_dir) / "reference_ids.parquet")


def _t(sf_dir: str, name: str):
    return rd.read_parquet(f"{sf_dir}/{name}.parquet")


def _project_violations(ds):
    return ds.map_batches(
        lambda t: t.select(_VIO_COLS), batch_format="pyarrow", zero_copy_batch=True
    )


def _collect(ds, columns: list[str]) -> pa.Table:
    """Materialize a small result with a guaranteed schema even when empty
    (an empty Dataset loses its schema through to_pandas)."""
    folded = fold_table(ds)
    if folded is None:
        return pa.schema([(c, pa.string()) for c in columns]).empty_table()
    return folded


# ------------------------------------------------------------------ image
def q_image_schema_violations(sf_dir: str):
    ts = image_table_schema().subset(LIGHT_COLUMNS)
    ds = read_images(_img_dir(sf_dir), LIGHT_COLUMNS)
    vio = ds.map_batches(TableValidator(ts), batch_format="pyarrow", zero_copy_batch=True)
    return _project_violations(vio)


def q_image_decode_violations(sf_dir: str):
    from ..stages.decoder import DecodeValidator

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes", "w", "h", "fmt"])
    vio = ds.map_batches(
        DecodeValidator(), batch_format="pyarrow", zero_copy_batch=True
    )
    return _project_violations(vio)


def q_image_validate_full(sf_dir: str):
    return _project_violations(validate_images(_img_dir(sf_dir)))


def q_image_phash_duplicates(sf_dir: str):
    ds = read_images(_img_dir(sf_dir), ["image_id", "phash"])
    vio = uniqueness_violations(ds, "phash", id_column="image_id")
    return vio.map_batches(
        lambda t: t.select(["row_ref", "path", "code", "expected"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _phash_sigs(sf_dir: str):
    """Materialized (image_id, phash) rows with both columns valid — the
    shared signature input for the phash near-dup queries."""
    import pyarrow.compute as pc

    ds = read_images(_img_dir(sf_dir), ["image_id", "phash"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.is_valid(t["image_id"].combine_chunks()),
                pc.is_valid(t["phash"].combine_chunks()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()


def q_image_phash_near_dups(sf_dir: str):
    """NEAR-duplicate images by perceptual-hash Hamming distance <= 3:
    4 x 16-bit banding over the stored phash column + exact
    bit_count(xor) verify — the generalized SimHash machinery
    (stages/dedup.hamming_near_dup_pairs) applied to a stored 64-bit
    signature. Fully SQL-oracled (no artifacts: phash is in the table).
    """
    from ..stages.dedup import hamming_near_dup_pairs

    sigs = _phash_sigs(sf_dir)
    return hamming_near_dup_pairs(
        sigs, sig_col="phash", id_col="image_id", max_hamming=3
    )


def q_image_near_dedup_survivors(sf_dir: str):
    """Image-side dedup flagship composite: phash Hamming pairs ->
    connected components -> surviving image_ids (every valid id minus
    non-keeper group members; keeper = lexicographic-min id). Oracled
    end-to-end with a recursive-CTE min-label in SQL."""
    from ..stages.components import near_dedup_survivors
    from ..stages.dedup import hamming_near_dup_pairs

    sigs = _phash_sigs(sf_dir)
    pairs = hamming_near_dup_pairs(
        sigs, sig_col="phash", id_col="image_id", max_hamming=3
    )
    return _collect(
        near_dedup_survivors(sigs, pairs, "image_id"),
        ["image_id"],
    )


def q_image_referential_orphans(sf_dir: str):
    ref = rd.read_parquet(_ref_ids(sf_dir))
    ids = read_images(_img_dir(sf_dir), ["image_id"])
    return _project_violations(
        referential_violations(ids, "image_id", ref)
    )


def q_image_stats(sf_dir: str):
    ds = read_images(_img_dir(sf_dir), ["w", "h", "phash"])
    stats = numeric_stats(ds, ["w", "h", "phash"], distinct=False,
                          std_columns=["w", "h"])
    rows = []
    for c in ["w", "h", "phash"]:
        st = stats[c]
        rows.append(
            {
                "column": c,
                "n_rows": int(st["count"]),
                "n_nulls": int(st["nulls"]),
                "min_v": float(st["min"]),
                "max_v": float(st["max"]),
                # int64 means overflow a 64-bit sum and are meaningless for
                # hashes; report mean/std for the dimension columns only
                "mean_v": round(float(st["mean"]), 6) if c != "phash" else None,
                "std_v": round(float(st.get("std", 0.0)), 6) if c != "phash" else None,
            }
        )
    return pd.DataFrame(rows)


def q_image_fmt_counts(sf_dir: str):
    ds = read_images(_img_dir(sf_dir), ["fmt"])
    counts = ds.aggregate(ValueCounts("fmt", alias_name="vc"))["vc"]
    rows = [{"fmt": k, "n": v} for k, v in sorted(counts.items())]
    return pd.DataFrame(rows)


def q_image_drift_fmt(sf_dir: str):
    ds = read_images(_img_dir(sf_dir), ["fmt"])
    counts = ds.aggregate(ValueCounts("fmt", alias_name="vc"))["vc"]
    d = categorical_drift(counts, image_table.FMT_PROBS)
    return pd.DataFrame(
        [{"statistic": round(d["statistic"], 6), "dof": d["dof"], "n": d["n"]}]
    )


def q_image_drift_vs_profile(sf_dir: str):
    """Chi-square drift vs the persisted reference_profile.parquet
    companion table (the stored-profile drift workflow: a profile is
    written by a previous run, later runs test against it)."""
    import pyarrow.parquet as pq

    prof_tbl = pq.read_table(str(_img_dir(sf_dir) / "reference_profile.parquet"))
    profile = {
        b: f
        for c, b, f in zip(
            prof_tbl["column"].to_pylist(),
            prof_tbl["bucket"].to_pylist(),
            prof_tbl["freq"].to_pylist(),
        )
        if c == "fmt"
    }
    ds = read_images(_img_dir(sf_dir), ["fmt"])
    counts = ds.aggregate(ValueCounts("fmt", alias_name="vc"))["vc"]
    d = categorical_drift(counts, profile)
    return pd.DataFrame(
        [{"statistic": round(d["statistic"], 6), "dof": d["dof"], "n": d["n"]}]
    )


def q_image_distinct_hll(sf_dir: str):
    ds = read_images(_img_dir(sf_dir), ["image_id", "phash"])
    row = ds.aggregate(
        HLL("image_id", alias_name="ids"), HLL("phash", alias_name="phashes")
    )
    return pd.DataFrame([{"ids_hll": row["ids"], "phashes_hll": row["phashes"]}])


def q_image_schema_conform(sf_dir: str):
    ts = image_table_schema().subset(LIGHT_COLUMNS)
    ds = read_images(_img_dir(sf_dir), LIGHT_COLUMNS)
    return ds.map_batches(
        TableConformer(ts), batch_format="pyarrow", zero_copy_batch=True
    )


def q_image_conform_full(sf_dir: str):
    from .validate_pipeline import conform_images

    ds = conform_images(_img_dir(sf_dir))
    return ds.map_batches(
        lambda t: t.drop_columns(["bytes"]), batch_format="pyarrow", zero_copy_batch=True
    )


def q_image_conform_selective(sf_dir: str):
    """Selective repair — the production cost shape: validate every row
    (cheap, vectorized), but run the expensive conform (including the
    decode/re-encode path) ONLY on rows with violations; clean rows
    pass through untouched. Must produce byte-identical metadata to the
    full conform (oracled against the same expected_conform fixture),
    proving conform is the identity on already-valid rows."""
    from .validate_pipeline import FusedConformer, FusedValidator, read_images

    validator = FusedValidator()
    conformer = FusedConformer()
    out_cols = ["image_id", "w", "h", "fmt", "caption", "phash"]

    def selective(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vio = validator(t)
        bad_ids = pc.unique(vio["row_ref"].combine_chunks())
        ids_str = pc.cast(t["image_id"].combine_chunks(), pa.string())
        # null ids can't be matched against row_refs — route them to the
        # conformer unconditionally (conservative: never skip a repair)
        bad = pc.or_(
            pc.fill_null(pc.is_in(ids_str, value_set=bad_ids), False),
            pc.is_null(ids_str),
        )
        clean = t.filter(pc.invert(bad)).select(out_cols)
        repaired = conformer(t.filter(bad)).select(out_cols)
        return pa.concat_tables([clean, repaired])

    return read_images(_img_dir(sf_dir)).map_batches(
        selective, batch_format="pyarrow", zero_copy_batch=True
    )


def q_image_features(sf_dir: str):
    """Decode -> dense feature vector per image (model-stage plumbing)."""
    from ..stages.multimodal import ImageFeatures

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes"])
    feats = ds.map_batches(
        ImageFeatures(), batch_format="pyarrow", zero_copy_batch=True
    )

    # driver-friendly projection: nullable list<float> breaks pandas
    # tensor casting, so serialize the vector deterministically
    def project(t: pa.Table) -> pa.Table:
        ids, out = [], []
        for rid, v in zip(t["image_id"].to_pylist(), t["features"].to_pylist()):
            if v is None:
                continue
            ids.append(rid)
            out.append(",".join(f"{x:.4f}" for x in v))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "features": pa.array(out, pa.string())})

    return feats.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def q_frame_sample(sf_dir: str):
    """Deterministic 1-in-10 sampling by key hash (frame-sampling pattern)."""
    from ..stages.multimodal import frame_sample

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h", "fmt"])
    return frame_sample(ds, every_k=10)


# ------------------------------------------------------------ audio/video
def _audio_dir(sf_dir: str):
    from ..sources import av_table

    return av_table.generate_audio(av_table.rows_for_sf(sf_dir, 20_000))


def _video_dir(sf_dir: str):
    from ..sources import av_table

    return av_table.generate_video(av_table.rows_for_sf(sf_dir, 4_000))


def q_audio_decode_violations(sf_dir: str):
    """Audio analogue of the image decode check: stored sample_rate /
    n_samples vs the decoded truth (seeded defects oracled against the
    generator's expected_violations)."""
    from ..stages.multimodal import AudioDecodeValidator

    ds = rd.read_parquet(str(_audio_dir(sf_dir) / "audio.parquet"))
    vio = ds.map_batches(
        AudioDecodeValidator(), batch_format="pyarrow", zero_copy_batch=True
    )
    return _collect(_project_violations(vio), _VIO_COLS)


def q_audio_features(sf_dir: str):
    """Decode -> audio feature vectors (duration/rms/zcr/band energies)."""
    from ..stages.multimodal import AudioFeatures

    ds = rd.read_parquet(str(_audio_dir(sf_dir) / "audio.parquet"),
                         columns=["audio_id", "bytes"])
    feats = ds.map_batches(
        AudioFeatures(), batch_format="pyarrow", zero_copy_batch=True
    )

    def project(t: pa.Table) -> pa.Table:
        ids, out = [], []
        for rid, v in zip(t["audio_id"].to_pylist(), t["features"].to_pylist()):
            if v is None:
                continue
            ids.append(rid)
            out.append(",".join(f"{x:.4f}" for x in v))
        return pa.table({"audio_id": pa.array(ids, pa.string()),
                         "features": pa.array(out, pa.string())})

    return feats.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def _scene_video_dir(sf_dir: str):
    from ..sources import av_table

    return av_table.generate_scene_video(av_table.rows_for_sf(sf_dir, 4_000))


def q_video_scene_cuts(sf_dir: str):
    """Scene-boundary detection over the scene-structured video fixture
    (1-4 planted scenes per video): adjacent-frame exact-integer mean
    |Δ| above 20 levels marks a cut. Oracled against
    the generator's independently-recorded planted cut positions —
    intra-scene jitter + lossy-codec noise sit far below the
    threshold, fresh scene bases far above, so detection must recover
    exactly the planted set."""
    from ..stages.multimodal import scene_cuts

    ds = rd.read_parquet(str(_scene_video_dir(sf_dir) / "scene_video.parquet"),
                         columns=["video_id", "bytes"])
    cuts = scene_cuts(ds)
    return cuts.map_batches(
        lambda t: t.select(["video_id", "frame_idx"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _silence_audio_dir(sf_dir: str):
    from ..sources import av_table

    return av_table.generate_silence_audio(
        av_table.rows_for_sf(sf_dir, 10_000))


def q_audio_silence_runs(sf_dir: str):
    """Silence segmentation over the planted-gap audio fixture: runs of
    160-sample windows whose max |sample| is under 300 (true zeros vs
    thousands-amplitude tone). Integer compares; oracled against the generator's planted gap positions."""
    from ..stages.multimodal import silence_runs

    ds = rd.read_parquet(
        str(_silence_audio_dir(sf_dir) / "silence_audio.parquet"))
    return silence_runs(ds)


def q_video_frame_explode(sf_dir: str):
    """True frame explosion: every 3rd frame of each container becomes a
    row; oracled from the stored n_frames metadata."""
    from ..stages.multimodal import VideoFrameSampler

    ds = rd.read_parquet(str(_video_dir(sf_dir) / "video.parquet"),
                         columns=["video_id", "bytes"])
    frames = ds.map_batches(
        VideoFrameSampler(3), batch_format="pyarrow", zero_copy_batch=True
    )
    return frames.map_batches(
        lambda t: t.select(["video_id", "frame_idx", "w", "h", "fmt"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


# -------------------------------------------------------------- documents
def documents_schema() -> TableSchema:
    return TableSchema(
        {
            "doc_id": BigInt,
            "text": ColumnSpec(String, checks=[not_empty()]),
            "lang": ColumnSpec(String, checks=[in_set(DOC_LANGS)]),
            "source": String,
            "n_chars": ColumnSpec(BigInt, checks=[range_check(0, None)]),
        },
        id_column="doc_id",
    )


def q_validate_documents(sf_dir: str):
    ds = _t(sf_dir, "documents")
    vio = ds.map_batches(
        TableValidator(documents_schema()), batch_format="pyarrow", zero_copy_batch=True
    )
    return _collect(_project_violations(vio), _VIO_COLS)


def q_conform_documents(sf_dir: str):
    ds = _t(sf_dir, "documents")
    return ds.map_batches(
        TableConformer(documents_schema()), batch_format="pyarrow", zero_copy_batch=True
    )


def q_stats_lineitem(sf_dir: str):
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount"],
    )
    cols = ["l_quantity", "l_extendedprice", "l_discount"]
    stats = numeric_stats(ds, cols, distinct=False)
    rows = []
    for c in cols:
        s = stats[c]
        rows.append(
            {
                "column": c,
                "n_rows": int(s["count"]),
                "n_nulls": int(s["nulls"]),
                "min_v": round(float(s["min"]), 6),
                "max_v": round(float(s["max"]), 6),
                "mean_v": round(float(s["mean"]), 6),
                "std_v": round(float(s["std"]), 6),
            }
        )
    return pd.DataFrame(rows)


def q_referential_orders_customers(sf_dir: str):
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    customers = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    return _collect(
        _project_violations(
            referential_violations(orders, "o_custkey", customers)
        ),
        _VIO_COLS,
    )


def q_unique_event_ids(sf_dir: str):
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    vio = uniqueness_violations(ev, "event_id", id_column="event_id")
    proj = vio.map_batches(
        lambda t: t.select(["row_ref", "path", "code", "expected"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _collect(proj, ["row_ref", "path", "code", "expected"])


def q_drift_mktsegment(sf_dir: str):
    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_mktsegment"])
    counts = ds.aggregate(ValueCounts("c_mktsegment", alias_name="vc"))["vc"]
    profile = {k: 0.2 for k in sorted(counts)}  # uniform over observed segments
    d = categorical_drift(counts, profile)
    return pd.DataFrame(
        [{"statistic": round(d["statistic"], 6), "dof": d["dof"], "n": d["n"]}]
    )


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def events_schema() -> TableSchema:
    from ..schema import Number

    return TableSchema(
        {
            "event_id": BigInt,
            "user_id": ColumnSpec(BigInt, checks=[range_check(0, None)]),
            "event_type": ColumnSpec(String, checks=[in_set(EVENT_TYPES)]),
            "value": ColumnSpec(Number, checks=[range_check(0, None)]),
            "props": String,
        },
        id_column="event_id",
        ignore_unexpected=True,  # ts column validated separately (temporal)
    )


def q_validate_events(sf_dir: str):
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
    )
    vio = ds.map_batches(
        TableValidator(events_schema()), batch_format="pyarrow", zero_copy_batch=True
    )
    return _collect(_project_violations(vio), _VIO_COLS)


def _props_k_range(v, where=None):
    from ..schema.jstypes import format_number

    if isinstance(v, float) and 0 <= v <= 50:
        return True
    return "expected 0..50, got " + (
        format_number(v) if isinstance(v, float) else str(v)
    )


def q_validate_event_props(sf_dir: str):
    """The reference's FULL row kernel distributed over a JSON column:
    events.props parsed with JS number semantics and validated against a
    nested schema with a $validate hook — nested dot-paths (props.k),
    reference result codes, hook-message strings, all at table scale."""
    from ..schema import Number
    from ..stages.validate import JsonColumnValidator

    schema = {"k": {"$type": Number, "$validate": _props_k_range}}
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    vio = ds.map_batches(
        JsonColumnValidator(schema, "props", "event_id"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return vio.map_batches(
        lambda t: t.select(["row_ref", "path", "code", "message"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_conform_event_props(sf_dir: str):
    """Kernel conform over the JSON column: the schema requires a key
    the data lacks ('m'), so the insert-missing-with-default repair (C4)
    fires on every row; output re-serialized with JSON.stringify
    formatting (compact, JS number strings)."""
    from ..schema import Number
    from ..stages.validate import JsonColumnConformer

    schema = {"k": Number, "m": Number}
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    return ds.map_batches(
        JsonColumnConformer(schema, "props", "event_id"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_image_w_drift_ks(sf_dir: str):
    """KS drift of the w distribution vs a uniform reference profile."""
    from ..stages.stats import Histogram, ks_drift

    ds = read_images(_img_dir(sf_dir), ["w"])
    hist = ds.aggregate(Histogram("w", lo=8, hi=33, bins=25, alias_name="h"))["h"]
    d = ks_drift(hist, [1.0 / 25] * 25)
    return pd.DataFrame(
        [{"statistic": round(d["statistic"], 6), "n": d["n"],
          "drifted": bool(d["p_value"] < 0.01)}]
    )


def q_events_windowed(sf_dir: str):
    """Tumbling 1h windows over the events stream (count + value sum)."""
    from ..stages.window import tumbling_window_agg

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    out = tumbling_window_agg(ds, key_col="event_type", value_col="value")

    # integer cents: float sums differ in the last ulp between engines,
    # so the comparable quantity is round(sum * 100) as an integer
    def to_cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cents = pc.cast(
            pc.round(pc.multiply(t["value_sum"], 100.0)), pa.int64()
        )
        return pa.table(
            {
                "event_type": t["event_type"],
                "window_start": t["window_start"],
                "n": t["n"],
                "value_sum_cents": cents,
            }
        )

    return out.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)


def q_fmt_stats_salted(sf_dir: str):
    """Per-fmt stats over a 70%-skewed key: ``bucket_combine`` folds the
    hot key to one row per batch before the exchange (what a salted
    two-phase aggregate was for), and the mean is sum / count."""
    ds = read_images(_img_dir(sf_dir), ["fmt", "w"])
    out = bucket_combine(ds, "fmt", {"n": ("fmt", "count"),
                                     "w_sum": ("w", "sum"),
                                     "w_n": ("w", "count")})

    def mean(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mean_w = pc.divide(pc.cast(t["w_sum"], pa.float64()),
                           pc.cast(t["w_n"], pa.float64()))
        return pa.table({"fmt": t["fmt"], "n": t["n"],
                         "mean_w": pc.round(mean_w, ndigits=6)})

    return out.map_batches(mean, batch_format="pyarrow", zero_copy_batch=True)


def q_violation_summary(sf_dir: str):
    """Grouped count of schema violations by (path, code) — the
    reporting aggregation from SURVEY.md §2 sorts/limits."""
    vio = q_image_schema_violations(sf_dir)
    return _collect(
        bucket_combine(vio, ["path", "code"], {"n": ("code", "count")}),
        ["path", "code", "n"],
    )


def q_events_hopping(sf_dir: str):
    """Hopping windows (1h width, 30min slide) per event_type."""
    from ..stages.window import hopping_window_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return hopping_window_agg(ds, key_col="event_type", width_s=3600, slide_s=1800)


def q_documents_ranked(sf_dir: str):
    """Global sort (Ray sort shuffle) + distributed rank: per-block row
    counts prefix-summed on the driver (ints only), ordinals assigned
    inside one remote task per block — rows never reach the driver."""
    from ..stages.rank import ranked

    ds = _t(sf_dir, "documents").map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "n_chars": t["n_chars"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return ranked(ds, ["n_chars", "doc_id"], index_col="rank")


def q_event_session_ids(sf_dir: str):
    """Per-event session assignment (feature generation): every event
    labeled with its 1-based session index within its user."""
    from ..stages.window import session_ids

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    return session_ids(ds)


def q_event_sessions(sf_dir: str):
    """Sessionization per user (30-minute inactivity gap)."""
    from ..stages.window import session_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return session_agg(ds, gap_s=1800)


def q_top_duplicated_phashes(sf_dir: str):
    """Top-10 most duplicated phash values (sort desc + deterministic
    tie-break + limit — the reporting top-k from SURVEY.md §2)."""
    from ..stages.uniqueness import duplicate_keys

    ds = read_images(_img_dir(sf_dir), ["phash"])
    dup = duplicate_keys(ds, "phash")
    # dup is bounded by the duplicated-key count (small by construction);
    # Arrow sort + slice on it, no pandas round-trip
    dup = dup.rename_columns(["phash", "n"])
    return dup.sort_by([("n", "descending"), ("phash", "ascending")]).slice(0, 10)


def q_events_last_order(sf_dir: str):
    """As-of join: each event's most recent order at-or-before its ts."""
    from ..stages.asof import asof_join_latest

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )
    return asof_join_latest(
        events, orders, key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate", left_id="event_id",
    )


def q_orders_enriched(sf_dir: str):
    """Enrichment equi-join (broadcast strategy): orders + customer name
    and segment. The small side is ray.put once; every batch probes it
    with a vectorized Arrow hash join — no shuffle."""
    from ..stages.join import broadcast_hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    customers = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    )

    out = broadcast_hash_join(orders, customers, on="o_custkey", right_on="c_custkey")

    def cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "c_name": t["c_name"],
                "c_mktsegment": t["c_mktsegment"],
                "total_cents": pc.cast(
                    pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
            }
        )

    return out.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)


def q_orders_left_enriched(sf_dir: str):
    """LEFT OUTER enrichment: every order kept; customer name attached
    only for BUILDING-segment customers (the filtered dimension makes
    the null side falsifiable — inner-join parity would lose rows)."""
    import pyarrow.compute as _pc

    from ..stages.join import broadcast_hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    customers = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    ).map_batches(
        lambda t: t.filter(
            _pc.equal(t["c_mktsegment"], "BUILDING")
        ).select(["c_custkey", "c_name"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = broadcast_hash_join(
        orders, customers, on="o_custkey", right_on="c_custkey",
        how="left outer",
    )
    return _collect(out, ["o_orderkey", "o_custkey", "c_name"])


def q_orders_enriched_shuffle(sf_dir: str):
    """Same join through the bucketed shuffle join (both sides hash the
    key into buckets, one Arrow join per bucket) — the path for a
    dimension side too big to broadcast."""
    from ..stages.join import shuffle_hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    customers = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    )
    out = shuffle_hash_join(orders, customers, on="o_custkey", right_on="c_custkey")

    def cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "c_name": t["c_name"],
                "c_mktsegment": t["c_mktsegment"],
                "total_cents": pc.cast(
                    pc.round(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
            }
        )

    return out.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)


def q_events_enriched_salted(sf_dir: str):
    """SKEWED-key enrichment via the salted shuffle join: events carry
    only ~150 distinct user ids over the whole table (every key is hot
    relative to the key space — at web scale this is the bot-user /
    top-domain shape), so a plain bucketed shuffle join concentrates each
    key's full volume in one task. Salting on the fact primary key
    spreads each user over 8 sub-keys; the customer dimension ships 8
    replicas. Output is byte-identical to the unsalted join."""
    from ..stages.join import salted_shuffle_join

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type"],
    )
    customers = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    )
    out = salted_shuffle_join(
        events, customers, on="user_id", right_on="c_custkey",
        salt_on="event_id", salt=8,
    )
    return _collect(
        out, ["event_id", "user_id", "event_type", "c_name", "c_mktsegment"]
    )


def q_orders_customer_full(sf_dir: str):
    """FULL OUTER reconciliation: per-customer rollup of FULFILLED
    ('F') orders vs the BUILDING-segment customer dimension. BUILDING
    customers with no F orders survive with null rollup columns (13 at
    sf0.01); F-rollups of non-BUILDING customers survive with null
    dimension columns — both null sides are falsifiable (inner/left
    parity would lose rows)."""
    import pyarrow.compute as _pc

    from ..stages.join import shuffle_hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderstatus"],
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(_pc.equal(t["o_orderstatus"], "F"))
        cents = _pc.cast(
            _pc.round(_pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
        )
        return pa.table({"o_custkey": t["o_custkey"], "cents": cents})

    rollup = bucket_combine(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "o_custkey",
        {"total_cents": ("cents", "sum"), "n_orders": ("cents", "count")})
    customers = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    ).map_batches(
        lambda t: t.filter(_pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = shuffle_hash_join(rollup, customers, on="o_custkey",
                            right_on="c_custkey", how="full outer")
    # the join coalesces the right key into o_custkey (right-only rows
    # carry their c_custkey there) — the oracle COALESCEs to match.
    return _collect(
        out,
        ["o_custkey", "n_orders", "total_cents", "c_name", "c_mktsegment"],
    )


CAMPAIGN_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01 00:00:00 UTC
N_CAMPAIGNS = 25


def _campaign_intervals() -> pa.Table:
    """Deterministic campaign-period dimension: 25 half-open 30h windows
    starting every 24h from 2024-01-01 (adjacent windows overlap 6h, so
    some events legitimately match two campaigns)."""
    ids = list(range(N_CAMPAIGNS))
    start = [CAMPAIGN_EPOCH_US + i * 24 * 3600 * 1_000_000 for i in ids]
    end = [s + 30 * 3600 * 1_000_000 for s in start]
    return pa.table(
        {
            "campaign_id": pa.array(ids, pa.int64()),
            "start_us": pa.array(start, pa.int64()),
            "end_us": pa.array(end, pa.int64()),
        }
    )


def q_events_in_campaigns(sf_dir: str):
    """Range join without an equi key: every (event, campaign) pair
    where the event timestamp falls in the campaign's half-open window
    (bucketed point-in-interval join; intervals broadcast once)."""
    from ..stages.join import range_join

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    out = range_join(
        ds, _campaign_intervals(), ts_col="ts",
        start_col="start_us", end_col="end_us",
    )
    return out.map_batches(
        lambda t: t.select(["event_id", "campaign_id"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_heavy_event_users_cm(sf_dir: str):
    """Top-10 heaviest users by event count via the Count-Min sketch
    (constant state at unbounded cardinality). At this scale / width the
    deterministic sketch is collision-free, so the exact SQL top-10 is
    a valid oracle; at higher load factors the estimate overcounts by
    <= 2N/w (accuracy pinned in tests)."""
    from ..stages.stats import heavy_hitters_cm

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters_cm(ds, "user_id", k=10, w=1 << 16, d=4)


def q_top_users_per_event_type(sf_dir: str):
    """Grouped top-k: 3 heaviest users per event type (combiner-first)."""
    from ..stages.topk import grouped_count_topk

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return grouped_count_topk(ev, "event_type", "user_id", k=3)


def q_documents_conform_diff(sf_dir: str):
    """Snapshot diff between two table versions: the original documents
    vs a normalized revision (en text upper-cased). Exactly the rows the
    revision touched surface as 'changed' — one bucketed shuffle of
    (key, row-hash) pairs; payloads never move."""
    import pyarrow.compute as pc

    from ..stages.diff import table_diff

    docs = _t(sf_dir, "documents")

    def normalize(t: pa.Table) -> pa.Table:
        en = pc.fill_null(pc.equal(t["lang"], "en"), False)
        text = pc.if_else(en, pc.utf8_upper(t["text"].combine_chunks()), t["text"])
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    revised = _t(sf_dir, "documents").map_batches(
        normalize, batch_format="pyarrow", zero_copy_batch=True
    )
    out = table_diff(docs, revised, "doc_id", ["text", "lang", "source", "n_chars"])
    return _collect(out, ["doc_id", "change"])


def q_profile_images(sf_dir: str):
    """Per-column null profile of the image table in one streaming pass
    (the expectations-suite building block)."""
    from ..stages.profile import profile_table

    ds = read_images(_img_dir(sf_dir), LIGHT_COLUMNS)
    return profile_table(ds)


def q_lineitem_quantiles(sf_dir: str):
    """Exact distributed quantiles (order statistics via sort + block
    offsets — no approximation, no driver sort)."""
    from ..stages.rank import exact_quantiles

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return exact_quantiles(ds, "l_extendedprice", [0.5, 0.9, 0.99])


def q_lineitem_winsorized(sf_dir: str):
    """Percentile winsorization of the price column (two-pass: exact
    [P05, P95] bounds broadcast -> vectorized clamp). Output keyed by
    (l_orderkey, l_linenumber); cents integers for exact SQL parity."""
    import pyarrow.compute as _pc

    from ..stages.rank import winsorize

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    out = winsorize(ds, "l_extendedprice", lo_q=0.05, hi_q=0.95)

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "price_cents": _pc.cast(
                    _pc.round(_pc.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
                "winsorized_cents": _pc.cast(
                    _pc.round(
                        _pc.multiply(t["l_extendedprice_winsorized"], 100.0)
                    ),
                    pa.int64(),
                ),
            }
        )

    return _collect(
        out.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_orderkey", "l_linenumber", "price_cents", "winsorized_cents"],
    )


def q_lineitem_quantiles_approx(sf_dir: str):
    """Mergeable-histogram approximate quantiles (two streaming passes,
    constant state — the no-sort path; error bounded by one bin width).
    Oracled: the sketch is deterministic, so the SQL reproduces the
    histogram itself (np.histogram's edge-comparison binning via an
    edges join, identical linspace arithmetic) and interpolates with
    the same term order — bit-exact, not approximate-vs-exact.
    Accuracy vs exact_quantiles additionally pinned in
    tests/test_round2_property.py."""
    from ..stages.rank import approx_quantiles

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return approx_quantiles(ds, "l_extendedprice", [0.5, 0.9, 0.99])


def q_distinct_sources_by_lang(sf_dir: str):
    """Exact distinct counts per group (two-level combiner)."""
    from ..stages.topk import grouped_distinct_count

    docs = _t(sf_dir, "documents").map_batches(
        lambda t: t.select(["lang", "source"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return grouped_distinct_count(docs, "lang", "source")


def q_distinct_sources_by_lang_hll(sf_dir: str):
    """Approximate distinct per group (per-group HLL registers, constant
    state per group). Deterministic, and exact at this cardinality, so
    the exact-SQL oracle holds; error bound (~1.6% at p=12) is pinned
    separately in tests."""
    from ..stages.topk import grouped_distinct_hll

    docs = _t(sf_dir, "documents").map_batches(
        lambda t: t.select(["lang", "source"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return grouped_distinct_hll(docs, "lang", "source")


# ------------------------------------------------------------------ dedup
def q_lineitem_ntile(sf_dir: str):
    """Equal-frequency binning + CDF features: NTILE(100) and
    percent_rank over a global (value, id) order — distributed rank
    machinery, buckets assigned per block."""
    from ..stages.rank import ntile_pct_rank

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    return ntile_pct_rank(
        ds, ["l_extendedprice", "l_orderkey", "l_linenumber"], k=100
    )


def q_lineitem_zscore(sf_dir: str):
    """Per-group standardization (z = (v - mean_g) / std_g, rounded):
    grouped moment combiner -> tiny broadcast -> streaming apply."""
    from ..stages.stats import zscore_by_group

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    )
    return zscore_by_group(
        ds, "l_quantity", "l_returnflag", ["l_orderkey", "l_linenumber"]
    )


def q_dedup_exact_documents(sf_dir: str):
    return exact_dedup_keep_first(_t(sf_dir, "documents"), key="text", id_col="doc_id")


def q_doc_fingerprints(sf_dir: str):
    return content_fingerprint(_t(sf_dir, "documents"), col="text", id_col="doc_id")


def q_doc_winnow_overlap(sf_dir: str):
    """Rolling-hash winnowing fingerprints -> docs sharing >= min_shared
    fingerprints (plagiarism/overlap candidates; rows-only — winnowing
    is not SQL-expressible; kernels brute-force-verified in tests)."""
    from ..stages.dedup import winnow_overlap_pairs

    return winnow_overlap_pairs(
        _t(sf_dir, "documents"), col="text", id_col="doc_id",
        k=12, window=6, min_shared=5,
    )


def q_minhash_dedup(sf_dir: str):
    return minhash_dedup_pairs(
        _t(sf_dir, "documents"), col="text", id_col="doc_id", threshold=0.8
    )


def q_inverted_index(sf_dir: str):
    """Term -> (df, capped postings) index build over the documents
    table — combiner-first explode, term-hash bucketed merge."""
    from ..stages.text import inverted_index

    return inverted_index(_t(sf_dir, "documents"))


def q_ngram_jaccard_dedup(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs without sketching: prefix-
    filtered AllPairs candidates (100% recall by the prefix-filter
    theorem — no probabilistic banding) + exact set-Jaccard verify. The
    oracle is the exhaustive SQL pair set AS THE SEMANTICS, not a
    recall-certified approximation of them."""
    from ..stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _t(sf_dir, "documents"), col="text", id_col="doc_id", threshold=0.8
    )


def q_simhash_dedup(sf_dir: str):
    return simhash_dup_pairs(
        _t(sf_dir, "documents"), col="text", id_col="doc_id", max_hamming=3
    )


# ------------------------------------------------------------------- text
def q_text_metrics(sf_dir: str):
    return text_metrics(_t(sf_dir, "documents"))


def q_token_count_by_lang(sf_dir: str):
    return token_count_by_lang(_t(sf_dir, "documents"))


def q_bpe_token_counts(sf_dir: str):
    return bpe_token_counts(_t(sf_dir, "documents"))


def q_lang_id(sf_dir: str):
    return lang_id(_t(sf_dir, "documents"))


def q_quality_scores(sf_dir: str):
    return quality_score(_t(sf_dir, "documents"))


SCRUB_PATTERN = "(vector|stream)"


def q_docs_regex_filtered(sf_dir: str):
    """Content-policy scrub: docs whose text does NOT match the banned
    pattern (vectorized RE2 per batch; the PII/boilerplate-filter shape)."""
    from ..stages.text import regex_filter

    out = regex_filter(_t(sf_dir, "documents"), SCRUB_PATTERN)
    return out.map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow", zero_copy_batch=True
    )


def q_doc_repetition(sf_dir: str):
    """Repetition/diversity metrics per document (Gopher-style filter
    signals)."""
    from ..stages.text import repetition_metrics

    return repetition_metrics(_t(sf_dir, "documents"))


from .corpus_pipeline import EMAIL_PATTERN  # single source of truth
MIXTURE_RATES = {"en": 0.5, "de": 0.25}
DECONTAM_MOD = 11  # benchmark side = doc_id % 11 == 0


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing any word
    4-gram with the held-out set (docs where doc_id % 11 == 0). The
    benchmark n-gram set is broadcast once; the corpus streams."""
    from ..stages.corpus import decontaminate

    def side(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy()
            mask = (ids % DECONTAM_MOD == 0) if is_bench else (ids % DECONTAM_MOD != 0)
            return t.filter(pa.array(mask))

        return fn

    docs = _t(sf_dir, "documents")
    bench = docs.map_batches(side(True), batch_format="pyarrow", zero_copy_batch=True)
    corpus = docs.map_batches(side(False), batch_format="pyarrow", zero_copy_batch=True)
    return decontaminate(corpus, bench, n=4)


def q_decontam_attribution(sf_dir: str):
    """Contamination audit pairs: which held-out (doc_id % 11 == 0) doc
    each contaminated corpus doc shares a 4-gram with."""
    from ..stages.corpus import decontam_attribution

    def side(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy()
            mask = (ids % DECONTAM_MOD == 0) if is_bench else (ids % DECONTAM_MOD != 0)
            return t.filter(pa.array(mask))

        return fn

    docs = _t(sf_dir, "documents")
    bench = docs.map_batches(side(True), batch_format="pyarrow", zero_copy_batch=True)
    corpus = docs.map_batches(side(False), batch_format="pyarrow", zero_copy_batch=True)
    return decontam_attribution(corpus, bench, n=4)


def q_event_funnel(sf_dir: str):
    """Ordered view -> click -> purchase funnel over the events table
    (users reaching each step strictly after their previous step's
    first event)."""
    from ..stages.window import funnel_counts

    return funnel_counts(_t(sf_dir, "events"), ("view", "click", "purchase"))


def q_doc_mixture_sample(sf_dir: str):
    """Deterministic corpus-mixture sampling: md5-hash each doc_id and
    keep per-language rates (en 0.5, de 0.25, others 0.1) — the
    training-mix weighting primitive."""
    from ..stages.corpus import sample_by_rate

    return sample_by_rate(
        _t(sf_dir, "documents"), MIXTURE_RATES, default_rate=0.1
    )


def q_doc_chunks(sf_dir: str):
    """LLM context-window preparation: explode each document into
    80-char windows with stride 60 (one Arrow slice kernel per chunk
    position)."""
    from ..stages.corpus import chunk_text

    return chunk_text(_t(sf_dir, "documents"), size=80, stride=60)


def q_doc_pii_redacted(sf_dir: str):
    """PII scrubbing: emails (injected deterministically into every 7th
    doc so the redaction is exercised for real, mirrored in the oracle)
    replaced with [EMAIL]; returns the redacted text plus match counts."""
    import pyarrow.compute as pc

    from ..stages.text import redact_regex

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        suffix = pa.array(
            [
                f" contact: user{i}@example.com" if i % 7 == 0 else ""
                for i in ids
            ],
            pa.string(),
        )
        text = pc.binary_join_element_wise(t["text"].combine_chunks(), suffix, "")
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    docs = _t(sf_dir, "documents").map_batches(
        inject, batch_format="pyarrow", zero_copy_batch=True
    )
    return redact_regex(docs, EMAIL_PATTERN, "[EMAIL]")


def q_orders_high_value(sf_dir: str):
    """Predicate pushdown at the scan: the row filter rides into
    read_parquet (pyarrow dataset expression), so row groups that
    cannot match never leave storage — only the 3 needed columns and
    the qualifying rows are materialized."""
    import pyarrow.dataset as pads

    return rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderpriority"],
        filter=(pads.field("o_totalprice") > 350000.0),
    )


def q_doc_splits(sf_dir: str):
    """Deterministic train/val/test assignment (80/10/10 by md5 bucket)
    — disjoint and exhaustive by construction, parallelism-invariant."""
    from ..stages.corpus import split_assign

    return split_assign(
        _t(sf_dir, "documents"), {"train": 0.8, "val": 0.1, "test": 0.1}
    )


def q_events_since_last_purchase(sf_dir: str):
    """As-of join with a staleness tolerance: for every event, the
    timestamp of the same user's latest 'purchase' event no older than
    2 hours (the classic time-since-last-X feature)."""
    from ..stages.asof import asof_join_latest

    events = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def purchases(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.equal(t["event_type"].combine_chunks(), "purchase")
        ).select(["ts", "user_id"])

    right = events.map_batches(
        purchases, batch_format="pyarrow", zero_copy_batch=True
    )
    return asof_join_latest(
        events, right, key="user_id", left_id="event_id", tolerance_s=7200
    )


def q_doc_cap_per_source(sf_dir: str):
    """Per-domain cap (training-mix guard): at most 10 docs per source,
    chosen by md5(doc_id) order — stable across runs and parallelism."""
    from ..stages.corpus import cap_per_key

    return cap_per_key(_t(sf_dir, "documents"), key_col="source", n=10)


def q_top_event_types_per_window(sf_dir: str):
    """Trending-per-hour: top-3 event types in each tumbling 1h window
    (per-batch window bucketing -> combiner counts -> per-window top-k)."""
    from ..stages.window import windowed_topk

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return windowed_topk(ds, item_col="event_type", width_s=3600, k=3)


def q_embedding_quantized(sf_dir: str):
    """int8 embedding quantization (long format + integer-carried scale),
    the 4x storage/bandwidth reduction stage before ANN serving."""
    from ..stages.similarity import quantize_embeddings

    return quantize_embeddings(_t(sf_dir, "embeddings"))


PHONE_PATTERN = r"\b\d{3}-\d{4}\b"
IP_PATTERN = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def q_doc_pii_multi(sf_dir: str):
    """Multi-class PII scrub: emails, phone numbers and IPv4 addresses
    injected deterministically (every 7th/5th/4th doc), each class
    counted on the original text and redacted with its own token."""
    import pyarrow.compute as pc

    from ..stages.text import redact_all

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        parts = []
        for i in ids:
            s = ""
            if i % 7 == 0:
                s += f" contact: user{i}@example.com"
            if i % 5 == 0:
                s += f" call 555-{1000 + i % 9000}"
            if i % 4 == 0:
                s += f" from 10.0.{i % 256}.{i % 100}"
            parts.append(s)
        text = pc.binary_join_element_wise(
            t["text"].combine_chunks(), pa.array(parts, pa.string()), ""
        )
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    docs = _t(sf_dir, "documents").map_batches(
        inject, batch_format="pyarrow", zero_copy_batch=True
    )
    return redact_all(
        docs,
        [
            ("email", EMAIL_PATTERN, "[EMAIL]"),
            ("phone", PHONE_PATTERN, "[PHONE]"),
            ("ip", IP_PATTERN, "[IP]"),
        ],
    )


def q_tfidf_top_terms(sf_dir: str):
    """Corpus keyword profile: top-5 TF-IDF terms per language (one
    vectorized explode + combiner per batch; the shuffle carries
    collapsed (lang, word) partials only)."""
    from ..stages.text import tfidf_top_terms

    return tfidf_top_terms(_t(sf_dir, "documents"), k=5)


def q_corpus_prepare(sf_dir: str):
    """Flagship end-to-end LLM corpus preparation — ONE code path with
    the production CLI pipeline (pipelines/corpus_pipeline.prepare_corpus):

      benchmark holdout (doc_id % 11) -> 4-gram decontamination (bench
      grams broadcast once) -> PII injection fixture + email redaction
      -> lang filter + quality >= 0.5 -> exact dedup keep-first among
      survivors (id broadcast, like corpus_clean) -> per-source cap of
      10 (md5 order, combiner-first) -> 80/60 context-window chunking.

    The injection fixture (mirrored in the oracle) is applied before
    the shared pipeline; decontamination then runs on injected text,
    which is equivalent to running it on raw text because injection
    only APPENDS words ('contact:', the email) that no benchmark doc
    contains — no existing gram is removed and no new bench-matching
    gram can appear. Output: (doc_id, chunk_idx, chunk_text)."""
    import pyarrow.compute as pc

    from .corpus_pipeline import prepare_corpus

    docs = _t(sf_dir, "documents")

    def side(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy()
            mask = (ids % DECONTAM_MOD == 0) if is_bench else (ids % DECONTAM_MOD != 0)
            return t.filter(pa.array(mask))

        return fn

    bench = docs.map_batches(side(True), batch_format="pyarrow", zero_copy_batch=True)

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        suffix = pa.array(
            [
                f" contact: user{i}@example.com" if i % 7 == 0 else ""
                for i in ids
            ],
            pa.string(),
        )
        text = pc.binary_join_element_wise(t["text"].combine_chunks(), suffix, "")
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    corpus = docs.map_batches(
        side(False), batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(inject, batch_format="pyarrow", zero_copy_batch=True)
    return prepare_corpus(
        corpus, bench=bench, ngram=4, langs=("en",), min_quality=0.5,
        cap_per_source=10, chunk_size=80, chunk_stride=60,
    )


def q_corpus_clean(sf_dir: str):
    """Composite training-data cleaning pipeline: keep English docs with
    quality >= 0.6 that survive exact dedup (min doc_id per text).

    One streaming pass over the corpus: the dedup-survivor id set (the
    small side by construction) is ``ray.put`` ONCE; lang filter,
    quality score and the kept/threshold intersect all run vectorized
    inside ``map_batches`` — nothing else touches the driver."""
    import pyarrow.compute as pc
    import ray

    from ..stages.text import quality_score_values

    docs = _t(sf_dir, "documents")
    kept_ref = ray.put(
        fold_column(exact_dedup_keep_first(docs, key="text", id_col="doc_id"),
                    "doc_id")
    )

    def filt(t: pa.Table) -> pa.Table:
        en = pc.fill_null(pc.equal(t["lang"].combine_chunks(), "en"), False)
        t = t.filter(en)
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        ids = t["doc_id"].combine_chunks()
        score = pa.array(quality_score_values(t["text"].combine_chunks()),
                         pa.float64())
        ok = pc.and_(
            pc.is_in(ids, value_set=ray.get(kept_ref)),
            pc.greater_equal(score, 0.6),
        )
        return pa.table({"doc_id": ids, "score": score}).filter(ok)

    return docs.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def q_corpus_clean_join(sf_dir: str):
    """corpus_clean through a distributed semi-join instead of the
    survivor-set broadcast: the dedup-survivor ids join the scored+
    filtered docs per hash bucket (``shuffle_hash_join``) — the path
    for when the survivor set itself is too big to broadcast (it is
    O(distinct texts): at 100 TB that can be most of the corpus)."""
    import pyarrow.compute as pc

    from ..stages.join import shuffle_hash_join
    from ..stages.text import quality_score_values

    docs = _t(sf_dir, "documents")
    kept = exact_dedup_keep_first(docs, key="text", id_col="doc_id")

    def score_filter(t: pa.Table) -> pa.Table:
        en = pc.fill_null(pc.equal(t["lang"].combine_chunks(), "en"), False)
        t = t.filter(en)
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        score = pa.array(quality_score_values(t["text"].combine_chunks()),
                         pa.float64())
        out = pa.table({"doc_id": t["doc_id"], "score": score})
        return out.filter(pc.greater_equal(out["score"], 0.6))

    scored = docs.map_batches(score_filter, batch_format="pyarrow",
                              zero_copy_batch=True)
    return shuffle_hash_join(scored, kept, "doc_id")


def q_corpus_rejected(sf_dir: str):
    """Set difference: documents NOT surviving the cleaning pipeline
    (all ids EXCEPT corpus_clean survivors). The clean pipeline runs
    once to produce the (small) survivor id set, which becomes the one
    broadcast of a vectorized anti-filter pass over the corpus."""
    import pyarrow.compute as pc
    import ray

    kept_ref = ray.put(fold_column(q_corpus_clean(sf_dir), "doc_id"))

    def filt(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks()
        bad = pc.fill_null(pc.is_in(ids, value_set=ray.get(kept_ref)), False)
        return pa.table({"doc_id": ids}).filter(pc.invert(bad))

    return _t(sf_dir, "documents").map_batches(
        filt, batch_format="pyarrow", zero_copy_batch=True
    )


# -------------------------------------------------------------- similarity
def _query_vectors(sf_dir: str, nq: int = 5):
    tbl = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet")
        .sort("vec_id")
        .limit(nq)
        .to_pandas()
    )
    ids = tbl["vec_id"].tolist()
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in tbl["embedding"]])
    return mat, ids


def q_knn_cosine(sf_dir: str):
    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings")
    return knn_brute_force(ds, mat, ids, k=10)


def q_knn_cosine_filtered(sf_dir: str):
    """Filtered vector search: metadata predicate (label = 0) pushed
    BEFORE the scan, then exact cosine top-k — the filtered-ANN shape
    every production vector store needs (filter first, so k survivors
    are guaranteed; post-filtering an ANN result can starve)."""
    import pyarrow.compute as pc

    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings").map_batches(
        lambda t: t.filter(pc.equal(t["label"].combine_chunks(), 0)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return knn_brute_force(ds, mat, ids, k=10)


def _synth_new_crawl(t: pa.Table) -> pa.Table:
    """A synthetic 'new crawl': every 5th doc re-keyed verbatim (exact
    replicas, must be flagged) plus near-miss rows with appended text
    (must NOT be flagged)."""
    import pyarrow.compute as pc

    ids = t["doc_id"].combine_chunks().to_numpy()
    text = t["text"].combine_chunks()
    dup_mask = ids % 5 == 0
    miss_mask = ids % 5 == 1
    keep = pa.array(dup_mask | miss_mask)
    return pa.table(
        {
            "doc_id": pa.array(ids + 100000, pa.int64()),
            "text": pc.binary_join_element_wise(
                text,
                pa.array(
                    ["" if d else " extra" for d in dup_mask], pa.string()
                ),
                "",
            ),
        }
    ).filter(keep)


def _synth_order_updates(t: pa.Table) -> pa.Table:
    """Deterministic CDC update snapshot: every 7th order gets status
    'U', +10.00 price, +30d date (mirrored exactly in the oracle)."""
    import datetime as _dt

    import pyarrow.compute as pc

    m = pc.equal(
        pc.subtract(
            t["o_orderkey"],
            pc.multiply(pc.divide(t["o_orderkey"], 7), 7),
        ),
        0,
    )
    u = t.filter(m)
    return pa.table(
        {
            "o_orderkey": u["o_orderkey"],
            "o_custkey": u["o_custkey"],
            "o_orderstatus": pa.array(["U"] * u.num_rows, pa.string()),
            "o_totalprice": pc.add(u["o_totalprice"], 10.0),
            "o_orderdate": pc.add(
                u["o_orderdate"], pa.scalar(_dt.timedelta(days=30))
            ),
            "o_orderpriority": u["o_orderpriority"],
        }
    )


def q_orders_upserted(sf_dir: str):
    """Lakehouse MERGE/upsert compaction: a synthesized update snapshot
    merged into the base orders snapshot, one key-hash bucketed shuffle,
    latest row per key by (date, source). Prices carried as integer
    cents to dodge float repr."""
    from ..stages.join import upsert_compact

    base = _t(sf_dir, "orders")
    updates = base.map_batches(_synth_order_updates, batch_format="pyarrow",
                               zero_copy_batch=True)
    merged = upsert_compact(base, updates, key="o_orderkey",
                            ts_col="o_orderdate")

    def to_cents(df):
        df = df.copy()
        df["total_cents"] = np.floor(
            df.pop("o_totalprice") * 100 + 0.5
        ).astype(np.int64)
        return df

    return merged.map_batches(to_cents, batch_format="pandas")


def q_events_pivot(sf_dir: str):
    """Per-user wide event-type count matrix (fixed category schema) —
    the classic pivot/crosstab reshape, combiner-first."""
    from ..stages.topk import pivot_counts

    return pivot_counts(
        _t(sf_dir, "events"), "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"],
    )


def q_lineitem_corr(sf_dir: str):
    """Per-group Pearson correlation (quantity vs extendedprice, by
    returnflag) — feature-redundancy screen; exact integer moments,
    one float divide+sqrt per group (bit-identical to the oracle)."""
    from ..stages.stats import grouped_corr

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return grouped_corr(ds, "l_returnflag", "l_quantity",
                        "l_extendedprice")


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, day-of-week): the 4-grouping-set BI
    subtotal lattice from ONE combiner pass; value sums in cents.
    dow is pure integer arithmetic (epoch-days mod 7) so both engines
    agree without timezone/locale conventions."""
    import pyarrow.compute as pc

    from ..stages.topk import cube_counts

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type", "value"])

    def proj(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((us // 86_400_000_000) % 7).astype(np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "dow": pa.array(dow, pa.int64()),
            "value": t["value"],
        })

    return cube_counts(
        ds.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "dow"], "value",
    )


def q_user_event_mode(sf_dir: str):
    """Per-user modal event type (most frequent, ties to the smallest
    type) — the categorical 'typical value' aggregate."""
    from ..stages.rank import grouped_mode

    return grouped_mode(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "event_type"]),
        "user_id", "event_type",
    )


def q_lineitem_qty_bins(sf_dir: str):
    """Equal-frequency quartile binning of l_quantity (bounded integer
    domain): histogram fold -> percentile_disc breakpoints -> streaming
    assign."""
    from ..stages.rank import quantile_bins

    return quantile_bins(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_linenumber", "l_quantity"],
        ),
        "l_quantity", ["l_orderkey", "l_linenumber"],
    )


def q_doc_sentences(sf_dir: str):
    """Documents exploded to numbered sentences with word counts — the
    sentence-level pipeline layout. The synthetic corpus has no
    sentence punctuation, so boundaries are planted first (every
    ' table ' becomes '. ' — mirrored in the oracle) to make the
    explode genuinely multi-row."""
    import pyarrow.compute as pc

    from ..stages.text import sentence_explode

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pc.replace_substring(
                t["text"].combine_chunks(), " table ", ". "
            ),
        })

    return sentence_explode(
        docs.map_batches(plant, batch_format="pyarrow",
                         zero_copy_batch=True)
    )


def q_events_user_skew(sf_dir: str):
    """Key-distribution skew advisor for user_id (the shuffle key the
    salted stages exist for): distinct keys, hottest-key count, HHI
    concentration and imbalance factor — exact e6 integers."""
    from ..stages.stats import key_skew_report

    return key_skew_report(
        rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"]),
        "user_id",
    )


def q_events_pivot_long(sf_dir: str):
    """Round-trip reshape: the wide per-user pivot melted back to long
    (user_id, event_type, n) rows — zeros for absent categories are
    materialized, which is what a training-feature store expects."""
    from ..stages.topk import pivot_counts, unpivot

    cats = ["click", "error", "purchase", "signup", "view"]
    wide = pivot_counts(_t(sf_dir, "events"), "user_id", "event_type", cats)
    return unpivot(wide, ["user_id"], cats,
                   var_col="event_type", value_col="n")


def q_split_leakage(sf_dir: str):
    """Cross-split contamination audit: content fingerprints present in
    BOTH the train and the val side of the deterministic md5 split —
    the eval-inflating leak a dedup-unaware split creates. Dupes are
    injected via the shared _synth_new_crawl re-key (verbatim copies
    under new ids straddle the id-keyed split ~32% of the time)."""
    from ..stages._digest import md5_hex
    from ..stages.corpus import split_leakage

    base = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    crawl = base.map_batches(_synth_new_crawl, batch_format="pyarrow",
                             zero_copy_batch=True)

    def fingerprint(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "fp": pa.array(md5_hex(t["text"]), pa.string()),
        })

    docs = base.union(crawl).map_batches(
        fingerprint, batch_format="pyarrow", zero_copy_batch=True
    )
    return split_leakage(docs, key_col="fp", id_col="doc_id",
                         train_pct=8, mod=10)


def q_cross_corpus_dups(sf_dir: str):
    """Incremental dedup of a 'new crawl' against the existing corpus —
    base fingerprints semi-joined (broadcast once while they fold on the
    driver), new side streams."""
    from ..stages.dedup import cross_corpus_duplicates

    base = _t(sf_dir, "documents")
    new = base.map_batches(_synth_new_crawl, batch_format="pyarrow",
                           zero_copy_batch=True)
    return cross_corpus_duplicates(new, base)


def _simhash_sigs_file(sf_dir: str) -> Path:
    """Persist the (doc_id, simhash) signature table computed by the
    SAME deterministic kernel the pipeline uses (simhash64_batch), so
    the DuckDB oracle reproduces banding (4 x 16-bit keys via >>/&) and
    Hamming verification (bit_count(xor)) in SQL — the proven
    model-artifact technique from the ANN oracles. Content-keyed cache."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.dedup import simhash64_batch

    src = Path(sf_dir) / "documents.parquet"
    tag = _h.md5(src.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        docs = pq.read_table(src, columns=["doc_id", "text"])
        sigs = simhash64_batch(docs["text"].to_pylist())
        pq.write_table(
            pa.table(
                {
                    "doc_id": docs["doc_id"],
                    "simhash": pa.array(sigs, pa.int64()),
                }
            ),
            tmp,
        )

    return image_table.cached(f"simhash_sigs_{tag}.parquet", build)


def _winnow_fps_file(sf_dir: str, k: int = 12, window: int = 6) -> Path:
    """Persist the exploded (doc_id, fingerprint) winnow table computed
    by the SAME deterministic kernel the pipeline uses
    (winnow_fingerprints_one), so the overlap-pair query becomes plain
    SQL (self-join on fingerprint, HAVING count >= min_shared).
    Content-keyed cache."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.dedup import winnow_fingerprints_one

    src = Path(sf_dir) / "documents.parquet"
    tag = _h.md5(src.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        docs = pq.read_table(src, columns=["doc_id", "text"])
        ids_out, fps_out = [], []
        for rid, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
            fps = winnow_fingerprints_one(text or "", k, window)
            ids_out.extend([rid] * len(fps))
            fps_out.append(fps)
        flat = (
            np.concatenate(fps_out) if fps_out else np.empty(0, np.uint64)
        ).view(np.int64)
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids_out, pa.int64()),
                    "fingerprint": pa.array(flat, pa.int64()),
                }
            ),
            tmp,
        )

    return image_table.cached(f"winnow_fps_{tag}_k{k}_w{window}.parquet", build)


ANN_N_BITS = 6
ANN_SEED = 7


def _lsh_planes_file(dim: int) -> Path:
    """Persist the (deterministic, seeded) LSH hyperplanes so the DuckDB
    oracle can recompute bucket assignments with list_dot_product —
    sign(dot) is normalization-invariant, so the oracle works on raw
    embeddings. Cached per (dim, n_bits, seed)."""
    import pyarrow.parquet as pq

    from ..stages.similarity import _lsh_planes

    def build(tmp: Path) -> None:
        planes = _lsh_planes(dim, ANN_N_BITS, ANN_SEED)
        pq.write_table(
            pa.table(
                {
                    "bit": pa.array(range(ANN_N_BITS), pa.int64()),
                    "vec": pa.array(
                        [p.tolist() for p in planes], pa.list_(pa.float64())
                    ),
                }
            ),
            tmp,
        )

    return image_table.cached(
        f"lsh_planes_d{dim}_b{ANN_N_BITS}_s{ANN_SEED}.parquet", build)


def q_ann_lsh(sf_dir: str):
    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings")
    return ann_lsh(ds, mat, ids, k=10, n_bits=ANN_N_BITS, seed=ANN_SEED)


def _ivf_centroids_file(sf_dir: str) -> Path:
    """Persist the IVF coarse centroids (trained by the SAME seeded
    routine ann_ivf uses, on the same file-order sample) so the oracle
    can reproduce cell assignment with list_dot_product. argmax over
    dot(norm(e), c) equals argmax over dot(e, c) — |e| is constant per
    row — so the SQL needs no normalization."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.similarity import _normalize, ivf_train

    src = Path(sf_dir) / "embeddings.parquet"
    # content-keyed cache: path alone would serve stale centroids if the
    # embeddings file were regenerated in place
    tag = _h.md5(src.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        emb = pq.read_table(src)
        train = _normalize(
            np.stack(
                [np.asarray(v, np.float64)
                 for v in emb["embedding"].to_pylist()[:2048]]
            )
        )
        cents = ivf_train(train, 16, 5, 13)
        pq.write_table(
            pa.table(
                {
                    "cid": pa.array(range(len(cents)), pa.int64()),
                    "vec": pa.array(
                        [c.tolist() for c in cents], pa.list_(pa.float64())
                    ),
                }
            ),
            tmp,
        )

    return image_table.cached(f"ivf_cents_{tag}_c16_i5_s13.parquet", build)


def q_ann_ivf(sf_dir: str):
    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings")
    return ann_ivf(ds, mat, ids, k=10, n_centroids=16, n_probe=4)


def q_ann_ivf_distributed(sf_dir: str):
    """IVF top-k with centroids from FULL-corpus distributed spherical
    k-means (no driver training sample — the 100 TB IVF path). Rows-only
    check: a SQL oracle cannot replay distributed training; correctness
    is pinned by recall + parallelism-invariance tests
    (tests/test_ops.py::test_ann_ivf_distributed_training_recall)."""
    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings")
    return ann_ivf(ds, mat, ids, k=10, n_centroids=16, n_probe=4,
                   train="distributed")


def q_image_drift_psi(sf_dir: str):
    """Population Stability Index of fmt vs the stored reference profile
    (third drift statistic alongside chi-square and KS)."""
    import pyarrow.parquet as pq

    from ..stages.stats import psi_drift

    prof_tbl = pq.read_table(str(_img_dir(sf_dir) / "reference_profile.parquet"))
    profile = {
        b: f
        for c, b, f in zip(
            prof_tbl["column"].to_pylist(),
            prof_tbl["bucket"].to_pylist(),
            prof_tbl["freq"].to_pylist(),
        )
        if c == "fmt"
    }
    ds = read_images(_img_dir(sf_dir), ["fmt"])
    counts = ds.aggregate(ValueCounts("fmt", alias_name="vc"))["vc"]
    d = psi_drift(counts, profile)
    return pd.DataFrame(
        [{"statistic": round(d["statistic"], 6), "n": d["n"],
          "shifted": bool(d["shifted"])}]
    )


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroids (class-centroid aggregation) in
    long format, oracled against unnest + generate_subscripts SQL."""
    from ..stages.topk import grouped_vector_mean

    return grouped_vector_mean(_t(sf_dir, "embeddings"), "label", "embedding")


def q_minhash_dedup_groups(sf_dir: str):
    """Near-dup groups -> surviving doc ids (pairs + connected components)."""
    from ..stages.components import near_dedup_survivors

    docs = _t(sf_dir, "documents")
    pairs = minhash_dedup_pairs(docs, col="text", id_col="doc_id", threshold=0.8)
    return _collect(near_dedup_survivors(docs, pairs, "doc_id"), ["doc_id"])


def q_image_w_quantiles_by_fmt(sf_dir: str):
    """Exact per-format width quartiles over the image table — grouped
    order statistics via one (fmt, w) sort + per-group offsets."""
    import pyarrow.compute as pc

    from ..stages.rank import grouped_exact_quantiles

    ds = read_images(_img_dir(sf_dir), ["fmt", "w"]).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.is_valid(t["fmt"].combine_chunks()),
                pc.is_valid(t["w"].combine_chunks()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return grouped_exact_quantiles(ds, "fmt", "w", [0.25, 0.5, 0.75])


def q_retention_weekly(sf_dir: str):
    """Weekly cohort retention over the events table: distinct active
    users per week and how many return the following week."""
    from ..stages.window import retention_cohorts

    return retention_cohorts(_t(sf_dir, "events"))


def q_doc_ntile_by_lang(sf_dir: str):
    """Per-language length quartiles: NTILE(4) PARTITIONED BY lang —
    grouped equal-frequency binning over the zip-with-index plan (one
    sort; per-group offsets broadcast as an O(groups) dict)."""
    import pyarrow.compute as pc

    from ..stages.rank import grouped_ntile

    docs = _t(sf_dir, "documents").map_batches(
        lambda t: t.select(["doc_id", "lang", "n_chars"]).filter(
            pc.and_(
                pc.is_valid(t["lang"].combine_chunks()),
                pc.is_valid(t["n_chars"].combine_chunks()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return grouped_ntile(docs, "lang", ["n_chars", "doc_id"], k=4,
                         keep_cols=["doc_id", "lang"])


def q_weighted_sample(sf_dir: str):
    """Length-weighted sample of 50 docs (Efraimidis-Spirakis with md5
    uniforms — deterministic, parallelism-invariant), oracled against
    the same formula in SQL."""
    from ..stages.corpus import weighted_sample

    return weighted_sample(_t(sf_dir, "documents"), weight_col="n_chars", n=50)


BM25_TERMS = ("shuffle", "vector", "merge")


def q_bm25_topk(sf_dir: str):
    """BM25 lexical retrieval: top-10 documents for a fixed bag of query
    terms (idf+1 variant, k1=1.5, b=0.75) — oracled against the full
    BM25 formula spelled out in SQL."""
    from ..stages.text import bm25_topk

    return bm25_topk(_t(sf_dir, "documents"), BM25_TERMS, k=10)


def q_events_rolling_mean(sf_dir: str):
    """Per-user moving average of event value over the last 3 events
    (segmented per-bucket scan; oracled against a SQL window AVG)."""
    from ..stages.window import grouped_rolling_mean

    return grouped_rolling_mean(_t(sf_dir, "events"), window=3)


def q_pack_sequences(sf_dir: str):
    """Concat-and-split sequence packing (GPT training layout): global
    token prefix sums via one remote sum per block + driver prefix over
    O(blocks) ints; oracled against a SQL window sum."""
    from ..stages.corpus import pack_sequences

    return pack_sequences(_t(sf_dir, "documents"), seq_len=512)


def q_embedding_kmeans(sf_dir: str):
    """Iterative distributed k-means over the embedding column (5 Lloyd
    iterations; centroids broadcast per round, per-batch matmul assign +
    k x d partials — no shuffle). Deterministic md5-order seeding, so
    assignments are stable across runs and parallelism (rows-only
    check: iterative, not SQL-expressible)."""
    from ..stages.cluster import kmeans_assignments

    return kmeans_assignments(_t(sf_dir, "embeddings"), k=8, iters=5)


def _kmeans_centroids_file(sf_dir: str) -> Path:
    """Persist deterministic k-means centroids (same md5-sample +
    farthest-point seeding and Lloyd updates as the distributed stage)
    so the SQL oracle can reproduce the nearest-centroid ASSIGNMENT —
    the proven ANN-IVF artifact trick applied to clustering: training is
    model-sized and driver-side, the corpus-sized assignment pass is
    the distributed operator under test."""
    return _centroids_file_for(Path(sf_dir) / "embeddings.parquet")


def _centroids_file_for(src: Path, *, k: int = 8, iters: int = 5) -> Path:
    """The persisted-centroid artifact for ANY embedding parquet (the
    base table or a seeded fixture), cache-keyed by file content."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.cluster import kmeans_train_numpy

    tag = _h.md5(Path(src).read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        emb = pq.read_table(src)
        x = np.stack(
            [np.asarray(v, np.float64) for v in emb["embedding"].to_pylist()]
        )
        cents = kmeans_train_numpy(
            emb["vec_id"].to_pylist(), x, k=k, iters=iters, sample_size=512
        )
        pq.write_table(
            pa.table(
                {
                    "cid": pa.array(range(len(cents)), pa.int64()),
                    "vec": pa.array(
                        [c.tolist() for c in cents], pa.list_(pa.float64())
                    ),
                }
            ),
            tmp,
        )

    return image_table.cached(f"kmeans_cents_{tag}_k{k}_i{iters}.parquet", build)


def q_embedding_kmeans_assign(sf_dir: str):
    """Distributed nearest-centroid assignment against the persisted
    deterministic centroids — the oracled member of the k-means family
    (the iterative twin embedding_kmeans stays rows-only)."""
    import pyarrow.parquet as pq

    from ..stages.cluster import assign_with_centroids

    cents = pq.read_table(_kmeans_centroids_file(sf_dir))
    c = np.stack(
        [np.asarray(v, np.float64) for v in cents["vec"].to_pylist()]
    )
    return assign_with_centroids(_t(sf_dir, "embeddings"), c)


def q_embedding_near_dups(sf_dir: str):
    return cosine_near_dup_pairs(_t(sf_dir, "embeddings"), threshold=0.9)


def q_embedding_dedup_survivors(sf_dir: str):
    """Full embedding-dedup composite over the seeded fixture: multi-table
    LSH pairs -> connected components -> surviving vec_ids (every id
    minus non-keeper group members)."""
    from ..sources.embedding_fixture import seeded_near_dup_embeddings
    from ..stages.components import near_dedup_survivors

    path = seeded_near_dup_embeddings(sf_dir)
    ds = rd.read_parquet(str(path))
    pairs = cosine_near_dup_pairs(ds, threshold=0.9)
    return _collect(near_dedup_survivors(ds, pairs, "vec_id"), ["vec_id"])


def q_embedding_near_dups_seeded(sf_dir: str):
    """Falsifiable near-dup detection: the seeded fixture plants 16
    perturbed copies (cos >= 0.999) into the base embeddings; the
    multi-table LSH pipeline must recover exactly the pairs the
    exhaustive SQL cross-join finds."""
    from ..sources.embedding_fixture import seeded_near_dup_embeddings

    path = seeded_near_dup_embeddings(sf_dir)
    return cosine_near_dup_pairs(rd.read_parquet(str(path)), threshold=0.9)


def _semdedup_inputs(sf_dir: str):
    """(fixture path, centroid matrix) shared by the SemDeDup queries:
    the seeded near-dup table plus its persisted deterministic
    centroids (float64, ready to broadcast)."""
    import pyarrow.parquet as pq

    from ..sources.embedding_fixture import seeded_near_dup_embeddings

    path = seeded_near_dup_embeddings(sf_dir)
    cents = pq.read_table(_centroids_file_for(path))
    c = np.stack([np.asarray(v, np.float64) for v in cents["vec"].to_pylist()])
    return path, c


def q_semdedup_pairs(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): persisted-centroid assignment ->
    within-cluster exact cosine pairs at >= 0.9, over the seeded
    near-dup fixture (16 planted pairs make the check falsifiable).
    The oracle reproduces the assignment from the SAME centroid
    artifact and the within-cluster cross join in SQL, so the
    cluster-partitioned semantics are pinned exactly — not certified
    by recall like the LSH twin."""
    from ..stages.similarity import semdedup_pairs

    path, c = _semdedup_inputs(sf_dir)
    return semdedup_pairs(rd.read_parquet(str(path)), c, threshold=0.9,
                          max_cluster=None)


def q_semdedup_survivors(sf_dir: str):
    """SemDeDup end-to-end: within-cluster pairs -> connected components
    -> keep-min-id survivors (the paper keeps one exemplar per semantic
    duplicate group; min-id is the deterministic stand-in for its
    random/centroid-distance choice)."""
    from ..stages.components import near_dedup_survivors
    from ..stages.similarity import semdedup_pairs

    path, c = _semdedup_inputs(sf_dir)
    ds = rd.read_parquet(str(path))
    pairs = semdedup_pairs(ds, c, threshold=0.9, max_cluster=None)
    return _collect(near_dedup_survivors(ds, pairs, "vec_id"), ["vec_id"])


def q_line_dedup_docs(sf_dir: str):
    """CCNet-style line-level dedup over the seeded multi-line fixture
    (planted shared header/footer + intra-doc repeats): drop every line
    already seen earlier in the corpus (first occurrence by (doc_id,
    pos) wins), rebuild documents from survivors. Exactly reproducible
    in SQL, so fully oracled."""
    from ..sources.line_fixture import line_documents
    from ..stages.lines import line_dedup

    path = line_documents(sf_dir)
    return _collect(
        line_dedup(rd.read_parquet(str(path))),
        ["doc_id", "text", "n_kept", "n_total"],
    )


def q_c4_clean(sf_dir: str):
    """The C4 cleaning rules (terminal-punctuation lines, >= 3 words,
    no javascript lines; pages: no lorem ipsum, no curly braces, >= 5
    surviving lines) over the seeded C4 fixture. Pure per-batch map —
    zero shuffle — and exactly reproducible in SQL."""
    from ..sources.line_fixture import c4_documents
    from ..stages.lines import c4_clean

    path = c4_documents(sf_dir)
    return _collect(
        c4_clean(rd.read_parquet(str(path))),
        ["doc_id", "text", "n_kept", "n_total"],
    )


def _cents_rollup(ds, key_cols, money_col, money_out, count_out):
    """Grouped money rollup: the money column in integer cents, summed
    and counted per key by ``bucket_combine``. Shared by the
    TPC-H-style rollup queries."""
    import pyarrow.compute as _pc

    keys = list(key_cols)

    def prep(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        cols["cents"] = _pc.cast(
            _pc.round(_pc.multiply(t[money_col], 100.0)), pa.int64()
        )
        return pa.table(cols)

    out = bucket_combine(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        keys, {money_out: ("cents", "sum"), count_out: ("cents", "count_all")})
    return _collect(out, keys + [money_out, count_out])


def q_supplier_acctbal_by_region(sf_dir: str):
    """Dimension rollup touching the remaining TPC-H tables: supplier
    -> nation -> region through two broadcast joins, account balances
    summed per region in integer cents."""
    from ..stages.join import broadcast_hash_join

    sup = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey",
                                               "s_acctbal"]
    )
    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = rd.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    j = broadcast_hash_join(
        broadcast_hash_join(sup, nation, on="s_nationkey",
                            right_on="n_nationkey"),
        region, on="n_regionkey", right_on="r_regionkey",
    )
    return _cents_rollup(j, ["r_name"], "s_acctbal",
                         "acctbal_cents", "n_suppliers")


def q_part_type_stats(sf_dir: str):
    """Per-part-type counts + retail price sums (integer cents) — the
    part table's grouped profile, combiner-first."""
    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_type", "p_retailprice"]
    )
    return _cents_rollup(part, ["p_type"], "p_retailprice",
                         "retail_cents", "n_parts")


def q_validate_struct_events(sf_dir: str):
    """Native pa.struct column validation — vectorized nested descent
    over a real struct<...struct<...>> column (no JSON strings, no row
    kernel): required members, in_set/range checks, dotted paths into
    the nested geo struct. Seeded fixture plants all four defect
    classes."""
    from ..sources.struct_fixture import struct_events
    from ..stages.struct_validate import StructField, validate_struct_column

    # check-only members are explicitly NOT required — the oracle has
    # missing-key clauses only where the spec demands presence (meta.k)
    spec = {
        "k": StructField(required=True),
        "device": StructField(required=False,
                              checks=[in_set(("ios", "android", "web"))]),
        "version": StructField(required=False,
                               checks=[range_check(lo=0)]),
        "geo": StructField(
            required=False,
            fields={
                "lat": StructField(required=False,
                                   checks=[range_check(lo=-90, hi=90)]),
                "lon": StructField(required=False,
                                   checks=[range_check(lo=-180, hi=180)]),
            },
        ),
    }
    ds = rd.read_parquet(str(struct_events(sf_dir)))
    return _collect(
        validate_struct_column(ds, col="meta", id_col="event_id", spec=spec,
                               required=False),
        ["event_id", "path", "code", "expected"],
    )


def q_validate_map_events(sf_dir: str):
    """Native pa.map_ column validation — schisma's regex-key semantics
    at table level: keys must match ^k[0-9]+$ (unexpected key), values
    in [0, 99] (invalid). Seeded map fixture plants both."""
    from ..sources.struct_fixture import map_events
    from ..stages.struct_validate import validate_map_column

    ds = rd.read_parquet(str(map_events(sf_dir)))
    return _collect(
        validate_map_column(
            ds, col="attrs", id_col="event_id",
            key_pattern="^k[0-9]+$",
            value_checks=[range_check(lo=0, hi=99)],
        ),
        ["event_id", "path", "code", "expected"],
    )


def q_validate_embedding_lists(sf_dir: str):
    """Native pa.list_ column validation over the real embeddings
    table: per-row length invariant + vectorized element range check
    (one kernel pass over the flattened child array); violating
    elements report 0-based indexed paths ``embedding.IDX``."""
    from ..stages.struct_validate import validate_list_column

    return _collect(
        validate_list_column(
            _t(sf_dir, "embeddings"), col="embedding", id_col="vec_id",
            element_checks=[range_check(lo=-0.45, hi=0.45)],
            min_len=1, max_len=64,
        ),
        ["vec_id", "path", "code", "expected"],
    )


def q_embedding_validity(sf_dir: str):
    """Vector-sanity validation over the corrupt-embedding fixture
    (planted NaN / ±inf elements, null elements, all-zero vectors,
    truncated lists — the degenerate embeddings a trained-on corpus
    must not contain): finite element check, non-null element check,
    non-zero-vector check, length invariant — all in ONE flattened
    kernel pass per batch, zero shuffle."""
    from ..sources.embedding_fixture import corrupt_embeddings
    from ..stages.struct_validate import validate_list_column
    from ..stages.table_schema import finite_check

    ds = rd.read_parquet(str(corrupt_embeddings(sf_dir)))
    return _collect(
        validate_list_column(
            ds, col="embedding", id_col="vec_id",
            element_checks=[finite_check()],
            min_len=4, max_len=64,
            forbid_null_elements=True, forbid_zero_vector=True,
        ),
        ["vec_id", "path", "code", "expected"],
    )


def q_lang_mismatches(sf_dir: str):
    """Label-consistency audit: documents whose declared lang disagrees
    with the heuristic prediction (mislabeled-data sweep). Same
    SQL-encoded heuristic as lang_id, joined back to the label."""
    from ..stages.text import lang_mismatches

    return _collect(
        lang_mismatches(_t(sf_dir, "documents")),
        ["doc_id", "lang", "lang_pred"],
    )


def q_top_tokens(sf_dir: str):
    """The canonical distributed word count: explode whitespace tokens
    (Arrow split/flatten — no Python rows), per-batch (token, n)
    combiner partials, global groupby sum, top 25 by (count desc,
    token). The shuffle carries collapsed partials, never tokens."""
    import pyarrow.compute as _pc

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def tokens(t: pa.Table) -> pa.Table:
        words = _pc.split_pattern_regex(t["text"].combine_chunks(), r"\s+")
        flat = _pc.list_flatten(words)
        return pa.table({"token": flat.filter(_pc.not_equal(flat, ""))})

    total = bucket_combine(
        docs.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True),
        "token", {"n": ("token", "count_all")})

    def local_topk(t: pa.Table) -> pa.Table:
        # per-block top 25: the driver fold sees <= 25 x blocks rows,
        # never the vocabulary (counts are final post-groupby, so a
        # global top-25 member is in its block's top 25)
        idx = _pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("token", "ascending")]
        )
        return t.take(idx.slice(0, 25))

    folded = _collect(
        total.map_batches(local_topk, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["token", "n"],
    )
    idx = pa.compute.sort_indices(
        folded, sort_keys=[("n", "descending"), ("token", "ascending")]
    )
    return folded.take(idx.slice(0, 25))


def q_event_type_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence: for every unordered pair of event
    types, how many users performed both. Per-batch distinct
    (user, type) pairs (combiner), one user-hash-bucket groupby, pairs
    emitted per user via a vectorized per-bucket pass, then a tiny
    pair-count fold."""
    from ..stages.window import event_type_cooccurrence

    return _collect(
        event_type_cooccurrence(_t(sf_dir, "events")),
        ["type_a", "type_b", "n_users"],
    )


def q_lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary: per (returnflag, linestatus)
    sums of quantity / base price / discounted price / charge and row
    counts, shipdate-filtered. All money in integer cents and
    cent-percent products (cents x (100-disc) x (100+tax)) so SQL
    agrees exactly. Combiner-first: each batch pre-aggregates to at
    most a handful of group rows; the shuffle carries partials only."""
    import datetime

    import pyarrow.compute as _pc

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    )
    cutoff = datetime.datetime(1998, 9, 2)

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(_pc.less_equal(t["l_shipdate"], pa.scalar(cutoff)))
        cents = _pc.cast(_pc.round(_pc.multiply(t["l_extendedprice"], 100.0)),
                         pa.int64())
        disc = _pc.cast(_pc.round(_pc.multiply(t["l_discount"], 100.0)),
                        pa.int64())
        tax = _pc.cast(_pc.round(_pc.multiply(t["l_tax"], 100.0)), pa.int64())
        disc_cp = _pc.multiply(cents, _pc.subtract(pa.scalar(100), disc))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": _pc.cast(_pc.round(t["l_quantity"]), pa.int64()),
                "cents": cents,
                "disc_cp": disc_cp,
                "charge_cpp": _pc.multiply(disc_cp,
                                           _pc.add(pa.scalar(100), tax)),
            }
        )

    return _collect(
        bucket_combine(
            li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
            ["l_returnflag", "l_linestatus"],
            {"sum_qty": ("qty", "sum"), "sum_base_cents": ("cents", "sum"),
             "sum_disc_cp": ("disc_cp", "sum"),
             "sum_charge_cpp": ("charge_cpp", "sum"),
             "n": ("qty", "count_all")}),
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents",
         "sum_disc_cp", "sum_charge_cpp", "n"],
    )


def q_revenue_by_nation(sf_dir: str):
    """Star-schema rollup (TPC-H Q5-lite): orders -> customer -> nation
    through two BROADCAST joins (both dimensions are ray.put once),
    then a combiner-first revenue sum per nation in integer cents."""
    from ..stages.join import broadcast_hash_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    j2 = broadcast_hash_join(
        broadcast_hash_join(orders, cust, on="o_custkey",
                            right_on="c_custkey"),
        nation, on="c_nationkey", right_on="n_nationkey",
    )
    return _cents_rollup(j2, ["n_name"], "o_totalprice",
                         "revenue_cents", "n_orders")


def q_fd_violations(sf_dir: str):
    """Functional-dependency audit phash -> fmt over duplicated phashes:
    which repeated perceptual hashes map to MORE than one distinct
    format (47 violating vs 56 clean groups at sf0.01 — exact copies
    keep their fmt, colliding hashes don't)."""
    from ..stages.profile import fd_violations

    ds = read_images(_img_dir(sf_dir), ["phash", "fmt"])
    return _collect(
        fd_violations(ds, lhs="phash", rhs="fmt", min_group=2),
        ["phash", "n_rows", "n_rhs"],
    )


def q_coverage_gaps(sf_dir: str):
    """Stratum-coverage audit over (fmt, w-bucket-of-4): expected grid
    includes 'gif' (never generated) so the gap set is falsifiable —
    every gif cell must surface, every represented cell must not. The
    complement of the drift checks: absent strata, not skewed ones."""
    from ..stages.profile import coverage_gaps

    ds = read_images(_img_dir(sf_dir), ["fmt", "w"])

    def add_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # non-negative w only: DuckDB // truncates, numpy floors
        t = t.filter(pc.and_(pc.is_valid(t["w"]),
                             pc.greater_equal(t["w"], 0)))
        b = pc.cast(pc.divide(t["w"], 4), pa.int64())
        return pa.table({"fmt": t["fmt"], "w_bucket": b})

    return coverage_gaps(
        ds.map_batches(add_bucket, batch_format="pyarrow",
                       zero_copy_batch=True),
        cols=["fmt", "w_bucket"],
        expected={"fmt": ["gif", "jpeg", "png", "webp"],
                  "w_bucket": list(range(2, 9))},
    )


def q_caption_conflicts(sf_dir: str):
    """Label-conflict audit over duplicated perceptual hashes: phash
    groups (the same image content) carrying MORE than one distinct
    caption — the classic "duplicate images, conflicting labels"
    training-data check (102 conflicting groups at sf0.01). Same
    combiner-first FD kernel as `fd_violations`: batches collapse to
    distinct (phash, caption) pairs before the one bucket shuffle."""
    from ..stages.profile import fd_violations

    ds = read_images(_img_dir(sf_dir), ["phash", "caption"])
    return _collect(
        fd_violations(ds, lhs="phash", rhs="caption", min_group=2),
        ["phash", "n_rows", "n_rhs"],
    )


def q_lineitem_mad_outliers(sf_dir: str):
    """Robust outlier detection via MAD (median absolute deviation):
    exact distributed median of l_extendedprice (order statistic), then
    exact median of |x - med| (second pass), flag rows with
    |x - med| > 1.9 * MAD (fence scaled to this near-uniform price
    distribution so it actually fires — spelled as the integer
    comparison dev * 10 > 19 * MAD). Two sort-based aggregates + one
    broadcast filter; all arithmetic on integer cents so SQL agrees
    exactly."""
    import pyarrow.compute as _pc

    from ..stages.rank import exact_quantiles

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"],
    )

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "cents": _pc.cast(
                    _pc.round(_pc.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    cents = li.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    med = int(exact_quantiles(cents, "cents", [0.5])["value"][0].as_py())

    def abs_dev(t: pa.Table) -> pa.Table:
        return t.append_column(
            "dev", _pc.abs(_pc.subtract(t["cents"], med))
        )

    devs = cents.map_batches(abs_dev, batch_format="pyarrow", zero_copy_batch=True)
    mad = int(exact_quantiles(devs, "dev", [0.5])["value"][0].as_py())

    out = devs.map_batches(
        lambda t: t.filter(
            _pc.greater(_pc.multiply(t["dev"], 10), 19 * mad)
        ).select(
            ["l_orderkey", "l_linenumber", "cents", "dev"]
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return _collect(out, ["l_orderkey", "l_linenumber", "cents", "dev"])


def q_event_gaps(sf_dir: str):
    """Telemetry gap detection: per-user consecutive-event gaps longer
    than 6h — (user_id, gap_start_ts, gap_us). Same segmented-bucket
    scan shape as sessionization; lag order (ts, event_id); gaps in
    exact microseconds so SQL date_diff agrees."""
    from ..stages.window import event_gaps

    return _collect(
        event_gaps(_t(sf_dir, "events"), min_gap_s=21600),
        ["user_id", "gap_start_ts", "gap_us"],
    )


def q_image_byte_dupes(sf_dir: str):
    """Exact BYTE-level image dedup groups: md5(hex(bytes)) fingerprint
    per image, groups with >= 2 identical encodings (the cheap
    pre-phash dedup pass of a multimodal pipeline). The shuffle carries
    only (fingerprint) after projection."""
    import pyarrow.compute as _pc

    from ..stages.dedup import binary_fingerprint

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes"])
    ds = ds.map_batches(
        lambda t: t.filter(_pc.is_valid(t["bytes"])),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    fps = binary_fingerprint(ds, col="bytes", id_col="image_id")
    counts = bucket_combine(fps, "fingerprint",
                            {"n": ("fingerprint", "count_all")})
    dupes = counts.map_batches(
        lambda t: t.rename_columns(["fp", "n"]).filter(
            _pc.greater_equal(t["n"], 2)),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return _collect(dupes, ["fp", "n"])


def _log2_table_file() -> Path:
    """Persist the frozen integer-log2 artifact (m, l_e12) consumed by
    both the Ray ``char_entropy`` scorer and its SQL oracle. A pure
    function of the formula — keyed only by table size."""
    import pyarrow.parquet as pq

    from ..stages.text import LOG2_TABLE_SIZE, build_log2_table

    return image_table.cached(
        f"log2_e12_m{LOG2_TABLE_SIZE}.parquet",
        lambda tmp: pq.write_table(build_log2_table(LOG2_TABLE_SIZE), tmp))


def q_char_entropy(sf_dir: str):
    """Per-document Shannon character entropy (e6-integer bits) over
    the documents table — the compression-style quality signal. Exact
    vs SQL via the persisted integer-log2 artifact: both sides do pure
    int64 arithmetic (N*L(N) - sum n*L(n), then one integer division)."""
    import pyarrow.parquet as pq

    from ..stages.text import char_entropy

    table = pq.read_table(_log2_table_file())
    return _collect(
        char_entropy(_t(sf_dir, "documents"), table),
        ["doc_id", "n_chars", "entropy_e6"],
    )


def _bigram_lm_file(sf_dir: str) -> Path:
    """Persist the char-bigram LM trained on the held-in reference slice
    (doc_id % 10 == 0) — the KenLM-style artifact both the Ray scorer
    and the SQL oracle consume. Integer log-probs frozen at train time,
    so scoring is pure int summation on both sides."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.text import train_char_bigram_lm

    src = Path(sf_dir) / "documents.parquet"
    tag = _h.md5(src.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        docs = pq.read_table(src, columns=["doc_id", "text"])
        texts = [
            t for i, t in zip(docs["doc_id"].to_pylist(),
                              docs["text"].to_pylist())
            if i % 10 == 0
        ]
        pq.write_table(train_char_bigram_lm(texts), tmp)

    # v2: trainer counts codepoint (not byte) bigrams
    return image_table.cached(f"bigram_lm2_{tag}.parquet", build)


def _word_classifier_file(sf_dir: str) -> Path:
    """Persist the naive-Bayes log-odds word-classifier artifact
    trained on the held-in slice (doc_id % 10 == 0, label = lang is
    'en') — the DCLM/FineWeb-Edu-style model both the Ray scorer and
    the SQL oracle consume. Weights frozen as e6 ints at train time."""
    import hashlib as _h

    import pyarrow.parquet as pq

    from ..stages.text import train_word_classifier

    src = Path(sf_dir) / "documents.parquet"
    tag = _h.md5(src.read_bytes()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        docs = pq.read_table(src, columns=["doc_id", "text", "lang"])
        held = [
            (t, lg == "en")
            for i, t, lg in zip(docs["doc_id"].to_pylist(),
                                docs["text"].to_pylist(),
                                docs["lang"].to_pylist())
            if i % 10 == 0
        ]
        pq.write_table(
            train_word_classifier([t for t, _ in held],
                                  [l for _, l in held]),
            tmp,
        )

    return image_table.cached(f"word_clf_{tag}.parquet", build)


def q_classifier_scores(sf_dir: str):
    """Frozen-weight linear classifier scoring over all documents
    (model broadcast once; whitespace explode + index_in + bincount
    per batch). The model-based quality-filter canon slot (fastText /
    DCLM / FineWeb-Edu), exact vs SQL by integer weight summation."""
    import pyarrow.parquet as pq

    from ..stages.text import classifier_score

    model = pq.read_table(_word_classifier_file(sf_dir))
    return _collect(
        classifier_score(_t(sf_dir, "documents"), model),
        ["doc_id", "score_e6", "n_hits"],
    )


def q_lm_scores(sf_dir: str):
    """CCNet/KenLM-style LM scoring: every document's total integer
    log-prob + bigram count under the persisted reference char-bigram
    model (perplexity-proxy quality filtering thresholds on
    lp_e6 / n_bigrams downstream)."""
    import pyarrow.parquet as pq

    from ..stages.text import lm_score

    model = pq.read_table(_bigram_lm_file(sf_dir))
    return _collect(
        lm_score(_t(sf_dir, "documents"), model),
        ["doc_id", "lp_e6", "n_bigrams"],
    )


def q_aspect_buckets(sf_dir: str):
    """SDXL-style aspect-ratio bucket assignment over the image table
    (column-pruned read: only id/w/h leave storage). Integer-exact
    fixed-point AR distance, ties to the lower bucket index."""
    from ..stages.multimodal import aspect_bucket_assign

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h"])
    return _collect(
        aspect_bucket_assign(ds),
        ["image_id", "ar_e6", "bucket_w", "bucket_h"],
    )


def q_image_res_tiers(sf_dir: str):
    """Resolution-tier routing by min(w, h): reject / thumb / small /
    medium / large bands — decode-free, column-pruned, zero shuffle."""
    from ..stages.multimodal import res_tier_assign

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h"])
    # fixture-scaled breaks (min sides run 8..32px) so every band fires
    return _collect(
        res_tier_assign(ds, breaks=(12, 16, 24, 32)),
        ["image_id", "min_side", "tier", "tier_name"],
    )


def q_tier_fmt_residuals(sf_dir: str):
    """Per-resolution-tier format drift: standardized residuals of the
    (tier, fmt) contingency cells vs independence — which tier's format
    mix diverges from the corpus."""
    from ..stages.multimodal import tier_fmt_residuals

    ds = read_images(_img_dir(sf_dir), ["w", "h", "fmt"])
    return tier_fmt_residuals(ds, breaks=(12, 16, 24, 32))


def q_image_tiles(sf_dir: str):
    """ViT-patch / crop-grid plan: every image exploded into its 8x8
    tile rows (grid coords, pixel origin, edge-clipped extent).
    Decode-free metadata arithmetic — column-pruned read, vectorized
    explode, zero shuffle."""
    from ..stages.multimodal import tile_grid

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h"])
    return _collect(
        tile_grid(ds, tile=8),
        ["image_id", "tile_x", "tile_y", "x0", "y0", "tw", "th"],
    )


def q_aspect_bucket_waste(sf_dir: str):
    """Letterbox-padding audit per aspect-ratio bucket: how many padded
    pixels the bucket plan burns (integer fit-scale, combiner-first
    per-bucket rollup)."""
    from ..stages.multimodal import aspect_bucket_waste

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h"])
    return _collect(
        aspect_bucket_waste(ds),
        ["bucket_w", "bucket_h", "n_images", "total_waste_px",
         "max_waste_px"],
    )


def q_clip_score_filter(sf_dir: str):
    """CLIP-score-style image/caption alignment filter over the seeded
    paired-embedding fixture (every 4th pair mis-captioned): keep pairs
    with cosine >= 0.5. Row-local, zero shuffle."""
    from ..sources.embedding_fixture import paired_caption_embeddings
    from ..stages.similarity import paired_cosine_filter

    path = paired_caption_embeddings(sf_dir)
    return _collect(
        paired_cosine_filter(rd.read_parquet(str(path)), threshold=0.5),
        ["pair_id", "sim"],
    )


def q_clip_score_rejects(sf_dir: str):
    """The reject stream of the alignment filter (mis-captioned pairs)."""
    from ..sources.embedding_fixture import paired_caption_embeddings
    from ..stages.similarity import paired_cosine_filter

    path = paired_caption_embeddings(sf_dir)
    return _collect(
        paired_cosine_filter(
            rd.read_parquet(str(path)), threshold=0.5, keep_below=True
        ),
        ["pair_id", "sim"],
    )


def q_events_time_deduped(sf_dir: str):
    """Time-window event dedup: drop events repeating the same
    (user_id, event_type) within 600s of the previous one (lag-based,
    at-least-once-delivery cleanup)."""
    from ..stages.window import event_time_dedup

    return _collect(
        event_time_dedup(_t(sf_dir, "events"), min_gap_s=600),
        ["event_id", "user_id", "event_type", "ts"],
    )


def q_docs_quality_top75(sf_dir: str):
    """Two-pass global-threshold filter: exact P25 of the quality score
    (distributed order statistic), threshold broadcast, keep docs with
    score >= P25. The aggregate->broadcast->filter composite shape."""
    import pyarrow.compute as _pc

    from ..stages.rank import exact_quantiles
    from ..stages.text import quality_score

    scores = quality_score(_t(sf_dir, "documents"))
    thr = exact_quantiles(scores, "score", [0.25])["value"][0].as_py()
    kept = scores.map_batches(
        lambda t: t.filter(_pc.greater_equal(t["score"], thr)),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return _collect(kept, ["doc_id", "score"])


def q_concat_chunks(sf_dir: str):
    """GPT-style concat-and-chunk shards over the documents table:
    docs concatenated in doc_id order with an <|eos|> separator, the
    global token stream split every 256 tokens, chunk texts
    reassembled distributed (pieces shuffled once by chunk bucket)."""
    from ..stages.corpus import concat_chunks

    return _collect(
        concat_chunks(_t(sf_dir, "documents"), chunk_tokens=256),
        ["chunk_id", "text", "n_tokens"],
    )


def q_gopher_quality(sf_dir: str):
    """Gopher word-statistics rules over the base documents table, with
    corpus-scaled bounds so every rule fires both ways on this data
    (the paper's defaults live on the operator): words in [30, 100000],
    mean word length in [3.0, 4.5] (as e6 integers), >= 1 distinct
    common stopword. One row per doc with per-rule booleans."""
    from ..stages.text import gopher_quality

    return _collect(
        gopher_quality(
            _t(sf_dir, "documents"),
            min_words=30,
            max_mean_len_e6=4_500_000,
            min_distinct_stop=1,
        ),
        ["doc_id", "n_words", "mean_len_e6", "n_stop",
         "pass_words", "pass_mean", "pass_stop", "passed"],
    )


def q_corpus_prepare_lines(sf_dir: str):
    """Production corpus prep WITH the CCNet line-dedup stage, over the
    multi-line fixture (planted shared header/footer/intra-doc repeats):
    line_dedup -> email redaction -> lang + quality filter -> exact
    dedup keep-first -> per-source cap of 10 -> 80/60 chunking — the
    ``prepare_corpus(line_dedup=True)`` composite, same code path as
    the CLI ``prepare --line-dedup``."""
    from ..sources.line_fixture import line_documents
    from .corpus_pipeline import prepare_corpus

    docs = rd.read_parquet(str(line_documents(sf_dir)))
    return _collect(
        prepare_corpus(
            docs, line_dedup=True, langs=("en",), min_quality=0.5,
            cap_per_source=10, chunk_size=80, chunk_stride=60,
        ),
        ["doc_id", "chunk_idx", "chunk_text"],
    )


def q_corpus_prepare_hygiene(sf_dir: str):
    """Production corpus prep WITH the encoding-hygiene screen, over
    the seeded hygiene fixture (planted U+FFFD / control-char docs):
    email redaction -> lang + quality filter + hygiene drop -> exact
    dedup keep-first -> per-source cap of 10 -> 80/60 chunking — the
    ``prepare_corpus(hygiene=True)`` composite, same code path as the
    CLI ``prepare --hygiene``."""
    from ..sources.line_fixture import hygiene_documents
    from .corpus_pipeline import prepare_corpus

    docs = rd.read_parquet(str(hygiene_documents(sf_dir)))
    return _collect(
        prepare_corpus(
            docs, hygiene=True, langs=("en",), min_quality=0.5,
            cap_per_source=10, chunk_size=80, chunk_stride=60,
        ),
        ["doc_id", "chunk_idx", "chunk_text"],
    )


def q_corpus_prepare_substr(sf_dir: str):
    """Production corpus prep WITH the ExactSubstr span-removal stage
    (Lee et al. 2021) over the documents table (planted exact-duplicate
    spans): email redaction -> lang + quality filter -> ExactSubstr
    clean (k=5, duplicated runs dropped, emptied docs out) -> exact
    dedup keep-first -> per-source cap of 10 -> 80/60 chunking — the
    ``prepare_corpus(exact_substr_k=5)`` composite, same code path as
    the CLI ``prepare --exact-substr-k 5``."""
    from .corpus_pipeline import prepare_corpus

    docs = _t(sf_dir, "documents")
    return _collect(
        prepare_corpus(
            docs, exact_substr_k=5, langs=("en",), min_quality=0.5,
            cap_per_source=10, chunk_size=80, chunk_stride=60,
        ),
        ["doc_id", "chunk_idx", "chunk_text"],
    )


def q_duplicated_lines(sf_dir: str):
    """The boilerplate report: every line occurring >= 2 times across
    the corpus, with its global count."""
    from ..sources.line_fixture import line_documents
    from ..stages.lines import duplicated_lines

    path = line_documents(sf_dir)
    return _collect(
        duplicated_lines(rd.read_parquet(str(path))), ["line", "n"]
    )


def q_gopher_format(sf_dir: str):
    """Gopher A1.1 FORMAT rule audit (symbol ratio, bullet-line and
    ellipsis-line fractions, alphabetic-word fraction + pass booleans)
    over the seeded format fixture with planted violations of each
    rule."""
    from ..sources.line_fixture import format_documents
    from ..stages.text import gopher_format

    return _collect(
        gopher_format(rd.read_parquet(str(format_documents(sf_dir)))),
        ["doc_id", "symbol_ratio_e6", "bullet_frac_e6", "ellipsis_frac_e6",
         "alpha_word_frac_e6", "pass_symbol", "pass_bullet",
         "pass_ellipsis", "pass_alpha", "passed"],
    )


def q_text_hygiene(sf_dir: str):
    """Encoding-hygiene screen (mojibake U+FFFD + C0 control chars)
    over the seeded hygiene fixture with planted decode-corruption
    defects. Row-local vectorized kernels, zero shuffle."""
    from ..sources.line_fixture import hygiene_documents
    from ..stages.text import text_hygiene

    return _collect(
        text_hygiene(rd.read_parquet(str(hygiene_documents(sf_dir)))),
        ["doc_id", "n_chars", "n_replacement", "n_control", "passed"],
    )


def q_url_blocked(sf_dir: str):
    """UT1-style domain-blocklist audit over the seeded URL fixture:
    every document tagged with its host and whether the host equals or
    is a subdomain of a blocked domain (blocklist broadcast once,
    vectorized label-strip + is_in per batch)."""
    from ..sources.url_fixture import BLOCKED_DOMAINS, url_documents
    from ..stages.urlfilter import url_blocklist

    return _collect(
        url_blocklist(
            rd.read_parquet(str(url_documents(sf_dir))), BLOCKED_DOMAINS
        ),
        ["doc_id", "host", "blocked"],
    )


def q_gopher_repetition(sf_dir: str):
    """Gopher repetition-removal audit (dup-line fraction, dup-line
    char fraction, top-2-gram char fraction, dup-5-gram char fraction,
    all e6-integers) over the multi-line fixture — the planted
    header/footer/intra-doc repeats are what the signals must flag."""
    from ..sources.line_fixture import line_documents
    from ..stages.text import gopher_repetition

    return _collect(
        gopher_repetition(rd.read_parquet(str(line_documents(sf_dir)))),
        ["doc_id", "n_lines", "dup_line_frac_e6", "dup_line_char_frac_e6",
         "top2_char_frac_e6", "dup5_char_frac_e6"],
    )


def q_cross_corpus_near_dups(sf_dir: str):
    """Incremental FUZZY dedup: near-dup pairs (>= 0.8 Jaccard) between
    the 'new crawl' slice (doc_id % 3 != 0) and the 'existing corpus'
    slice (doc_id % 3 == 0) — same MinHash permutations on both sides,
    cross-side LSH buckets, exact Jaccard verify."""
    from ..stages.dedup import cross_corpus_near_duplicates

    docs = _t(sf_dir, "documents")

    def side(mod_is_zero: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
            mask = (ids % 3 == 0) if mod_is_zero else (ids % 3 != 0)
            return t.filter(pa.array(mask))

        return fn

    new = docs.map_batches(side(False), batch_format="pyarrow", zero_copy_batch=True)
    base = docs.map_batches(side(True), batch_format="pyarrow", zero_copy_batch=True)
    return cross_corpus_near_duplicates(new, base, threshold=0.8)


def q_corpus_prepare_minhash(sf_dir: str):
    """Production corpus prep with FUZZY dedup: email redaction -> lang
    + quality filter -> MinHash+LSH near-dup components (0.8 Jaccard,
    min-id survivor per component; exact dups are Jaccard 1) ->
    per-source cap of 10 -> 80/60 chunking — the
    ``prepare_corpus(dedup='minhash')`` composite, same code path as
    the CLI ``prepare --dedup minhash``."""
    from .corpus_pipeline import prepare_corpus

    return _collect(
        prepare_corpus(
            _t(sf_dir, "documents"), dedup="minhash", langs=("en",),
            min_quality=0.5, cap_per_source=10, chunk_size=80,
            chunk_stride=60,
        ),
        ["doc_id", "chunk_idx", "chunk_text"],
    )


def q_event_type_shares(sf_dir: str):
    """Percent-of-total report: each event type's row count and its
    e6-integer share of all events (one combiner-first pass; the grand
    total folds from the key-cardinality grouped table)."""
    from ..stages.stats import group_share_of_total

    return group_share_of_total(_t(sf_dir, "events"), "event_type")


def q_lineitem_qty_share(sf_dir: str):
    """Percent-of-total WINDOW: every line item's quantity share of its
    return-flag group total — SQL ``qty * 1e6 / SUM(qty) OVER
    (PARTITION BY l_returnflag)`` in exact integer arithmetic (grouped
    totals broadcast once, vectorized divide per batch)."""
    import pyarrow.compute as pc

    from ..stages.stats import share_of_group_total

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    ).map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("l_linenumber"), "l_linenumber",
            pc.cast(t["l_linenumber"], pa.int64()),
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return _collect(
        share_of_group_total(
            ds, "l_returnflag", "l_quantity",
            ["l_orderkey", "l_linenumber"],
        ),
        ["l_orderkey", "l_linenumber", "l_returnflag", "val", "share_e6"],
    )


def q_image_cross_field_violations(sf_dir: str):
    """Cross-column constraint checks — the table-level analogue of a
    schisma ``$validate`` custom-predicate hook (reference
    src/schisma.mjs:137-212): aspect-ratio, pixel-area and
    caption-length rules that read several columns of a row at once.
    Pure map_batches, zero shuffle."""
    from ..stages.crossfield import cross_field_violations

    ds = read_images(_img_dir(sf_dir), ["image_id", "w", "h", "caption"])
    return cross_field_violations(ds)


def q_partition_verdicts(sf_dir: str):
    """Per-partition PASS/FAIL verdicts over the full validation run
    (the north-star's per-partition verdict surface): rows, violation
    rows, e6 violation rate and a threshold verdict per deterministic
    md5 partition of the id space — parallelism-invariant, so the
    report is identical however Ray split the input files."""
    from ..stages.verdict import partition_verdicts

    imgs = read_images(_img_dir(sf_dir), ["image_id"])
    vio = _project_violations(validate_images(_img_dir(sf_dir)))
    return partition_verdicts(imgs, vio)


def q_caption_area_moments(sf_dir: str):
    """Per-fmt EXACT integer second moments of (pixel area, caption
    chars) — n, Σx, Σy, Σx², Σy², Σxy as int64, everything a Pearson
    correlation / covariance audit between image size and caption
    length needs, with zero float-summation-order risk. Combiner-first;
    only fmt-cardinality partials ever shuffle."""
    import pyarrow.compute as pc

    from ..stages.stats import grouped_moments

    ds = read_images(_img_dir(sf_dir), ["fmt", "w", "h", "caption"])

    def proj(t: pa.Table) -> pa.Table:
        w = pc.cast(t["w"], pa.int64())
        h = pc.cast(t["h"], pa.int64())
        return pa.table({
            "fmt": t["fmt"],
            "area": pc.multiply(w, h),
            "cap_chars": pc.cast(pc.utf8_length(t["caption"]), pa.int64()),
        })

    return grouped_moments(
        ds.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        "fmt", "area", "cap_chars",
    )


def q_dup_gram_docs(sf_dir: str):
    """Cross-document duplicated n-gram audit (Lee et al. 2021,
    arXiv:2107.06499): per doc, the count + e6 fraction of its distinct
    word 3-shingles shared with at least one OTHER document. Two bucket
    shuffles, df-without-a-join (the AllPairs trick), no pair
    explosion."""
    from ..stages.dedup import dup_gram_stats

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return dup_gram_stats(ds, "text", "doc_id")


def q_stratified_split(sf_dir: str):
    """Exact-count stratified 80/10/10 split per language in md5(id)
    order — per-stratum sizes exact (half-up), not merely expected.
    One narrow sort + block-offset ordinals + O(groups) broadcast."""
    from ..stages.corpus import stratified_exact_split

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return stratified_exact_split(
        ds, {"train": 0.8, "val": 0.1, "test": 0.1})


def q_token_budget_sample(sf_dir: str):
    """Token-budget corpus mixing: each language trimmed to 4000 tokens
    in deterministic md5(doc_id) order (greedy prefix — the doc that
    crosses the budget is kept). One narrow sort + block-offset prefix
    sums; text never rides the shuffle."""
    from ..stages.corpus import token_budget_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"])
    return token_budget_sample(ds, budget=4000)


RP_OUT_DIM = 8
RP_SEED = 19


def _embedding_dim(sf_dir: str) -> int:
    """Embedding width from the first row only (no full-file read)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    return len(first["embedding"][0])


def _rp_matrix_file(in_dim: int) -> Path:
    """Persist the seeded ±1 projection matrix in long format
    (dim_out, dim_in, w) so the oracle reproduces the integer matmul
    with a join + SUM. Keyed by (dims, seed) only — R is data-free."""
    import pyarrow.parquet as pq

    from ..stages.similarity import rademacher_matrix

    def build(tmp: Path) -> None:
        R = rademacher_matrix(in_dim, RP_OUT_DIM, RP_SEED)
        oo, ii = np.meshgrid(np.arange(RP_OUT_DIM), np.arange(in_dim),
                             indexing="ij")
        pq.write_table(pa.table({
            "dim_out": pa.array(oo.ravel() + 1, pa.int64()),
            "dim_in": pa.array(ii.ravel() + 1, pa.int64()),
            "w": pa.array(R.ravel(), pa.int64()),
        }), tmp)

    return image_table.cached(
        f"rp_{in_dim}x{RP_OUT_DIM}_s{RP_SEED}.parquet", build)


def q_embedding_projected(sf_dir: str):
    """Johnson-Lindenstrauss reduction of the embeddings table to 8
    dims via a persisted seeded ±1 matrix, in exact integer arithmetic
    (e6-frozen components x int weights) — the pre-ANN shrink stage.
    Broadcast matrix, one int64 matmul per batch, zero shuffle."""
    import pyarrow.parquet as pq

    from ..stages.similarity import random_projection

    in_dim = _embedding_dim(sf_dir)
    R = pq.read_table(str(_rp_matrix_file(in_dim)))
    rmat = (np.asarray(R["w"])
            .reshape(RP_OUT_DIM, in_dim).astype(np.int64))
    return random_projection(_t(sf_dir, "embeddings"), rmat)


_LICENSE_PHRASES = (
    "Released under Creative Commons Zero.",
    "Licensed CC-BY 4.0",
    "The MIT License applies.",
    "Apache License 2.0",
    "All rights reserved.",
)


def q_flesch_scores(sf_dir: str):
    """Flesch reading-ease per doc in exact e3 integers (vowel-group
    syllable approximation); three RE2 counts per batch, zero
    shuffle."""
    from ..stages.text import flesch_scores

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return flesch_scores(ds)


def q_license_tags(sf_dir: str):
    """License-aware curation tag (priority regex chain, first match
    wins, 'none' otherwise) — falsifiable via injected license phrases
    on every 6th doc cycling through all five classes."""
    import pyarrow.compute as pc

    from ..stages.text import license_tags

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        text = pc.fill_null(t["text"].combine_chunks(), "")
        suffix = [
            " " + _LICENSE_PHRASES[(i // 6) % 5] if i % 6 == 0 else ""
            for i in ids
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pc.binary_join_element_wise(
                text, pa.array(suffix, pa.string()), ""),
        })

    return license_tags(ds.map_batches(
        inject, batch_format="pyarrow", zero_copy_batch=True))


def _with_text_variants(t: pa.Table) -> pa.Table:
    """The documents of ``t`` plus, for every 9th doc id, a '### '-prefixed,
    '!!!'-suffixed, double-spaced twin at id+1000000. Originals and
    variants come from ONE map_batches (no Dataset.union — fewer
    operators, no union cold-start edge; same multiset)."""
    ids = t["doc_id"].combine_chunks()
    base = pa.table({
        "doc_id": ids,
        "text": pc.fill_null(t["text"].combine_chunks(), ""),
    })
    sel = pa.array(ids.to_numpy(zero_copy_only=False) % 9 == 0)
    v = base.filter(sel)
    text = pc.replace_substring(v["text"].combine_chunks(), " ", "  ")
    variants = pa.table({
        "doc_id": pc.add(v["doc_id"], 1000000),
        "text": pc.binary_join_element_wise(
            pa.array(["### "] * len(v), pa.string()), text,
            pa.array(["!!!"] * len(v), pa.string()), ""),
    })
    return pa.concat_tables([base, variants])


def q_normalized_text_dups(sf_dir: str):
    """Casing/punctuation-invariant exact dedup: docs whose normalized
    text (lower, non-alnum stripped, spaces collapsed) collides, with
    the min-id keeper — the cheap screen between byte dedup and
    MinHash. Falsifiable via injected variants (``_with_text_variants``:
    byte-distinct, normalized-identical twins; raw exact dedup provably
    misses them; casing untouched so no cross-engine unicode
    upper/lower round-trip is load-bearing). One norm-hash bucket
    shuffle."""
    from ..stages.dedup import normalized_text_dups

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    aug = ds.map_batches(_with_text_variants, batch_format="pyarrow",
                         zero_copy_batch=True)
    return _collect(normalized_text_dups(aug),
                    ["doc_id", "keeper", "group_size"])


def q_truncation_waste(sf_dir: str):
    """Context-length waste audit at L=60: every doc longer than 60
    single-space tokens with the token count a truncate policy would
    discard. Pure map, zero shuffle."""
    from ..stages.corpus import truncation_waste

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return truncation_waste(ds, max_len=60)


def q_doc_repeat_upsample(sf_dir: str):
    """Epoch repeat factors: de docs 2.5x (every doc twice, a
    deterministic md5 half three times), zh 3x, everything else 1x —
    the rare-domain oversampling step. Pure per-row np.repeat, zero
    shuffle."""
    from ..stages.corpus import repeat_upsample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    out = repeat_upsample(ds, {"de": 2.5, "zh": 3.0}, default_weight=1.0)
    return _collect(out, ["doc_id", "lang", "copy_idx"])


def q_event_user_cardinality(sf_dir: str):
    """Group-cardinality constraint over events: users with fewer than
    55 or more than 70 rows ('group too small' / 'group too large') —
    the aggregate-level validate hook. Combiner-first partial counts,
    one groupby, vectorized bound filter."""
    from ..stages.profile import group_cardinality_violations

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return group_cardinality_violations(
        ds, key_cols=["user_id"], min_count=55, max_count=70)


def q_events_monotonic(sf_dir: str):
    """Monotonic-counter constraint over events: rows whose value
    decreases versus the user's previous event in (ts, event_id) order
    — the odometer/sequence-number invariant. One key-hash bucket
    shuffle, segmented lag compare per bucket."""
    from ..stages.window import monotonic_violations

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    return monotonic_violations(ds)


def q_exact_substr_spans(sf_dir: str):
    """ExactSubstr span extraction (Lee et al. 2021, arXiv:2107.06499
    §4.1): maximal duplicated token runs >= 5 words, cross- or
    intra-doc, as (doc_id, span_start, span_end, span_toks). Two
    bucketed shuffles (gram-hash df, doc-hash merge), no pair
    explosion."""
    from ..stages.dedup import exact_substr_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return exact_substr_spans(ds, "text", "doc_id", k=5)


def q_exact_substr_clean(sf_dir: str):
    """ExactSubstr span REMOVAL: every document holding a duplicated
    span rebuilt with covered tokens dropped (single-space joined, ''
    when fully duplicated) + the removed-token count. Text rides the
    doc-hash shuffle beside the duplicated positions — no span
    broadcast."""
    from ..stages.dedup import exact_substr_clean

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return exact_substr_clean(ds, "text", "doc_id", k=5)


_CJK26 = "".join(chr(0x4E00 + i) for i in range(26))
_ASCII27 = " abcdefghijklmnopqrstuvwxyz"
_ZH_SENTINEL_SRC = "duplicated boilerplate sentinel run here"


def _to_unsegmented_cjk(s: str) -> str:
    """Deterministic zh-like rewrite shared verbatim with the oracle's
    ``translate(s, ' a..z', CJK26)``: spaces removed, a-z mapped onto
    the first 26 CJK codepoints — an unsegmented script where
    whitespace tokenization degenerates to whole-line granularity."""
    table = {ord(" "): None}
    table.update({ord(_ASCII27[i + 1]): _CJK26[i] for i in range(26)})
    return s.translate(table)


def q_exact_substr_char_spans(sf_dir: str):
    """ExactSubstr span extraction at CHARACTER granularity (k=25
    codepoints) over a zh-like unsegmented corpus: documents mapped to
    CJK with spaces removed (word shingles would see one giant token
    per line), every 7th doc appending a shared 36-codepoint
    boilerplate run — falsifiable: those runs MUST surface as
    cross-doc spans the word mode cannot position. Same two bucketed
    shuffles as the word mode; span units are codepoints."""
    from ..stages.dedup import exact_substr_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    sentinel = _to_unsegmented_cjk(_ZH_SENTINEL_SRC)

    def zhify(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        texts = pc.fill_null(t["text"].combine_chunks(), "").to_pylist()
        out = [
            _to_unsegmented_cjk(s) + (sentinel if i % 7 == 0 else "")
            for i, s in zip(ids, texts)
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pa.array(out, pa.string()),
        })

    zh = ds.map_batches(zhify, batch_format="pyarrow", zero_copy_batch=True)
    return exact_substr_spans(zh, "text", "doc_id", k=25,
                              granularity="char")


def q_exact_substr_char_clean(sf_dir: str):
    """ExactSubstr removal at CHARACTER granularity on the same zh-like
    corpus: docs holding a duplicated >= 25-codepoint run rebuilt with
    covered codepoints dropped (no separator), plus the removed-
    codepoint count."""
    from ..stages.dedup import exact_substr_clean

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    sentinel = _to_unsegmented_cjk(_ZH_SENTINEL_SRC)

    def zhify(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        texts = pc.fill_null(t["text"].combine_chunks(), "").to_pylist()
        out = [
            _to_unsegmented_cjk(s) + (sentinel if i % 7 == 0 else "")
            for i, s in zip(ids, texts)
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "text": pa.array(out, pa.string()),
        })

    zh = ds.map_batches(zhify, batch_format="pyarrow", zero_copy_batch=True)
    return exact_substr_clean(zh, "text", "doc_id", k=25,
                              granularity="char")


def q_url_canonical_dups(sf_dir: str):
    """Canonical-URL duplicate groups: rows whose canonicalized url
    (scheme/www/fragment/query/trailing-slash stripped — RE2 chain,
    identical engine on both sides) collides with another row's. One
    canonical-hash bucket shuffle."""
    from ..sources.url_fixture import url_documents
    from ..stages.urlfilter import url_canonical_dups

    ds = rd.read_parquet(str(url_documents(sf_dir)))
    return url_canonical_dups(ds)


def q_fmt_magic_mismatches(sf_dir: str):
    """Decode-free container check: declared fmt vs the payload's
    4-byte magic (98 wrong-container rows planted at sf0.01) — caught
    at parquet-scan cost, zero shuffle, no codec."""
    from ..stages.crossfield import fmt_magic_mismatches

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes", "fmt"])
    return _collect(fmt_magic_mismatches(ds),
                    ["image_id", "fmt", "sniffed_fmt"])


def q_dataset_card(sf_dir: str):
    """One-row corpus data card: doc/lang/source counts, total tokens,
    empty docs, exact-duplicate doc count — the summary block of a
    dataset card. Everything is combiner-first partials + one tiny
    fold (sums ride one pass, both distinct counts share a second —
    three dataset executions total), except the duplicate count which
    collapses text to md5 digests and takes ONE digest-bucket shuffle
    (hash routes AND decides, the normalized_text_dups contract).
    Distinct counts exclude NULL keys, matching SQL
    count(DISTINCT)."""
    import pyarrow.compute as pc

    from ..stages._digest import md5_hex

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        text = t["text"].combine_chunks()
        filled = pc.fill_null(text, "")
        toks = pc.cast(
            pc.list_value_length(pc.split_pattern(filled, " ")), pa.int64())
        empty = pc.or_(pc.is_null(text), pc.equal(filled, ""))
        return pa.table({
            "n_docs": pa.array([len(t)], pa.int64()),
            "total_tokens": pa.array(
                [pc.sum(toks).as_py() or 0], pa.int64()),
            "n_empty": pa.array(
                [pc.sum(pc.cast(empty, pa.int64())).as_py() or 0],
                pa.int64()),
        })

    folded = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).sum(["n_docs", "total_tokens", "n_empty"])

    def distinct_partial(t: pa.Table) -> pa.Table:
        # per-batch distinct NON-NULL values of both key columns in one
        # pass (SQL count(DISTINCT col) excludes NULLs); bounded by the
        # true lang/source cardinality per batch
        parts = []
        for c in ("lang", "source"):
            u = pc.unique(pc.drop_null(t[c].combine_chunks()))
            parts.append(pa.table({
                "kind": pa.array([c] * len(u), pa.string()),
                "v": pc.cast(u, pa.string()),
            }))
        return pa.concat_tables(parts)

    dfold = fold_table(ds.map_batches(
        distinct_partial, batch_format="pyarrow", zero_copy_batch=True))
    kinds = dfold["kind"].to_pylist() if dfold is not None else []
    vals = dfold["v"].to_pylist() if dfold is not None else []
    n_langs = len({v for k, v in zip(kinds, vals) if k == "lang"})
    n_sources = len({v for k, v in zip(kinds, vals) if k == "source"})

    def digest(t: pa.Table) -> pa.Table:
        h = md5_hex(pc.fill_null(t["text"].combine_chunks(), ""))
        return pa.table({"h": pa.array(h, pa.string())})

    dups = fold_combine(ds.map_batches(digest, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        "h", {"n": ("h", "count_all")},
                        where=pc.field("n") > 1)
    n_dup = pc.sum(dups["n"]).as_py()

    return pa.table({
        "n_docs": pa.array([folded["sum(n_docs)"]], pa.int64()),
        "n_langs": pa.array([n_langs], pa.int64()),
        "n_sources": pa.array([n_sources], pa.int64()),
        "total_tokens": pa.array([folded["sum(total_tokens)"]], pa.int64()),
        "n_empty": pa.array([folded["sum(n_empty)"]], pa.int64()),
        "n_dup_docs": pa.array([int(n_dup or 0)], pa.int64()),
    })


def q_caption_lang_dist(sf_dir: str):
    """Caption language profile of the image table: the n-gram LangId
    heuristic applied per caption (compiled word sets in __init__),
    collapsed to (lang_pred, n) by a combiner-first
    groupby — text analysis on the image axis."""
    from ..stages.text import LangId

    ds = read_images(_img_dir(sf_dir), ["image_id", "caption"])
    pred = ds.map_batches(LangId("caption", "image_id"),
                          batch_format="pyarrow")

    return _collect(
        bucket_combine(pred, "lang_pred", {"n": ("lang_pred", "count_all")}),
        ["lang_pred", "n"],
    )


def q_image_payload_violations(sf_dir: str):
    """Decode-free truncation detection: payload bytes per claimed
    pixel (e6 int) below 1.0 means the blob cannot possibly hold the
    declared dimensions — caught at parquet-scan cost, no codec
    needed. Pure map_batches over (bytes, w, h)."""
    from ..stages.crossfield import cross_field_violations, payload_ratio_rule

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes", "w", "h"])
    return cross_field_violations(ds, [payload_ratio_rule()])


def q_image_caption_conform(sf_dir: str):
    """Caption repair (conform action on the hook rules): null -> ''
    (the schema default), over-long captions truncated to 256 chars.
    Row-local, zero shuffle; the full repaired column ships out."""
    import pyarrow.compute as pc

    ds = read_images(_img_dir(sf_dir), ["image_id", "caption"])

    def fn(t: pa.Table) -> pa.Table:
        c = t["caption"].combine_chunks() if isinstance(
            t["caption"], pa.ChunkedArray) else t["caption"]
        c = pc.fill_null(c, "")
        # ASCII captions: codeunit slice == character slice (SQL substr)
        c = pc.if_else(pc.greater(pc.utf8_length(c), 256),
                       pc.utf8_slice_codeunits(c, 0, 256), c)
        return pa.table({"image_id": t["image_id"], "caption": c})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def q_image_clean_ids(sf_dir: str):
    """Quarantine split, clean side: ids of rows with ZERO violations of
    any check (``curation.clean_image_ids``, the quarantine step of
    ``image_curation``)."""
    from .curation import clean_image_ids

    return clean_image_ids(_img_dir(sf_dir))


def q_image_curation(sf_dir: str):
    """The image-side flagship composite (pipelines/curation.py):
    validate -> quarantine violating rows (bucketed anti-join) ->
    byte-exact dedup keep-first (md5 fingerprints) -> pHash near-dup
    survivors (banded pairs -> components -> min-id keeper). One
    curated survivor set, oracled end-to-end by chaining the same SQL
    fragments as the standalone queries."""
    from .curation import curate_images

    return _collect(
        curate_images(_img_dir(sf_dir), inject_dup_every=83),
        ["image_id"],
    )


def q_fmt_area_rollup(sf_dir: str):
    """Multi-level aggregate (GROUP BY ROLLUP): per-fmt row counts and
    pixel-area sums PLUS the grand-total row (fmt NULL), computed from
    the same combiner-first partials — the subtotal/total report shape.
    """
    import pyarrow.compute as pc

    from ..stages.stats import grouped_moments

    ds = read_images(_img_dir(sf_dir), ["fmt", "w", "h"])

    def proj(t: pa.Table) -> pa.Table:
        w = pc.cast(t["w"], pa.int64())
        h = pc.cast(t["h"], pa.int64())
        a = pc.multiply(w, h)
        return pa.table({"fmt": t["fmt"], "area": a, "area2": a})

    g = grouped_moments(
        ds.map_batches(proj, batch_format="pyarrow", zero_copy_batch=True),
        "fmt", "area", "area2",
    )
    n = g["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = g["sum_x"].to_numpy(zero_copy_only=False).astype(np.int64)
    fmts = g["fmt"].to_pylist() + [None]
    return pa.table({
        "fmt": pa.array(fmts, pa.string()),
        "n_rows": pa.array(np.append(n, n.sum()), pa.int64()),
        "sum_area": pa.array(np.append(s, s.sum()), pa.int64()),
    })


def q_html_extracted(sf_dir: str):
    """HTML main-content extraction (the trafilatura slot): strip
    head/script/style/comments/boilerplate blocks, drop tags, decode
    entities, collapse whitespace — one RE2 rule chain, identical
    engine on both sides. Pure map, zero shuffle."""
    from ..sources.html_fixture import html_documents
    from ..stages.html import html_extract

    ds = rd.read_parquet(str(html_documents(sf_dir)))
    return html_extract(ds)


def q_image_brightness(sf_dir: str):
    """Decode-based EXACT integer brightness stats per image
    (state-in-__init__ model-stage signature): pixel count, int64
    channel sums, e6 floor means. Oracled against the generator's
    independent bookkeeping — a decode-COMPUTE op whose distributed
    plumbing is bit-checkable, unlike the float feature vectors."""
    from ..stages.multimodal import BrightnessStats

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes"])
    return ds.map_batches(
        BrightnessStats(), batch_format="pyarrow", zero_copy_batch=True
    )


def q_pair_fidelity(sf_dir: str):
    """The north-rule per-row conform invariant over the paired
    fidelity fixture: decoded-pixel PSNR >= 40 dB (lossy re-encodes
    pass, planted-noise rows fail) + caption equality — verdicts and
    SSE evaluated in exact integer arithmetic on both sides (the
    10^(D/10) freeze, stages/multimodal.PairFidelity). State-free
    decode, zero shuffle."""
    from ..sources.fidelity_fixture import fidelity_pairs
    from ..stages.multimodal import PairFidelity

    ds = rd.read_parquet(str(fidelity_pairs(sf_dir)))
    return _collect(
        ds.map_batches(
            PairFidelity(), batch_format="pyarrow", zero_copy_batch=True
        ),
        ["image_id", "sse", "n_samples", "psnr_ok", "caption_ok", "ok"],
    )


def q_image_resized(sf_dir: str):
    """Thumbnail pipeline plumbing check: resize every decodable image
    to 32x32 and report the metadata surface
    (undecodable rows keep null dims). The pixel payload is
    codec-defined; the oracle pins WHICH rows resize and the output
    schema via the independent decodability bookkeeping."""
    from ..stages.multimodal import ImageResize

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes", "w", "h"])
    out = ds.map_batches(
        ImageResize(), batch_format="pyarrow", zero_copy_batch=True
    )

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "image_id": t["image_id"],
            "w": pc.cast(t["w"], pa.int64()),
            "h": pc.cast(t["h"], pa.int64()),
        })

    return _collect(
        out.map_batches(project, batch_format="pyarrow",
                        zero_copy_batch=True),
        ["image_id", "w", "h"],
    )


def q_violation_samples(sf_dir: str, k: int = 5):
    """Deterministic review sample: for every (path, code) check, the
    ``k`` violations with the smallest (md5-uniform, row_ref) — the
    'show me 5 examples of each failure' ops surface, stable across
    runs and parallelism. Per-block local top-k partials (bounded by
    checks x k per block), tiny driver merge."""
    import pandas as _pd

    from ..stages._digest import md5_u32

    vio = _project_violations(validate_images(_img_dir(sf_dir)))

    def local_topk(df: _pd.DataFrame) -> _pd.DataFrame:
        if not len(df):
            return df[["path", "code", "row_ref"]].assign(u=_pd.Series(dtype="int64"))
        df = df.assign(u=md5_u32(df["row_ref"].tolist()))
        df = df.sort_values(["path", "code", "u", "row_ref"], kind="mergesort")
        return df.groupby(["path", "code"], sort=False).head(k)[
            ["path", "code", "row_ref", "u"]
        ]

    parts = _collect(
        vio.map_batches(local_topk, batch_format="pandas"),
        ["path", "code", "row_ref", "u"],
    )
    df = parts.to_pandas()
    if len(df):
        df = df.sort_values(["path", "code", "u", "row_ref"], kind="mergesort")
        df = df.groupby(["path", "code"], sort=False).head(k)
    return pa.table({
        "path": pa.array(df["path"].tolist(), pa.string()),
        "code": pa.array(df["code"].tolist(), pa.string()),
        "row_ref": pa.array(df["row_ref"].tolist(), pa.string()),
    })


def q_run_verdict(sf_dir: str):
    """One-row release gate: total rows, violation rows, e6 violation
    rate with a threshold verdict, chi-square fmt-drift statistic with
    a critical-value verdict, and the combined PASS — the whole-run
    complement of `partition_verdicts`. Each input is a distributed
    aggregate; the composition is a one-row driver fold."""
    from ..stages._math import frac_e6

    n_rows = read_images(_img_dir(sf_dir), ["image_id"]).count()
    n_vio = _project_violations(
        validate_images(_img_dir(sf_dir))
    ).count()
    counts = read_images(_img_dir(sf_dir), ["fmt"]).aggregate(
        ValueCounts("fmt", alias_name="vc")
    )["vc"]
    d = categorical_drift(counts, image_table.FMT_PROBS)
    rate = int(frac_e6(np.array([n_vio], np.int64),
                       np.array([n_rows], np.int64))[0])
    stat = round(d["statistic"], 6)
    rate_ok = rate <= 100_000
    drift_ok = stat <= 9.21  # chi2 dof=2 critical value at alpha=0.01
    return pd.DataFrame([{
        "n_rows": n_rows, "n_violations": n_vio, "rate_e6": rate,
        "rate_ok": rate_ok, "drift_statistic": stat,
        "drift_ok": drift_ok, "verdict": bool(rate_ok and drift_ok),
    }])


# ------------------------------------------------------------------ oracle
def _parquet(path_of: Callable[[str], object]) -> Callable[[str], str]:
    return lambda sf_dir: f"read_parquet('{path_of(sf_dir)}')"


def _image_file(name: str) -> Callable[[str], str]:
    return _parquet(lambda sf_dir: _img_dir(sf_dir) / name)


#: oracle placeholder -> its text for one ``sf_dir``. A file placeholder
#: renders as ``read_parquet('<path>')`` and generates its fixture (or
#: model artifact) only when a template that names it is rendered.
_PLACEHOLDERS: dict[str, Callable[[str], str]] = {
    "img": _image_file("images/*.parquet"),
    # the generator's own bookkeeping of every violation the pipeline
    # must produce (sources/image_table.py writes it alongside the
    # corrupted rows): the oracle for checks SQL cannot recompute
    # (decode needs the codec)
    "expviol": _image_file("expected_violations.parquet"),
    "expconf": _image_file("expected_conform.parquet"),
    "refprof": _image_file("reference_profile.parquet"),
    "refids": _image_file("reference_ids.parquet"),
    "emb_seeded": _parquet(embedding_fixture.seeded_near_dup_embeddings),
    "seeded_cents": _parquet(lambda sf_dir: _centroids_file_for(
        embedding_fixture.seeded_near_dup_embeddings(sf_dir))),
    "pair_emb": _parquet(embedding_fixture.paired_caption_embeddings),
    "emb_corrupt": _parquet(embedding_fixture.corrupt_embeddings),
    "line_docs": _parquet(line_fixture.line_documents),
    "c4_docs": _parquet(line_fixture.c4_documents),
    "fmt_docs": _parquet(line_fixture.format_documents),
    "hyg_docs": _parquet(line_fixture.hygiene_documents),
    "url_docs": _parquet(url_fixture.url_documents),
    "url_bl": _parquet(url_fixture.blocklist_file),
    "html_docs": _parquet(html_fixture.html_documents),
    "bright": _parquet(brightness_fixture.brightness_expected),
    "fid_exp": _parquet(fidelity_fixture.fidelity_expected),
    "struct_ev": _parquet(struct_fixture.struct_events),
    "map_ev": _parquet(struct_fixture.map_events),
    "audio_exp": _parquet(
        lambda sf_dir: _audio_dir(sf_dir) / "expected_violations.parquet"),
    "silence_exp": _parquet(
        lambda sf_dir: _silence_audio_dir(sf_dir) / "expected_silence.parquet"),
    "video_tbl": _parquet(lambda sf_dir: _video_dir(sf_dir) / "video.parquet"),
    "scene_cuts": _parquet(
        lambda sf_dir: _scene_video_dir(sf_dir) / "expected_cuts.parquet"),
    "log2_table": _parquet(lambda sf_dir: _log2_table_file()),
    "word_clf": _parquet(_word_classifier_file),
    "bigram_lm": _parquet(_bigram_lm_file),
    "simhash_sigs": _parquet(_simhash_sigs_file),
    "winnow_fps": _parquet(_winnow_fps_file),
    "rp_matrix": _parquet(
        lambda sf_dir: _rp_matrix_file(_embedding_dim(sf_dir))),
    "lsh_planes": _parquet(
        lambda sf_dir: _lsh_planes_file(_embedding_dim(sf_dir))),
    "kmeans_cents": _parquet(_kmeans_centroids_file),
    "ivf_cents": _parquet(_ivf_centroids_file),
    "ann_n_bits": lambda sf_dir: str(ANN_N_BITS),
}


def _word_pagerank_sql(vocab_k: int = 30, iters: int = 5,
                       damping_pct: int = 85) -> str:
    """Unrolled fixed-iteration PageRank oracle: pr0..pr{iters} CTEs,
    each one exact HUGEINT floor-division arithmetic mirroring
    stages.text.word_pagerank step for step."""
    head = r"""
WITH w AS (
  SELECT DISTINCT doc_id, word
    FROM (SELECT doc_id,
                 unnest(list_filter(string_split_regex(
                     coalesce(text, ''), '\s+'), x -> x <> '')) AS word
            FROM documents)),
df AS (SELECT word, count(*) AS df FROM w GROUP BY 1),
v AS (SELECT word FROM df ORDER BY df DESC, word LIMIT {K}),
e0 AS (SELECT a.word AS wa, b.word AS wb, CAST(count(*) AS HUGEINT) AS n
        FROM w a JOIN w b USING (doc_id)
        JOIN v va ON va.word = a.word
        JOIN v vb ON vb.word = b.word
       WHERE a.word < b.word GROUP BY 1, 2),
e AS (SELECT wa AS u, wb AS t, n FROM e0
      UNION ALL SELECT wb, wa, n FROM e0),
ow AS (SELECT u, SUM(n) AS ow FROM e GROUP BY 1),
nn AS (SELECT CAST(count(*) AS HUGEINT) AS n_nodes FROM v),
pr0 AS (SELECT word, CAST(1000000 AS HUGEINT) // n_nodes AS pr
          FROM v CROSS JOIN nn)""".replace("{K}", str(vocab_k))
    base_e6 = 1_000_000 - damping_pct * 10_000
    step = """,
pr{i} AS (SELECT v.word,
               CAST({B} AS HUGEINT) // nn.n_nodes
               + ({D} * coalesce(c.s, CAST(0 AS HUGEINT))) // 100 AS pr
          FROM v CROSS JOIN nn
          LEFT JOIN (SELECT e.t AS word, SUM((p.pr * e.n) // ow.ow) AS s
                       FROM e JOIN pr{j} p ON p.word = e.u
                       JOIN ow ON ow.u = e.u
                      GROUP BY 1) c ON c.word = v.word)"""
    body = "".join(
        step.replace("{i}", str(i)).replace("{j}", str(i - 1))
            .replace("{B}", str(base_e6)).replace("{D}", str(damping_pct))
        for i in range(1, iters + 1)
    )
    return (head + body
            + f"\nSELECT word, CAST(pr AS BIGINT) AS pr_e6 FROM pr{iters}\n")


#: one DuckDB template per oracled query, in ANSI SQL over the same
#: parquet inputs; ``{name}`` is a ``_PLACEHOLDERS`` entry
_SQL = {
    "image_schema_violations": """
WITH im AS (SELECT * FROM {img})
SELECT image_id AS row_ref, 'caption' AS path, 'missing key' AS code,
       CAST(NULL AS VARCHAR) AS expected, CAST(NULL AS VARCHAR) AS received
  FROM im WHERE caption IS NULL
UNION ALL
SELECT image_id, 'w', 'missing key', NULL, NULL FROM im WHERE w IS NULL
UNION ALL
SELECT image_id, 'h', 'missing key', NULL, NULL FROM im WHERE h IS NULL
UNION ALL
SELECT image_id, 'fmt', 'missing key', NULL, NULL FROM im WHERE fmt IS NULL
UNION ALL
SELECT image_id, 'phash', 'missing key', NULL, NULL FROM im WHERE phash IS NULL
UNION ALL
SELECT image_id, 'w', 'invalid', 'in [1, 65535]', CAST(w AS VARCHAR)
  FROM im WHERE w IS NOT NULL AND (w < 1 OR w > 65535)
UNION ALL
SELECT image_id, 'h', 'invalid', 'in [1, 65535]', CAST(h AS VARCHAR)
  FROM im WHERE h IS NOT NULL AND (h < 1 OR h > 65535)
UNION ALL
SELECT image_id, 'fmt', 'invalid', 'one of [''png'', ''jpeg'', ''webp'']', fmt
  FROM im WHERE fmt IS NOT NULL AND fmt NOT IN ('png', 'jpeg', 'webp')
""",
    "audio_decode_violations": """
SELECT row_ref, path, code, expected, received
  FROM {audio_exp}
""",
    "audio_silence_runs": """
SELECT audio_id, win_start, win_end
  FROM {silence_exp}
""",
    "video_scene_cuts": """
SELECT video_id, CAST(frame_idx AS BIGINT) AS frame_idx
  FROM {scene_cuts}
""",
    "video_frame_explode": """
SELECT video_id, CAST(unnest(range(0, n_frames, 3)) AS INTEGER) AS frame_idx,
       w, h, fmt
  FROM {video_tbl}
""",
    "frame_sample": """
SELECT image_id, w, h, fmt FROM {img}
 WHERE CAST(concat('0x', substr(md5(image_id), 1, 8)) AS BIGINT) % 10 = 0
""",
    "image_conform_full": """
SELECT image_id, w, h, fmt, caption, phash FROM {expconf}
""",
    "image_decode_violations": """
SELECT row_ref, path, code, expected, received
  FROM {expviol} WHERE "check" = 'decode'
""",
    "image_validate_full": """
SELECT row_ref, path, code, expected, received FROM {expviol}
""",
    "image_cross_field_violations": """
WITH im AS (SELECT * FROM {img})
SELECT image_id AS row_ref, 'w/h' AS path, 'invalid' AS code,
       'aspect_e6 in [500000, 2000000]' AS expected,
       CAST((CAST(w AS BIGINT) * 1000000) // h AS VARCHAR) AS received
  FROM im
 WHERE w IS NOT NULL AND h IS NOT NULL
   AND ((CAST(w AS BIGINT) * 1000000) // h < 500000
     OR (CAST(w AS BIGINT) * 1000000) // h > 2000000)
UNION ALL
SELECT image_id, 'w*h', 'invalid', 'area in [100, 900]',
       CAST(CAST(w AS BIGINT) * h AS VARCHAR)
  FROM im WHERE w IS NOT NULL AND h IS NOT NULL
   AND (CAST(w AS BIGINT) * h < 100 OR CAST(w AS BIGINT) * h > 900)
UNION ALL
SELECT image_id, 'caption', 'invalid', 'length in [1, 256]',
       CAST(length(caption) AS VARCHAR)
  FROM im WHERE caption IS NOT NULL
   AND (length(caption) < 1 OR length(caption) > 256)
""",
    "partition_verdicts": """
WITH im AS (SELECT CAST(concat('0x', substr(md5(image_id), 1, 8)) AS BIGINT)
                   % 16 AS part_id FROM {img}),
rp AS (SELECT part_id, count(*) AS n_rows FROM im GROUP BY part_id),
vi AS (SELECT CAST(concat('0x', substr(md5(row_ref), 1, 8)) AS BIGINT)
              % 16 AS part_id FROM {expviol}),
vp AS (SELECT part_id, count(*) AS n_violations FROM vi GROUP BY part_id)
SELECT rp.part_id, rp.n_rows,
       COALESCE(vp.n_violations, 0) AS n_violations,
       (2 * COALESCE(vp.n_violations, 0) * 1000000 + rp.n_rows)
         // (2 * rp.n_rows) AS rate_e6,
       ((2 * COALESCE(vp.n_violations, 0) * 1000000 + rp.n_rows)
         // (2 * rp.n_rows)) <= 75000 AS passed
  FROM rp LEFT JOIN vp ON rp.part_id = vp.part_id
""",
    "caption_area_moments": """
WITH src AS (
  SELECT fmt, CAST(w AS BIGINT) * h AS x, CAST(length(caption) AS BIGINT) AS y
    FROM {img}
   WHERE fmt IS NOT NULL AND w IS NOT NULL AND h IS NOT NULL
     AND caption IS NOT NULL)
SELECT fmt, CAST(count(*) AS BIGINT) AS n,
       CAST(SUM(x) AS BIGINT) AS sum_x, CAST(SUM(y) AS BIGINT) AS sum_y,
       CAST(SUM(x * x) AS BIGINT) AS sum_xx,
       CAST(SUM(y * y) AS BIGINT) AS sum_yy,
       CAST(SUM(x * y) AS BIGINT) AS sum_xy
  FROM src GROUP BY fmt
""",
    "dup_gram_docs": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
df AS (SELECT g, count(*) AS d FROM grams GROUP BY g),
per AS (SELECT doc_id, count(*) AS n_grams,
               SUM(CASE WHEN d > 1 THEN 1 ELSE 0 END) AS n_dup
          FROM grams JOIN df USING (g) GROUP BY doc_id)
SELECT doc_id, CAST(n_grams AS BIGINT) AS n_grams,
       CAST(n_dup AS BIGINT) AS n_dup_grams,
       CAST((2 * n_dup * 1000000 + n_grams) // (2 * n_grams) AS BIGINT)
         AS dup_frac_e6
  FROM per
""",
    "embedding_projected": """
WITH flat AS (
  SELECT vec_id,
         CAST(floor(CAST(unnest(CAST(embedding AS DOUBLE[])) AS DOUBLE)
                    * 1e6 + 0.5) AS BIGINT) AS q,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) AS j
    FROM embeddings WHERE embedding IS NOT NULL)
SELECT f.vec_id, r.dim_out AS dim, CAST(SUM(f.q * r.w) AS BIGINT) AS p
  FROM flat f
  JOIN {rp_matrix} r
    ON r.dim_in = f.j
 GROUP BY f.vec_id, r.dim_out
""",
    "flesch_scores": r"""
WITH d AS (
  SELECT doc_id,
         len(regexp_extract_all(coalesce(text, ''), '\S+')) AS w,
         greatest(len(regexp_extract_all(coalesce(text, ''), '[.!?]+')), 1)
           AS s,
         len(regexp_extract_all(coalesce(text, ''), '[aeiouyAEIOUY]+')) AS y
    FROM documents)
SELECT doc_id, CAST(w AS BIGINT) AS n_words,
       CAST(s AS BIGINT) AS n_sentences,
       CAST(y AS BIGINT) AS n_syllables,
       CAST(206835 - (2 * 1015 * w + s) // (2 * s)
                   - (2 * 84600 * y + w) // (2 * w) AS BIGINT) AS flesch_e3
  FROM d WHERE w > 0
""",
    "license_tags": r"""
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 6 = 0 THEN coalesce(text, '') || ' ' ||
              CASE (doc_id // 6) % 5
                   WHEN 0 THEN 'Released under Creative Commons Zero.'
                   WHEN 1 THEN 'Licensed CC-BY 4.0'
                   WHEN 2 THEN 'The MIT License applies.'
                   WHEN 3 THEN 'Apache License 2.0'
                   ELSE 'All rights reserved.' END
              ELSE coalesce(text, '') END AS text
    FROM documents)
SELECT doc_id,
  CASE WHEN regexp_matches(text, '(?i)creative commons zero|\bcc0\b|public domain') THEN 'cc0'
       WHEN regexp_matches(text, '(?i)creative commons|\bcc[- ]by\b') THEN 'cc-by'
       WHEN regexp_matches(text, '(?i)\bmit license\b') THEN 'mit'
       WHEN regexp_matches(text, '(?i)apache license') THEN 'apache'
       WHEN regexp_matches(text, '(?i)all rights reserved') THEN 'all-rights-reserved'
       ELSE 'none' END AS license_tag
  FROM aug
""",
    "normalized_text_dups": """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000,
         '### ' || replace(coalesce(text, ''), ' ', '  ') || '!!!'
    FROM documents WHERE doc_id % 9 = 0),
n AS (
  SELECT doc_id,
         md5(trim(regexp_replace(
             regexp_replace(lower(coalesce(text, '')), '[^a-z0-9 ]', '', 'g'),
             ' +', ' ', 'g'), ' ')) AS norm
    FROM aug),
g AS (
  SELECT doc_id,
         count(*) OVER (PARTITION BY norm) AS group_size,
         min(doc_id) OVER (PARTITION BY norm) AS keeper
    FROM n)
SELECT doc_id, keeper, CAST(group_size AS BIGINT) AS group_size
  FROM g WHERE group_size > 1
""",
    "truncation_waste": """
WITH d AS (
  SELECT doc_id,
         len(string_split(coalesce(text, ''), ' ')) AS n_toks
    FROM documents)
SELECT doc_id, CAST(n_toks AS BIGINT) AS n_toks,
       CAST(n_toks - 60 AS BIGINT) AS n_lost
  FROM d WHERE n_toks > 60
""",
    "doc_repeat_upsample": """
WITH d AS (
  SELECT doc_id, lang,
         CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) % 10000 AS b
    FROM documents),
r AS (
  SELECT doc_id, lang,
         CASE WHEN lang = 'de' THEN 2 + CASE WHEN b < 5000 THEN 1 ELSE 0 END
              WHEN lang = 'zh' THEN 3
              ELSE 1 END AS reps
    FROM d)
SELECT doc_id, lang, CAST(j AS BIGINT) AS copy_idx
  FROM r, unnest(range(0, reps)) AS t(j)
""",
    "stratified_split": """
WITH d AS (
  SELECT doc_id, lang, md5(CAST(doc_id AS VARCHAR)) AS h
    FROM documents WHERE lang IS NOT NULL),
r AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY h, doc_id) AS rn,
         count(*) OVER (PARTITION BY lang) AS n
    FROM d)
SELECT doc_id, lang,
       CASE WHEN rn <= (n * 800000 + 500000) // 1000000 THEN 'train'
            WHEN rn <= (n * 900000 + 500000) // 1000000 THEN 'val'
            ELSE 'test' END AS split
  FROM r
""",
    "token_budget_sample": """
WITH d AS (
  SELECT doc_id, lang,
         len(string_split(coalesce(text, ''), ' ')) AS n_toks,
         md5(CAST(doc_id AS VARCHAR)) AS h
    FROM documents WHERE lang IS NOT NULL),
c AS (
  SELECT doc_id, lang, n_toks,
         coalesce(SUM(n_toks) OVER (
             PARTITION BY lang ORDER BY h, doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS toks_before
    FROM d)
SELECT doc_id, lang, CAST(n_toks AS BIGINT) AS n_toks,
       CAST(toks_before AS BIGINT) AS toks_before
  FROM c WHERE toks_before < 4000
""",
    "event_user_cardinality": """
SELECT user_id, CAST(count(*) AS BIGINT) AS n_rows,
       CASE WHEN count(*) < 55 THEN 'group too small'
            ELSE 'group too large' END AS code
  FROM events WHERE user_id IS NOT NULL
 GROUP BY user_id
HAVING count(*) < 55 OR count(*) > 70
""",
    "events_monotonic": """
WITH e AS (
  SELECT user_id, event_id, ts, value FROM events
   WHERE user_id IS NOT NULL AND ts IS NOT NULL AND value IS NOT NULL),
l AS (
  SELECT user_id, event_id, value,
         lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev_value
    FROM e)
SELECT user_id, event_id, value, prev_value
  FROM l WHERE value < prev_value
""",
    "exact_substr_spans": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT doc_id, i - 1 AS p, array_to_string(w[i:i+4], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w) - 5 + 1, 0) + 1)) AS t(i)
   WHERE len(w) >= 5),
cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
dup AS (SELECT doc_id, p FROM grams JOIN cnt USING (g) WHERE c > 1),
isl AS (
  SELECT doc_id, p,
         CASE WHEN lag(p) OVER w IS NULL OR p > lag(p) OVER w + 5
              THEN 1 ELSE 0 END AS brk
    FROM dup WINDOW w AS (PARTITION BY doc_id ORDER BY p)),
grp AS (
  SELECT doc_id, p,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY p) AS gid
    FROM isl)
SELECT doc_id, CAST(MIN(p) AS BIGINT) AS span_start,
       CAST(MAX(p) + 5 AS BIGINT) AS span_end,
       CAST(MAX(p) + 5 - MIN(p) AS BIGINT) AS span_toks
  FROM grp GROUP BY doc_id, gid
""",
    "exact_substr_clean": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT doc_id, i - 1 AS p, array_to_string(w[i:i+4], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w) - 5 + 1, 0) + 1)) AS t(i)
   WHERE len(w) >= 5),
cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
dup AS (SELECT doc_id, p FROM grams JOIN cnt USING (g) WHERE c > 1),
covered AS (
  SELECT DISTINCT doc_id, p + j AS cp
    FROM dup, unnest(range(0, 5)) AS u(j)),
kept AS (
  SELECT t.doc_id, i - 1 AS p, w[i] AS tok
    FROM toks t
    JOIN (SELECT DISTINCT doc_id FROM dup) d USING (doc_id),
         unnest(range(1, len(w) + 1)) AS t2(i)
   WHERE NOT EXISTS (SELECT 1 FROM covered c
                      WHERE c.doc_id = t.doc_id AND c.cp = i - 1))
SELECT d.doc_id,
       coalesce((SELECT string_agg(tok, ' ' ORDER BY p)
                   FROM kept k WHERE k.doc_id = d.doc_id), '') AS clean_text,
       (SELECT count(*) FROM covered c WHERE c.doc_id = d.doc_id)
         AS n_removed_toks
  FROM (SELECT DISTINCT doc_id FROM dup) d
""",
    "image_brightness": """
SELECT image_id, n_px, sum_r, mean_r_e6, sum_g, mean_g_e6,
       sum_b, mean_b_e6
  FROM {bright}
""",
    "pair_fidelity": """
SELECT image_id, sse, n_samples,
       (10000 * sse <= 65025 * n_samples) AS psnr_ok,
       caption_equal AS caption_ok,
       ((10000 * sse <= 65025 * n_samples) AND caption_equal) AS ok
  FROM {fid_exp}
""",
    "image_resized": """
SELECT i.image_id,
       CASE WHEN b.image_id IS NOT NULL THEN CAST(32 AS BIGINT) END AS w,
       CASE WHEN b.image_id IS NOT NULL THEN CAST(32 AS BIGINT) END AS h
  FROM {img} i LEFT JOIN {bright} b USING (image_id)
""",
    "violation_samples": """
SELECT path, code, row_ref FROM (
  SELECT path, code, row_ref,
         row_number() OVER (
           PARTITION BY path, code
           ORDER BY CAST(concat('0x', substr(md5(row_ref), 1, 8)) AS BIGINT),
                    row_ref) AS rn
    FROM {expviol}) t
 WHERE rn <= 5
""",
    "run_verdict": """
WITH v AS (SELECT count(*) AS n_violations FROM {expviol}),
r AS (SELECT count(*) AS n_rows FROM {img}),
c AS (SELECT fmt, CAST(count(*) AS DOUBLE) AS cnt FROM {img} GROUP BY fmt),
n AS (SELECT sum(cnt) AS total FROM c),
e AS (SELECT * FROM (VALUES ('png', 0.70), ('jpeg', 0.25), ('webp', 0.05))
      AS p(fmt, freq)),
d AS (SELECT ROUND(SUM(POWER(COALESCE(c.cnt, 0) - e.freq * n.total, 2)
                       / (e.freq * n.total)), 6) AS stat
        FROM e CROSS JOIN n LEFT JOIN c ON c.fmt = e.fmt GROUP BY n.total),
g AS (SELECT r.n_rows, v.n_violations,
             (2 * v.n_violations * 1000000 + r.n_rows)
               // (2 * r.n_rows) AS rate_e6,
             d.stat AS drift_statistic
        FROM r CROSS JOIN v CROSS JOIN d)
SELECT n_rows, n_violations, rate_e6,
       rate_e6 <= 100000 AS rate_ok, drift_statistic,
       drift_statistic <= 9.21 AS drift_ok,
       (rate_e6 <= 100000 AND drift_statistic <= 9.21) AS verdict
  FROM g
""",
    "dataset_card": """
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
       CAST(SUM(len(string_split(coalesce(text, ''), ' '))) AS BIGINT)
         AS total_tokens,
       CAST(SUM(CASE WHEN text IS NULL OR text = '' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_empty,
       (SELECT CAST(coalesce(SUM(c), 0) AS BIGINT) FROM (
          SELECT count(*) AS c FROM documents
           GROUP BY md5(coalesce(text, '')) HAVING count(*) > 1))
         AS n_dup_docs
  FROM documents
""",
    "caption_lang_dist": """
WITH t AS (SELECT image_id, caption AS text,
                  string_split(lower(caption), ' ') AS words
             FROM {img}),
     s AS (SELECT image_id, text,
   len(list_filter(words, x -> x IN ('the','a','of','and','to','in','is','it','that','for'))) AS s_en,
   len(list_filter(words, x -> x IN ('der','die','das','und','ist','ein','zu','mit','von','nicht'))) AS s_de,
   len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','de','que','pour'))) AS s_fr,
   len(list_filter(words, x -> x IN ('el','la','los','las','es','un','una','de','que','por'))) AS s_es,
   length(regexp_replace(substr(text, 1, 200), '[^一-鿿]', '', 'g')) AS cjk,
   length(substr(text, 1, 200)) AS head_len
  FROM t),
p AS (SELECT
  CASE WHEN text IS NULL OR text = '' THEN 'und'
       WHEN cjk > head_len * 0.2 THEN 'zh'
       WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
       WHEN s_en = GREATEST(s_en, s_de, s_fr, s_es) THEN 'en'
       WHEN s_de = GREATEST(s_en, s_de, s_fr, s_es) THEN 'de'
       WHEN s_fr = GREATEST(s_en, s_de, s_fr, s_es) THEN 'fr'
       ELSE 'es' END AS lang_pred
  FROM s)
SELECT lang_pred, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY 1
""",
    "fmt_magic_mismatches": """
WITH im AS (SELECT image_id, fmt, bytes FROM {img}),
s AS (
  SELECT image_id, fmt,
         CASE substr(upper(hex(bytes)), 1, 8)
              WHEN '8946504E' THEN 'png'
              WHEN 'FFD8464A' THEN 'jpeg'
              WHEN '52494646' THEN 'webp' END AS sniffed_fmt
    FROM im)
SELECT image_id, fmt, sniffed_fmt
  FROM s WHERE sniffed_fmt IS DISTINCT FROM fmt
""",
    "image_payload_violations": """
WITH im AS (SELECT * FROM {img})
SELECT image_id AS row_ref, 'bytes' AS path, 'invalid' AS code,
       'payload_e6_per_px >= 1000000' AS expected,
       CAST(CAST(octet_length(bytes) AS BIGINT) * 1000000
            // (CAST(w AS BIGINT) * h) AS VARCHAR) AS received
  FROM im
 WHERE bytes IS NOT NULL AND w IS NOT NULL AND h IS NOT NULL
   AND CAST(w AS BIGINT) * h > 0
   AND CAST(octet_length(bytes) AS BIGINT) * 1000000
       // (CAST(w AS BIGINT) * h) < 1000000
""",
    "image_caption_conform": """
SELECT image_id,
       CASE WHEN caption IS NULL THEN ''
            WHEN length(caption) > 256 THEN substr(caption, 1, 256)
            ELSE caption END AS caption
  FROM {img}
""",
    "image_curation": """
WITH RECURSIVE im AS (SELECT image_id, bytes, phash FROM {img}),
clean0 AS (
  SELECT * FROM im
   WHERE image_id NOT IN (SELECT row_ref FROM {expviol})),
clean AS (
  SELECT * FROM clean0
  UNION ALL
  SELECT image_id || '-d', bytes, phash FROM clean0
   WHERE CAST(substr(image_id, 5) AS BIGINT) % 83 = 0),
keep1 AS (
  SELECT min(image_id) AS image_id FROM clean
   WHERE bytes IS NOT NULL GROUP BY md5(hex(bytes))),
kept AS (SELECT c.image_id, c.phash FROM clean c JOIN keep1 USING (image_id)),
sig AS (SELECT image_id, phash FROM kept
         WHERE image_id IS NOT NULL AND phash IS NOT NULL),
bands AS (
  SELECT image_id, phash, t.b AS band, ((phash >> (16 * t.b)) & 65535) AS key
    FROM sig, unnest([0, 1, 2, 3]) AS t(b)),
edges AS (
  SELECT DISTINCT x.image_id AS a, y.image_id AS b
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.key = y.key AND x.image_id < y.image_id
   WHERE bit_count(xor(x.phash, y.phash)) <= 3),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS image_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n)
SELECT image_id FROM sig
 WHERE image_id NOT IN (SELECT image_id FROM root WHERE image_id != rep)
""",
    "image_clean_ids": """
SELECT image_id FROM {img}
 WHERE image_id NOT IN (SELECT row_ref FROM {expviol})
""",
    "fmt_area_rollup": """
SELECT fmt, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(SUM(CAST(w AS BIGINT) * h) AS BIGINT) AS sum_area
  FROM {img}
 WHERE fmt IS NOT NULL AND w IS NOT NULL AND h IS NOT NULL
 GROUP BY ROLLUP(fmt)
""",
    "html_extracted": """
WITH s0 AS (SELECT doc_id,
        regexp_replace(html, '(?s)<head[^>]*>.*?</head>', '', 'g') AS t
        FROM {html_docs}),
s1 AS (SELECT doc_id,
        regexp_replace(t, '(?s)<script[^>]*>.*?</script>', '', 'g') AS t
        FROM s0),
s2 AS (SELECT doc_id,
        regexp_replace(t, '(?s)<style[^>]*>.*?</style>', '', 'g') AS t
        FROM s1),
s3 AS (SELECT doc_id,
        regexp_replace(t, '(?s)<!--.*?-->', '', 'g') AS t FROM s2),
s4 AS (SELECT doc_id,
        regexp_replace(t, '(?s)<div class="(?:nav|footer)">.*?</div>',
                       '', 'g') AS t
        FROM s3),
s5 AS (SELECT doc_id, regexp_replace(t, '<[^>]+>', ' ', 'g') AS t FROM s4),
s6 AS (SELECT doc_id,
        replace(replace(replace(replace(replace(replace(t,
          '&lt;', '<'), '&gt;', '>'), '&quot;', '"'),
          '&#39;', chr(39)), '&nbsp;', ' '), '&amp;', '&') AS t
        FROM s5),
s7 AS (SELECT doc_id, regexp_replace(t, '\\s+', ' ', 'g') AS t FROM s6)
SELECT doc_id, trim(t, ' ') AS text FROM s7
""",
    "event_transitions": """
WITH s AS (
  SELECT event_type AS prev_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS next_type
    FROM events)
SELECT prev_type, next_type, CAST(count(*) AS BIGINT) AS n
  FROM s WHERE next_type IS NOT NULL GROUP BY 1, 2
""",
    "repeat_purchase_gap": """
WITH r AS (
  SELECT o_custkey, o_orderdate,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_orderdate, o_orderkey) AS rn
    FROM orders)
SELECT a.o_custkey,
       CAST(date_diff('microsecond', a.o_orderdate, b.o_orderdate)
            // 86400000000 AS BIGINT) AS gap_days
  FROM r a JOIN r b USING (o_custkey)
 WHERE a.rn = 1 AND b.rn = 2
""",
    "event_trend_slope": """
WITH d AS (
  SELECT event_type,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         CAST(count(*) AS BIGINT) AS cnt
    FROM events GROUP BY 1, 2),
m AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(day) AS HUGEINT) AS sx,
         CAST(sum(cnt) AS HUGEINT) AS sy,
         sum(CAST(day AS HUGEINT) * cnt) AS sxy,
         sum(CAST(day AS HUGEINT) * day) AS sxx
    FROM d GROUP BY 1)
SELECT event_type,
       round(CAST(n * sxy - sx * sy AS DOUBLE)
             / CAST(n * sxx - sx * sx AS DOUBLE), 6) AS slope
  FROM m WHERE n >= 2 AND n * sxx - sx * sx <> 0
""",
    "weighted_median_price": """
WITH w AS (
  SELECT l_returnflag, l_extendedprice AS v,
         sum(CAST(l_quantity AS BIGINT)) AS wt
    FROM lineitem GROUP BY 1, 2),
c AS (
  SELECT l_returnflag, v,
         sum(wt) OVER (PARTITION BY l_returnflag ORDER BY v) AS cum,
         sum(wt) OVER (PARTITION BY l_returnflag) AS tot
    FROM w)
SELECT l_returnflag, min(v) AS wmedian
  FROM c WHERE cum * 2 >= tot GROUP BY l_returnflag
""",
    "embedding_dim_profile": """
SELECT CAST(dim AS BIGINT) AS dim,
       round(sum(v) / count(*), 6) AS mean_v,
       round(sqrt(greatest(sum(v * v) / count(*)
                           - (sum(v) / count(*)) * (sum(v) / count(*)),
                           0)), 6) AS std_v
  FROM (SELECT unnest(CAST(embedding AS DOUBLE[])) AS v,
               generate_subscripts(embedding, 1) AS dim
          FROM embeddings)
 GROUP BY dim
""",
    "word_pmi_top": r"""
WITH w AS (
  SELECT DISTINCT doc_id, word
    FROM (SELECT doc_id,
                 unnest(list_filter(string_split_regex(
                     coalesce(text, ''), '\s+'), x -> x <> '')) AS word
            FROM documents)),
df AS (SELECT word, count(*) AS df FROM w GROUP BY 1),
v AS (SELECT word, df FROM df ORDER BY df DESC, word LIMIT 20),
nd AS (SELECT count(*) AS n_docs FROM documents),
p AS (
  SELECT a.word AS word_a, b.word AS word_b, count(*) AS n_ab
    FROM w a JOIN w b USING (doc_id)
    JOIN v va ON va.word = a.word
    JOIN v vb ON vb.word = b.word
   WHERE a.word < b.word GROUP BY 1, 2),
s AS (
  SELECT word_a, word_b, CAST(n_ab AS BIGINT) AS n_ab,
         round(ln(CAST(n_ab AS DOUBLE) * n_docs / (va.df * vb.df)), 6)
           AS pmi
    FROM p
    JOIN v va ON va.word = word_a
    JOIN v vb ON vb.word = word_b, nd
   WHERE n_ab >= 5)
SELECT word_a, word_b, n_ab, pmi FROM s
 ORDER BY pmi DESC, word_a, word_b LIMIT 20
""",
    "exact_substr_char_spans": r"""
WITH src AS (
  SELECT doc_id,
         translate(coalesce(text, ''), 'abcdefghijklmnopqrstuvwxyz ',
                   '一丁丂七丄丅丆万丈三上下丌不与丏丐丑丒专且丕世丗丘丙') ||
         CASE WHEN doc_id % 7 = 0
              THEN translate('duplicated boilerplate sentinel run here',
                             'abcdefghijklmnopqrstuvwxyz ', '一丁丂七丄丅丆万丈三上下丌不与丏丐丑丒专且丕世丗丘丙')
              ELSE '' END AS s
    FROM documents),
grams AS (
  SELECT doc_id, i - 1 AS p, substr(s, i, 25) AS g
    FROM src, unnest(range(1, greatest(length(s) - 25 + 1, 0) + 1)) AS t(i)
   WHERE length(s) >= 25),
cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
dup AS (SELECT doc_id, p FROM grams JOIN cnt USING (g) WHERE c > 1),
isl AS (
  SELECT doc_id, p,
         CASE WHEN lag(p) OVER w IS NULL OR p > lag(p) OVER w + 25
              THEN 1 ELSE 0 END AS brk
    FROM dup WINDOW w AS (PARTITION BY doc_id ORDER BY p)),
grp AS (
  SELECT doc_id, p,
         SUM(brk) OVER (PARTITION BY doc_id ORDER BY p) AS gid
    FROM isl)
SELECT doc_id, CAST(MIN(p) AS BIGINT) AS span_start,
       CAST(MAX(p) + 25 AS BIGINT) AS span_end,
       CAST(MAX(p) + 25 - MIN(p) AS BIGINT) AS span_toks
  FROM grp GROUP BY doc_id, gid
""",
    "exact_substr_char_clean": r"""
WITH src AS (
  SELECT doc_id,
         translate(coalesce(text, ''), 'abcdefghijklmnopqrstuvwxyz ',
                   '一丁丂七丄丅丆万丈三上下丌不与丏丐丑丒专且丕世丗丘丙') ||
         CASE WHEN doc_id % 7 = 0
              THEN translate('duplicated boilerplate sentinel run here',
                             'abcdefghijklmnopqrstuvwxyz ', '一丁丂七丄丅丆万丈三上下丌不与丏丐丑丒专且丕世丗丘丙')
              ELSE '' END AS s
    FROM documents),
grams AS (
  SELECT doc_id, i - 1 AS p, substr(s, i, 25) AS g
    FROM src, unnest(range(1, greatest(length(s) - 25 + 1, 0) + 1)) AS t(i)
   WHERE length(s) >= 25),
cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
dup AS (SELECT doc_id, p FROM grams JOIN cnt USING (g) WHERE c > 1),
covered AS (
  SELECT DISTINCT doc_id, p + j AS cp
    FROM dup, unnest(range(0, 25)) AS u(j)),
kept AS (
  SELECT t.doc_id, i - 1 AS p, substr(s, i, 1) AS ch
    FROM src t
    JOIN (SELECT DISTINCT doc_id FROM dup) d USING (doc_id),
         unnest(range(1, length(s) + 1)) AS t2(i)
   WHERE NOT EXISTS (SELECT 1 FROM covered c
                      WHERE c.doc_id = t.doc_id AND c.cp = i - 1))
SELECT d.doc_id,
       coalesce((SELECT string_agg(ch, '' ORDER BY p)
                   FROM kept k WHERE k.doc_id = d.doc_id), '') AS clean_text,
       (SELECT count(*) FROM covered c WHERE c.doc_id = d.doc_id)
         AS n_removed_toks
  FROM (SELECT DISTINCT doc_id FROM dup) d
""",
    "url_canonical_dups": r"""
WITH canon AS (
  SELECT doc_id,
         regexp_replace(regexp_replace(regexp_replace(regexp_replace(
           regexp_replace(lower(url), '^[a-z][a-z0-9+.-]*://', ''),
           '^www[0-9]*\.', ''),
           '#.*$', ''),
           '\?.*$', ''),
           '/+$', '') AS canon_url
    FROM {url_docs}),
sz AS (SELECT doc_id, canon_url,
              count(*) OVER (PARTITION BY canon_url) AS group_size
         FROM canon)
SELECT doc_id, canon_url, CAST(group_size AS BIGINT) AS group_size
  FROM sz WHERE group_size > 1
""",
    # phash near-dups: same >>/& banding + bit_count(xor) Hamming
    # reproduction as simhash_dedup, but with zero artifacts — the
    # signature IS a stored column
    "image_phash_near_dups": """
WITH sig AS (SELECT image_id, phash FROM {img}
              WHERE image_id IS NOT NULL AND phash IS NOT NULL),
bands AS (
  SELECT image_id, phash, t.b AS band, ((phash >> (16 * t.b)) & 65535) AS key
    FROM sig, unnest([0, 1, 2, 3]) AS t(b)),
cand AS (
  SELECT DISTINCT x.image_id AS a, y.image_id AS b, x.phash AS sa, y.phash AS sb
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.key = y.key AND x.image_id < y.image_id)
SELECT a, b, CAST(bit_count(xor(sa, sb)) AS INTEGER) AS hamming
  FROM cand
 WHERE bit_count(xor(sa, sb)) <= 3
""",
    "image_near_dedup_survivors": """
WITH RECURSIVE sig AS (SELECT image_id, phash FROM {img}
              WHERE image_id IS NOT NULL AND phash IS NOT NULL),
bands AS (
  SELECT image_id, phash, t.b AS band, ((phash >> (16 * t.b)) & 65535) AS key
    FROM sig, unnest([0, 1, 2, 3]) AS t(b)),
edges AS (
  SELECT DISTINCT x.image_id AS a, y.image_id AS b
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.key = y.key AND x.image_id < y.image_id
   WHERE bit_count(xor(x.phash, y.phash)) <= 3),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS image_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n)
SELECT image_id FROM sig
 WHERE image_id NOT IN (SELECT image_id FROM root WHERE image_id != rep)
""",
    "image_w_quantiles_by_fmt": """
WITH src AS (SELECT fmt, w FROM {img}
              WHERE fmt IS NOT NULL AND w IS NOT NULL),
r AS (SELECT fmt, w,
             row_number() OVER (PARTITION BY fmt ORDER BY w) AS rn,
             count(*) OVER (PARTITION BY fmt) AS n
        FROM src)
SELECT fmt, t.q, CAST(w AS DOUBLE) AS value
  FROM r, unnest([0.25, 0.5, 0.75]) AS t(q)
 WHERE rn = CAST(floor((n - 1) * t.q) AS BIGINT) + 1
""",
    "image_phash_duplicates": """
WITH im AS (SELECT * FROM {img})
SELECT image_id AS row_ref, 'phash' AS path, 'invalid' AS code, 'unique' AS expected
  FROM im
 WHERE phash IN (SELECT phash FROM im GROUP BY phash HAVING count(*) > 1)
""",
    "image_referential_orphans": """
WITH im AS (SELECT * FROM {img})
SELECT image_id AS row_ref, 'image_id' AS path, 'invalid' AS code,
       'known image_id' AS expected, image_id AS received
  FROM im WHERE image_id NOT IN (SELECT image_id FROM {refids})
""",
    "image_stats": """
WITH im AS (SELECT * FROM {img})
SELECT 'w' AS "column", count(*) AS n_rows,
       CAST(sum(CASE WHEN w IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_nulls,
       CAST(min(w) AS DOUBLE) AS min_v, CAST(max(w) AS DOUBLE) AS max_v,
       ROUND(AVG(CAST(w AS DOUBLE)), 6) AS mean_v,
       ROUND(stddev_samp(CAST(w AS DOUBLE)), 6) AS std_v FROM im
UNION ALL
SELECT 'h', count(*), CAST(sum(CASE WHEN h IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(min(h) AS DOUBLE), CAST(max(h) AS DOUBLE),
       ROUND(AVG(CAST(h AS DOUBLE)), 6),
       ROUND(stddev_samp(CAST(h AS DOUBLE)), 6) FROM im
UNION ALL
SELECT 'phash', count(*), CAST(sum(CASE WHEN phash IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(min(phash) AS DOUBLE), CAST(max(phash) AS DOUBLE),
       CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE) FROM im
""",
    "image_fmt_counts": """
SELECT fmt, count(*) AS n FROM {img} GROUP BY fmt ORDER BY fmt
""",
    "image_drift_fmt": """
WITH c AS (SELECT fmt, CAST(count(*) AS DOUBLE) AS cnt FROM {img} GROUP BY fmt),
     n AS (SELECT sum(cnt) AS total FROM c),
     e AS (SELECT * FROM (VALUES ('png', 0.70), ('jpeg', 0.25), ('webp', 0.05)) AS p(fmt, freq))
SELECT ROUND(SUM(POWER(COALESCE(c.cnt, 0) - e.freq * n.total, 2) / (e.freq * n.total)), 6) AS statistic,
       2 AS dof, CAST(n.total AS BIGINT) AS n
  FROM e CROSS JOIN n LEFT JOIN c ON c.fmt = e.fmt GROUP BY n.total
""",
    "image_drift_vs_profile": """
WITH c AS (SELECT fmt, CAST(count(*) AS DOUBLE) AS cnt FROM {img} GROUP BY fmt),
     n AS (SELECT sum(cnt) AS total FROM c),
     e AS (SELECT bucket AS fmt, freq FROM {refprof} WHERE "column" = 'fmt')
SELECT ROUND(SUM(POWER(COALESCE(c.cnt, 0) - e.freq * n.total, 2) / (e.freq * n.total)), 6) AS statistic,
       CAST((SELECT count(*) FROM e) - 1 AS INTEGER) AS dof,
       CAST(n.total AS BIGINT) AS n
  FROM e CROSS JOIN n LEFT JOIN c ON c.fmt = e.fmt GROUP BY n.total
""",
    "drift_mktsegment": """
WITH c AS (SELECT c_mktsegment AS seg, CAST(count(*) AS DOUBLE) AS cnt
             FROM customer GROUP BY c_mktsegment),
     n AS (SELECT sum(cnt) AS total, count(*) AS k FROM c)
SELECT ROUND(SUM(POWER(c.cnt - 0.2 * n.total, 2) / (0.2 * n.total)), 6) AS statistic,
       CAST(n.k - 1 AS INTEGER) AS dof, CAST(n.total AS BIGINT) AS n
  FROM c CROSS JOIN n GROUP BY n.k, n.total
""",
    "image_drift_psi": """
WITH c AS (SELECT fmt, CAST(count(*) AS DOUBLE) AS cnt FROM {img}
            WHERE fmt IS NOT NULL GROUP BY fmt),
     n AS (SELECT sum(cnt) AS total FROM c),
     e AS (SELECT bucket AS fmt, freq FROM {refprof} WHERE "column" = 'fmt'),
     terms AS (
  SELECT (GREATEST(COALESCE(c.cnt, 0) / n.total, 1e-6) - GREATEST(COALESCE(e.freq, 0), 1e-6))
         * ln(GREATEST(COALESCE(c.cnt, 0) / n.total, 1e-6) / GREATEST(COALESCE(e.freq, 0), 1e-6)) AS term,
         n.total
    FROM e FULL JOIN c ON c.fmt = e.fmt CROSS JOIN n)
SELECT ROUND(SUM(term), 6) AS statistic, CAST(total AS BIGINT) AS n,
       (SUM(term) > 0.25) AS shifted
  FROM terms GROUP BY total
""",
    "label_centroids": """
SELECT label, CAST(dim AS BIGINT) AS dim, ROUND(AVG(v), 6) AS mean_v
  FROM (SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
               generate_subscripts(embedding, 1) AS dim
          FROM embeddings)
 GROUP BY label, dim
""",
    "image_schema_conform": """
SELECT image_id, COALESCE(w, 0) AS w, COALESCE(h, 0) AS h,
       COALESCE(fmt, '') AS fmt, COALESCE(caption, '') AS caption,
       COALESCE(phash, 0) AS phash
  FROM {img}
""",
    "validate_documents": """
SELECT CAST(doc_id AS VARCHAR) AS row_ref, 'text' AS path, 'missing key' AS code,
       CAST(NULL AS VARCHAR) AS expected, CAST(NULL AS VARCHAR) AS received
  FROM documents WHERE text IS NULL
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'lang', 'missing key', NULL, NULL
  FROM documents WHERE lang IS NULL
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'source', 'missing key', NULL, NULL
  FROM documents WHERE source IS NULL
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'n_chars', 'missing key', NULL, NULL
  FROM documents WHERE n_chars IS NULL
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'text', 'invalid', 'non-empty string', text
  FROM documents WHERE text = ''
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'lang', 'invalid', 'one of [''de'', ''en'', ''es'', ''fr'', ''zh'']', lang
  FROM documents WHERE lang IS NOT NULL AND lang NOT IN ('de','en','es','fr','zh')
UNION ALL
SELECT CAST(doc_id AS VARCHAR), 'n_chars', 'invalid', '>=0', CAST(n_chars AS VARCHAR)
  FROM documents WHERE n_chars IS NOT NULL AND n_chars < 0
""",
    "conform_documents": """
SELECT doc_id, COALESCE(text, '') AS text, COALESCE(lang, '') AS lang,
       COALESCE(source, '') AS source, COALESCE(n_chars, 0) AS n_chars
  FROM documents
""",
    "stats_lineitem": """
SELECT 'l_quantity' AS "column", count(*) AS n_rows,
       CAST(sum(CASE WHEN l_quantity IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_nulls,
       ROUND(CAST(min(l_quantity) AS DOUBLE), 6) AS min_v,
       ROUND(CAST(max(l_quantity) AS DOUBLE), 6) AS max_v,
       ROUND(AVG(l_quantity), 6) AS mean_v,
       ROUND(stddev_samp(l_quantity), 6) AS std_v FROM lineitem
UNION ALL
SELECT 'l_extendedprice', count(*), CAST(sum(CASE WHEN l_extendedprice IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       ROUND(CAST(min(l_extendedprice) AS DOUBLE), 6),
       ROUND(CAST(max(l_extendedprice) AS DOUBLE), 6),
       ROUND(AVG(l_extendedprice), 6),
       ROUND(stddev_samp(l_extendedprice), 6) FROM lineitem
UNION ALL
SELECT 'l_discount', count(*), CAST(sum(CASE WHEN l_discount IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       ROUND(CAST(min(l_discount) AS DOUBLE), 6),
       ROUND(CAST(max(l_discount) AS DOUBLE), 6),
       ROUND(AVG(l_discount), 6),
       ROUND(stddev_samp(l_discount), 6) FROM lineitem
""",
    "referential_orders_customers": """
SELECT CAST(o_custkey AS VARCHAR) AS row_ref, 'o_custkey' AS path, 'invalid' AS code,
       'known o_custkey' AS expected, CAST(o_custkey AS VARCHAR) AS received
  FROM orders WHERE o_custkey NOT IN (SELECT c_custkey FROM customer)
""",
    "unique_event_ids": """
SELECT CAST(event_id AS VARCHAR) AS row_ref, 'event_id' AS path,
       'invalid' AS code, 'unique' AS expected
  FROM events
 WHERE event_id IN (SELECT event_id FROM events GROUP BY event_id HAVING count(*) > 1)
""",
    "events_windowed": """
SELECT event_type,
       (CAST(epoch_us(ts) AS BIGINT) // 3600000000) * 3600 AS window_start,
       count(*) AS n,
       CAST(ROUND(SUM(value) * 100) AS BIGINT) AS value_sum_cents
  FROM events GROUP BY 1, 2
""",
    "validate_events": """
SELECT CAST(event_id AS VARCHAR) AS row_ref, 'user_id' AS path, 'missing key' AS code,
       CAST(NULL AS VARCHAR) AS expected, CAST(NULL AS VARCHAR) AS received
  FROM events WHERE user_id IS NULL
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'event_type', 'missing key', NULL, NULL
  FROM events WHERE event_type IS NULL
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'value', 'missing key', NULL, NULL
  FROM events WHERE value IS NULL
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'props', 'missing key', NULL, NULL
  FROM events WHERE props IS NULL
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'user_id', 'invalid', '>=0', CAST(user_id AS VARCHAR)
  FROM events WHERE user_id IS NOT NULL AND user_id < 0
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'event_type', 'invalid',
       'one of [''click'', ''error'', ''purchase'', ''signup'', ''view'']', event_type
  FROM events WHERE event_type IS NOT NULL
   AND event_type NOT IN ('click', 'error', 'purchase', 'signup', 'view')
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'value', 'invalid', '>=0',
       CASE WHEN value = CAST(value AS BIGINT) THEN CAST(CAST(value AS BIGINT) AS VARCHAR)
            ELSE CAST(value AS VARCHAR) END
  FROM events WHERE value IS NOT NULL AND value < 0
""",
    "conform_event_props": """
SELECT event_id,
       '{"k":' || CAST(CAST(json_extract(props, '$.k') AS BIGINT) AS VARCHAR)
       || ',"m":0}' AS props
  FROM events WHERE props IS NOT NULL
""",
    "validate_event_props": """
WITH p AS (SELECT event_id, CAST(json_extract(props, '$.k') AS DOUBLE) AS k
             FROM events WHERE props IS NOT NULL)
SELECT CAST(event_id AS VARCHAR) AS row_ref, 'props.k' AS path,
       'invalid' AS code,
       'expected 0..50, got ' || CAST(CAST(k AS BIGINT) AS VARCHAR) AS message
  FROM p WHERE k IS NOT NULL AND (k < 0 OR k > 50)
UNION ALL
SELECT CAST(event_id AS VARCHAR), 'props.k', 'missing key', CAST(NULL AS VARCHAR)
  FROM p WHERE k IS NULL
""",
    "events_hopping": """
WITH w AS (
  SELECT event_type, (CAST(epoch_us(ts) AS BIGINT) // 1800000000) * 1800 AS ws
    FROM events
  UNION ALL
  SELECT event_type, (CAST(epoch_us(ts) AS BIGINT) // 1800000000) * 1800 - 1800
    FROM events)
SELECT event_type, ws AS window_start, count(*) AS n
  FROM w GROUP BY event_type, ws
""",
    "documents_ranked": """
SELECT doc_id, n_chars,
       row_number() OVER (ORDER BY n_chars, doc_id) AS rank
  FROM documents
""",
    "event_session_ids": """
WITH o AS (
  SELECT event_id, user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
    FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT event_id, user_id,
       CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM o
""",
    "event_sessions": """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) > 1800000000
              THEN 1 ELSE 0 END AS new_s
    FROM events)
SELECT user_id, CAST(SUM(new_s) AS BIGINT) AS n_sessions,
       count(*) AS n_events
  FROM o GROUP BY user_id
""",
    "top_duplicated_phashes": """
SELECT phash, count(*) AS n
  FROM {img}
 GROUP BY phash HAVING count(*) > 1
 ORDER BY n DESC, phash
 LIMIT 10
""",
    "documents_conform_diff": """
SELECT doc_id, 'changed' AS change FROM documents
 WHERE lang = 'en' AND text <> upper(text)
""",
    "profile_images": """
WITH im AS (SELECT * FROM {img}),
     v AS (
  SELECT 'image_id' AS "column", count(*) AS n_rows,
         CAST(sum(CASE WHEN image_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_nulls FROM im
  UNION ALL SELECT 'w', count(*), CAST(sum(CASE WHEN w IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM im
  UNION ALL SELECT 'h', count(*), CAST(sum(CASE WHEN h IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM im
  UNION ALL SELECT 'fmt', count(*), CAST(sum(CASE WHEN fmt IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM im
  UNION ALL SELECT 'caption', count(*), CAST(sum(CASE WHEN caption IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM im
  UNION ALL SELECT 'phash', count(*), CAST(sum(CASE WHEN phash IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM im)
SELECT "column", n_rows, n_nulls,
       ROUND(CAST(n_nulls AS DOUBLE) / GREATEST(CAST(n_rows AS DOUBLE), 1.0), 6) AS null_rate
  FROM v
""",
    "lineitem_quantiles": """
WITH o AS (SELECT CAST(l_extendedprice AS DOUBLE) AS v,
                  row_number() OVER (ORDER BY l_extendedprice) AS rn,
                  count(*) OVER () AS c
             FROM lineitem)
SELECT t.q, o.v AS value
  FROM o, (VALUES (0.5), (0.9), (0.99)) AS t(q)
 WHERE o.rn = CAST(floor((o.c - 1) * t.q) AS BIGINT) + 1
""",
    "lineitem_winsorized": """
WITH o AS (SELECT CAST(l_extendedprice AS DOUBLE) AS v,
                  row_number() OVER (ORDER BY l_extendedprice) AS rn,
                  count(*) OVER () AS c
             FROM lineitem),
lo AS (SELECT v FROM o WHERE rn = CAST(floor((c - 1) * 0.05) AS BIGINT) + 1),
hi AS (SELECT v FROM o WHERE rn = CAST(floor((c - 1) * 0.95) AS BIGINT) + 1)
SELECT l_orderkey, l_linenumber,
       CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_cents,
       CAST(ROUND(LEAST(GREATEST(CAST(l_extendedprice AS DOUBLE),
                                 (SELECT v FROM lo)),
                        (SELECT v FROM hi)) * 100) AS BIGINT)
         AS winsorized_cents
  FROM lineitem
""",
    "distinct_sources_by_lang": """
SELECT lang, CAST(COUNT(DISTINCT source) AS BIGINT) AS n_distinct
  FROM documents GROUP BY lang
""",
    # reproduces the deterministic histogram sketch bit-for-bit:
    # same linspace edge arithmetic, np.histogram edge-comparison
    # binning (edges join, not the floor formula — they differ at
    # edge ulps), same cumsum/interpolation term order
    "lineitem_quantiles_approx": """
WITH b AS (SELECT min(l_extendedprice) AS lo, max(l_extendedprice) AS hi,
                  CAST(count(l_extendedprice) AS DOUBLE) AS n FROM lineitem),
edges AS (
  SELECT CAST(t.i AS BIGINT) AS i,
         b.lo + CAST(t.i AS DOUBLE) * ((b.hi - b.lo) / 4096) AS edge
    FROM b, unnest(range(0, 4097)) t(i)),
binned AS (
  SELECT LEAST((SELECT max(e.i) FROM edges e
                 WHERE e.edge <= GREATEST(LEAST(v.l_extendedprice, b.hi), b.lo)),
               4095) AS bin
    FROM lineitem v, b WHERE v.l_extendedprice IS NOT NULL),
hist AS (
  SELECT t.i AS bin, CAST(COALESCE(c.cnt, 0) AS BIGINT) AS cnt
    FROM unnest(range(0, 4096)) t(i)
    LEFT JOIN (SELECT bin, count(*) AS cnt FROM binned GROUP BY bin) c ON c.bin = t.i),
cdf AS (
  SELECT bin, SUM(cnt) OVER (ORDER BY bin) / b.n AS c
    FROM hist, b),
qs AS (SELECT * FROM (VALUES (0.5), (0.9), (0.99)) t(q)),
pick AS (
  SELECT q.q, min(cdf.bin) AS b0 FROM qs q JOIN cdf ON cdf.c >= q.q GROUP BY q.q)
SELECT p.q,
       e0.edge + ((p.q - COALESCE(cp.c, 0.0))
                  / GREATEST(cb.c - COALESCE(cp.c, 0.0), 1e-300))
                 * (e1.edge - e0.edge) AS value
  FROM pick p
  JOIN edges e0 ON e0.i = p.b0
  JOIN edges e1 ON e1.i = p.b0 + 1
  JOIN cdf cb ON cb.bin = p.b0
  LEFT JOIN cdf cp ON cp.bin = p.b0 - 1
""",
    "lineitem_ntile": """
SELECT l_orderkey, l_linenumber, l_extendedprice,
       CAST(NTILE(100) OVER w AS BIGINT) AS ntile,
       ROUND(percent_rank() OVER w, 6) AS pct_rank
  FROM lineitem
WINDOW w AS (ORDER BY l_extendedprice, l_orderkey, l_linenumber)
""",
    "lineitem_zscore": """
SELECT l_orderkey, l_linenumber, l_returnflag,
       ROUND(CASE WHEN stddev_samp(l_quantity) OVER w > 0
                  THEN (l_quantity - AVG(l_quantity) OVER w)
                       / (stddev_samp(l_quantity) OVER w)
                  ELSE 0 END, 6) AS z
  FROM lineitem WINDOW w AS (PARTITION BY l_returnflag)
""",
    # valid because the deterministic MinHash/LSH pipeline achieves
    # 100% recall on this corpus (verified: its 25 pairs equal the
    # exhaustive jaccard>=0.8 pair set) and its verifier outputs
    # EXACT n-gram jaccard — so the exhaustive SQL is the semantics,
    # not an approximation of them. word_shingles uses whitespace-run
    # splitting and a whole-text shingle for docs under 3 words.
    "minhash_dedup": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
            FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
           GROUP BY 1, 2)
SELECT a, b, ROUND(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 6) AS jaccard
  FROM inter JOIN sizes sa ON sa.doc_id = inter.a
             JOIN sizes sb ON sb.doc_id = inter.b
 WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
""",
    "minhash_dedup_groups": r"""
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
            FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
           GROUP BY 1, 2),
edges AS (
  SELECT a, b FROM inter JOIN sizes sa ON sa.doc_id = inter.a
                         JOIN sizes sb ON sb.doc_id = inter.b
   WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS doc_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n)
SELECT doc_id FROM documents
 WHERE doc_id NOT IN (SELECT doc_id FROM root WHERE doc_id != rep)
""",
    "orders_enriched": """
SELECT o.o_orderkey, o.o_custkey, c.c_name, c.c_mktsegment,
       CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS total_cents
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
""",
    "orders_left_enriched": """
SELECT o.o_orderkey, o.o_custkey, c.c_name
  FROM orders o LEFT JOIN (SELECT c_custkey, c_name FROM customer
                            WHERE c_mktsegment = 'BUILDING') c
    ON o.o_custkey = c.c_custkey
""",
    "events_enriched_salted": """
SELECT e.event_id, e.user_id, e.event_type, c.c_name, c.c_mktsegment
  FROM events e JOIN customer c ON e.user_id = c.c_custkey
""",
    "orders_customer_full": """
WITH o AS (SELECT o_custkey,
                  CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                       AS BIGINT) AS total_cents,
                  CAST(COUNT(*) AS BIGINT) AS n_orders
             FROM orders WHERE o_orderstatus = 'F' GROUP BY 1),
     c AS (SELECT c_custkey, c_name, c_mktsegment FROM customer
            WHERE c_mktsegment = 'BUILDING')
SELECT COALESCE(o.o_custkey, c.c_custkey) AS o_custkey,
       o.n_orders, o.total_cents, c.c_name, c.c_mktsegment
  FROM o FULL OUTER JOIN c ON o.o_custkey = c.c_custkey
""",
    "heavy_event_users_cm": """
WITH c AS (SELECT user_id, count(*) AS est_n FROM events GROUP BY user_id)
SELECT user_id, est_n FROM c ORDER BY est_n DESC, user_id LIMIT 10
""",
    "events_in_campaigns": """
WITH camp AS (
  SELECT CAST(i AS BIGINT) AS campaign_id,
         TIMESTAMP '2024-01-01 00:00:00' + to_hours(24 * i) AS start_ts,
         TIMESTAMP '2024-01-01 00:00:00' + to_hours(24 * i + 30) AS end_ts
    FROM unnest(range(0, 25)) AS t(i))
SELECT e.event_id, c.campaign_id
  FROM events e JOIN camp c ON e.ts >= c.start_ts AND e.ts < c.end_ts
""",
    "top_users_per_event_type": """
SELECT event_type, user_id, n FROM (
  SELECT event_type, user_id, count(*) AS n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY count(*) DESC, user_id) AS rn
    FROM events GROUP BY event_type, user_id)
 WHERE rn <= 3
""",
    "events_last_order": """
SELECT e.event_id AS row_id, e.user_id AS k,
       CAST(floor(epoch((SELECT max(o.o_orderdate) FROM orders o
                          WHERE o.o_custkey = e.user_id
                            AND o.o_orderdate <= e.ts))) AS BIGINT) AS asof_epoch_s
  FROM events e
""",
    "fmt_stats_salted": """
SELECT fmt, count(*) AS n, ROUND(AVG(CAST(w AS DOUBLE)), 6) AS mean_w
  FROM {img} GROUP BY fmt
""",
    "violation_summary": """
WITH im AS (SELECT * FROM {img}), v AS (
  SELECT 'caption' AS path, 'missing key' AS code FROM im WHERE caption IS NULL
  UNION ALL SELECT 'w', 'missing key' FROM im WHERE w IS NULL
  UNION ALL SELECT 'h', 'missing key' FROM im WHERE h IS NULL
  UNION ALL SELECT 'fmt', 'missing key' FROM im WHERE fmt IS NULL
  UNION ALL SELECT 'phash', 'missing key' FROM im WHERE phash IS NULL
  UNION ALL SELECT 'w', 'invalid' FROM im WHERE w IS NOT NULL AND (w < 1 OR w > 65535)
  UNION ALL SELECT 'h', 'invalid' FROM im WHERE h IS NOT NULL AND (h < 1 OR h > 65535)
  UNION ALL SELECT 'fmt', 'invalid' FROM im
     WHERE fmt IS NOT NULL AND fmt NOT IN ('png', 'jpeg', 'webp'))
SELECT path, code, count(*) AS n FROM v GROUP BY path, code
""",
    "dedup_exact_documents": """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
""",
    "doc_fingerprints": """
SELECT doc_id, md5(text) AS fingerprint FROM documents
""",
    "text_metrics": """
SELECT doc_id, length(text) AS n_chars,
       len(string_split(text, ' ')) AS n_words,
       length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper
  FROM documents
""",
    "token_count_by_lang": """
SELECT lang, CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS tokens
  FROM documents GROUP BY lang
""",
    "bpe_token_counts": """
SELECT doc_id,
       CAST(len(regexp_extract_all(text,
            '''[a-z]+| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s]+')) AS BIGINT) AS n_tokens
  FROM documents
""",
    "quality_scores": """
WITH m AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM documents)
SELECT doc_id,
       ROUND(
         0.4 * LEAST(1.0, n_words / 64.0)
         + 0.3 * (CASE WHEN n_words > 0
                        AND (n_chars - (n_words - 1)) / n_words >= 3
                        AND (n_chars - (n_words - 1)) / n_words <= 12
                       THEN 1.0 ELSE 0.0 END)
         + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END)
       , 6) AS score
  FROM m
""",
    "image_w_drift_ks": """
WITH b AS (SELECT LEAST(CAST(LEAST(GREATEST(w, 8), 33) AS INTEGER) - 8, 24) AS bin
             FROM {img} WHERE w IS NOT NULL),
     g AS (SELECT r.range AS bin, COALESCE(c.cnt, 0) AS cnt
             FROM range(0, 25) r
             LEFT JOIN (SELECT bin, CAST(count(*) AS DOUBLE) AS cnt
                          FROM b GROUP BY bin) c ON c.bin = r.range),
     n AS (SELECT sum(cnt) AS total FROM g),
     e AS (SELECT SUM(g.cnt) OVER (ORDER BY g.bin) / n.total AS ecdf,
                  (g.bin + 1) / 25.0 AS ref
             FROM g CROSS JOIN n),
     d AS (SELECT MAX(ABS(ecdf - ref)) AS stat FROM e),
     l AS (SELECT d.stat, n.total,
                  (sqrt(n.total) + 0.12 + 0.11 / sqrt(n.total)) * d.stat AS lam
             FROM d CROSS JOIN n)
SELECT ROUND(stat, 6) AS statistic, CAST(total AS BIGINT) AS n,
       (2 * (exp(-2 * lam * lam) - exp(-8 * lam * lam)
             + exp(-18 * lam * lam) - exp(-32 * lam * lam)) < 0.01) AS drifted
  FROM l
""",
    "docs_regex_filtered": """
SELECT doc_id FROM documents WHERE NOT regexp_matches(text, '(vector|stream)')
""",
    "doc_decontaminate": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT doc_id, array_to_string(w[i:i+3], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-3, 0)+1)) AS t(i)
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 11 = 0)
SELECT g.doc_id, CAST(count(DISTINCT g.g) AS BIGINT) AS n_hits
  FROM grams g JOIN bench b USING (g)
 WHERE g.doc_id % 11 != 0
 GROUP BY g.doc_id
""",
    "decontam_attribution": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+3], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-3, 0)+1)) AS t(i)
)
SELECT DISTINCT c.doc_id, b.doc_id AS bench_id
  FROM grams c JOIN grams b USING (g)
 WHERE c.doc_id % 11 != 0 AND b.doc_id % 11 = 0
""",
    "event_funnel": """
WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
             WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.ts) AS t
         FROM events e JOIN s1 ON s1.user_id = e.user_id
        WHERE e.event_type = 'click' AND e.ts > s1.t GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.ts) AS t
         FROM events e JOIN s2 ON s2.user_id = e.user_id
        WHERE e.event_type = 'purchase' AND e.ts > s2.t GROUP BY 1)
SELECT 1 AS step, 'view' AS step_name, CAST(count(*) AS BIGINT) AS users FROM s1
UNION ALL
SELECT 2, 'click', count(*) FROM s2
UNION ALL
SELECT 3, 'purchase', count(*) FROM s3
""",
    "doc_mixture_sample": """
SELECT * FROM documents
 WHERE CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) % 10000
       < CASE lang WHEN 'en' THEN 5000 WHEN 'de' THEN 2500 ELSE 1000 END
""",
    "doc_chunks": """
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM documents, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "tfidf_top_terms": """
WITH w AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS word
             FROM documents),
agg AS (SELECT lang, word, CAST(count(*) AS DOUBLE) AS tf,
               CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
          FROM w GROUP BY 1, 2),
nl AS (SELECT lang, CAST(count(*) AS DOUBLE) AS n_docs FROM documents GROUP BY 1),
sc AS (SELECT agg.lang, agg.word, ROUND(agg.tf * ln(nl.n_docs / agg.df), 6) AS score
         FROM agg JOIN nl USING (lang)),
r AS (SELECT *, row_number() OVER (PARTITION BY lang
                                   ORDER BY score DESC, word) AS rn FROM sc)
SELECT lang, word, score FROM r WHERE rn <= 5
""",
    "doc_pii_multi": r"""
WITH aug AS (
  SELECT doc_id,
         text
         || CASE WHEN doc_id % 7 = 0
                 THEN ' contact: user' || CAST(doc_id AS VARCHAR) || '@example.com'
                 ELSE '' END
         || CASE WHEN doc_id % 5 = 0
                 THEN ' call 555-' || CAST(1000 + doc_id % 9000 AS VARCHAR)
                 ELSE '' END
         || CASE WHEN doc_id % 4 = 0
                 THEN ' from 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                      || '.' || CAST(doc_id % 100 AS VARCHAR)
                 ELSE '' END AS text
    FROM documents)
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
       CAST(len(regexp_extract_all(text, '\b\d{3}-\d{4}\b')) AS BIGINT) AS n_phone,
       CAST(len(regexp_extract_all(text, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ip,
       regexp_replace(
         regexp_replace(
           regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
           '\b\d{3}-\d{4}\b', '[PHONE]', 'g'),
         '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g') AS redacted
  FROM aug
""",
    "orders_high_value": """
SELECT o_orderkey, o_totalprice, o_orderpriority
  FROM orders WHERE o_totalprice > 350000.0
""",
    "doc_splits": """
SELECT *, CASE
            WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) % 10000 < 8000 THEN 'train'
            WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) % 10000 < 9000 THEN 'val'
            ELSE 'test' END AS split
  FROM documents
""",
    "events_since_last_purchase": """
SELECT e.event_id AS row_id, e.user_id AS k,
       (SELECT max(epoch_us(p.ts)) FROM events p
         WHERE p.user_id = e.user_id AND p.event_type = 'purchase'
           AND p.ts <= e.ts
           AND epoch_us(e.ts) - epoch_us(p.ts) <= 7200000000) // 1000000
         AS asof_epoch_s
  FROM events e
""",
    "doc_cap_per_source": """
WITH r AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
    FROM documents)
SELECT source, doc_id FROM r WHERE rn <= 10
""",
    "top_event_types_per_window": """
WITH w AS (SELECT (CAST(epoch_us(ts) AS BIGINT) // 3600000000) * 3600 AS window_start,
                  event_type
             FROM events),
c AS (SELECT window_start, event_type, count(*) AS n FROM w GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (PARTITION BY window_start
                                   ORDER BY n DESC, event_type) AS rn FROM c)
SELECT window_start, event_type, n FROM r WHERE rn <= 3
""",
    "embedding_quantized": """
WITH flat AS (
  SELECT vec_id, CAST(unnest(CAST(embedding AS DOUBLE[])) AS DOUBLE) AS v,
         CAST(generate_subscripts(embedding, 1) AS BIGINT) AS dim
    FROM embeddings),
scales AS (
  SELECT vec_id, max(abs(v)) AS s FROM flat GROUP BY vec_id)
SELECT f.vec_id, f.dim,
       CAST(CASE WHEN s > 0 THEN floor(v * (127.0 / s) + 0.5) ELSE 0 END AS BIGINT) AS q,
       CAST(floor(s * 1e6 + 0.5) AS BIGINT) AS scale_e6
  FROM flat f JOIN scales USING (vec_id)
""",
    "doc_pii_redacted": """
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 0
              THEN text || ' contact: user' || CAST(doc_id AS VARCHAR) || '@example.com'
              ELSE text END AS text
    FROM documents)
SELECT doc_id,
       regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS redacted,
       CAST(len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_redacted
  FROM aug
""",
    "lang_id": """
WITH t AS (SELECT doc_id, text, string_split(lower(text), ' ') AS words
             FROM documents),
     s AS (SELECT doc_id, text,
   len(list_filter(words, x -> x IN ('the','a','of','and','to','in','is','it','that','for'))) AS s_en,
   len(list_filter(words, x -> x IN ('der','die','das','und','ist','ein','zu','mit','von','nicht'))) AS s_de,
   len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','de','que','pour'))) AS s_fr,
   len(list_filter(words, x -> x IN ('el','la','los','las','es','un','una','de','que','por'))) AS s_es,
   length(regexp_replace(substr(text, 1, 200), '[^一-鿿]', '', 'g')) AS cjk,
   length(substr(text, 1, 200)) AS head_len
  FROM t)
SELECT doc_id,
  CASE WHEN text IS NULL OR text = '' THEN 'und'
       WHEN cjk > head_len * 0.2 THEN 'zh'
       WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
       WHEN s_en = GREATEST(s_en, s_de, s_fr, s_es) THEN 'en'
       WHEN s_de = GREATEST(s_en, s_de, s_fr, s_es) THEN 'de'
       WHEN s_fr = GREATEST(s_en, s_de, s_fr, s_es) THEN 'fr'
       ELSE 'es' END AS lang_pred
  FROM s
""",
    "doc_repetition": """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS words FROM documents)
SELECT doc_id,
       CAST(len(words) AS BIGINT) AS n_words,
       CAST(len(list_distinct(words)) AS BIGINT) AS n_distinct,
       ROUND(CASE WHEN len(words) > 0
                  THEN CAST(len(list_distinct(words)) AS DOUBLE) / len(words)
                  ELSE 0.0 END, 6) AS diversity
  FROM w
""",
    "corpus_prepare": r"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
grams AS (
  SELECT doc_id, array_to_string(w[i:i+3], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-3, 0)+1)) AS t(i)),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 11 = 0),
contaminated AS (
  SELECT DISTINCT g.doc_id FROM grams g JOIN bench b USING (g)
   WHERE g.doc_id % 11 != 0),
clean AS (
  SELECT * FROM documents
   WHERE doc_id % 11 != 0
     AND doc_id NOT IN (SELECT doc_id FROM contaminated)),
red AS (
  SELECT doc_id, source, lang,
         regexp_replace(
           CASE WHEN doc_id % 7 = 0
                THEN text || ' contact: user' || CAST(doc_id AS VARCHAR) || '@example.com'
                ELSE text END,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS text
    FROM clean),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
-- dedup runs AFTER the lang/quality filter (matching the Ray DAG:
-- exact_dedup_keep_first over the prepped survivors) — the keeper of a
-- text is the min doc_id among rows that PASSED the filters
filt AS (SELECT * FROM s WHERE lang = 'en' AND score >= 0.5),
surv AS (
  SELECT * FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY text) AS keeper FROM filt)
   WHERE doc_id = keeper),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "corpus_clean": """
WITH m AS (
  SELECT doc_id, lang,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper,
         min(doc_id) OVER (PARTITION BY text) AS keeper
    FROM documents),
 s AS (
  SELECT doc_id, lang, keeper,
         ROUND(
           0.4 * LEAST(1.0, n_words / 64.0)
           + 0.3 * (CASE WHEN n_words > 0
                          AND (n_chars - (n_words - 1)) / n_words >= 3
                          AND (n_chars - (n_words - 1)) / n_words <= 12
                         THEN 1.0 ELSE 0.0 END)
           + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END)
         , 6) AS score
    FROM m)
SELECT doc_id, score FROM s
 WHERE doc_id = keeper AND score >= 0.6 AND lang = 'en'
""",
    "corpus_rejected": """
WITH m AS (
  SELECT doc_id, lang,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper,
         min(doc_id) OVER (PARTITION BY text) AS keeper
    FROM documents),
 s AS (
  SELECT doc_id, lang, keeper,
         ROUND(
           0.4 * LEAST(1.0, n_words / 64.0)
           + 0.3 * (CASE WHEN n_words > 0
                          AND (n_chars - (n_words - 1)) / n_words >= 3
                          AND (n_chars - (n_words - 1)) / n_words <= 12
                         THEN 1.0 ELSE 0.0 END)
           + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END)
         , 6) AS score
    FROM m)
SELECT doc_id FROM documents
EXCEPT
SELECT doc_id FROM s WHERE doc_id = keeper AND score >= 0.6 AND lang = 'en'
""",
    "embedding_dedup_survivors": """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM {emb_seeded}),
     p AS (SELECT x.vec_id AS a, y.vec_id AS b
             FROM e x JOIN e y ON x.vec_id < y.vec_id
            WHERE list_cosine_similarity(x.v, y.v) >= 0.9)
SELECT vec_id FROM e WHERE vec_id NOT IN (SELECT b FROM p)
""",
    # valid for the same reason as the seeded variant: the LSH
    # pipeline's recall is certified against this exhaustive SQL by
    # the seeded fixture; on the base table both sides agree there
    # are NO pairs at the threshold — an oracled 0=0, not a vacuous
    # rows-only pass
    "embedding_near_dups": """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
     p AS (SELECT x.vec_id AS a, y.vec_id AS b,
                  list_cosine_similarity(x.v, y.v) AS sim
             FROM e x JOIN e y ON x.vec_id < y.vec_id)
SELECT a, b, ROUND(sim, 6) AS sim FROM p WHERE sim >= 0.9
""",
    "embedding_near_dups_seeded": """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM {emb_seeded}),
     p AS (SELECT x.vec_id AS a, y.vec_id AS b,
                  list_cosine_similarity(x.v, y.v) AS sim
             FROM e x JOIN e y ON x.vec_id < y.vec_id)
SELECT a, b, ROUND(sim, 6) AS sim FROM p WHERE sim >= 0.9
""",
    # line dedup: first occurrence by (doc_id, pos) wins; documents
    # with zero surviving lines drop out of the GROUP BY on both
    # sides (documented contract)
    # encoding hygiene: U+FFFD counted by length-diff after a
    # single-char replace; C0 controls by RE2 class strip — DuckDB
    # length() counts codepoints like pc.utf8_length
    "text_hygiene": """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM {hyg_docs}),
c AS (SELECT doc_id,
             CAST(length(text) AS BIGINT) AS n_chars,
             CAST(length(text) - length(replace(text, chr(65533), ''))
                  AS BIGINT) AS n_replacement,
             CAST(length(text) - length(regexp_replace(
                    text, '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]', '', 'g'))
                  AS BIGINT) AS n_control
        FROM d)
SELECT doc_id, n_chars, n_replacement, n_control,
       (n_replacement = 0 AND n_control = 0) AS passed
  FROM c
""",
    # gopher format rules: same integer fraction expression as
    # gopher_repetition; '#'/'…' counted by length-diff, '...' by
    # non-overlapping RE2 extract on both sides
    "gopher_format": """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM {fmt_docs}),
base AS (SELECT doc_id, text,
  CAST(len(list_filter(string_split_regex(text, '\\s+'),
                       x -> x <> '')) AS BIGINT) AS n_words,
  CAST(len(regexp_extract_all(text, '\\.\\.\\.'))
       + (length(text) - length(replace(text, '#', '')))
       + (length(text) - length(replace(text, '…', ''))) AS BIGINT)
    AS n_sym,
  CAST(len(list_filter(string_split_regex(text, '\\s+'),
                       x -> x <> '' AND regexp_matches(x, '[A-Za-z]')))
       AS BIGINT) AS n_alpha
  FROM d),
ls AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM d),
lines AS (SELECT doc_id, ls[i] AS line
            FROM ls, unnest(range(1, len(ls) + 1)) AS t(i)),
lstat AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_lines,
       CAST(SUM(CASE WHEN regexp_matches(line, '^\\s*[-*•]')
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_bullet,
       CAST(SUM(CASE WHEN regexp_matches(line, '(\\.\\.\\.|…)$')
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_ell
  FROM lines GROUP BY 1),
f AS (SELECT b.doc_id,
  CAST(CASE WHEN b.n_words > 0
            THEN (2 * b.n_sym * 1000000 + b.n_words) // (2 * b.n_words)
            ELSE 0 END AS BIGINT) AS symbol_ratio_e6,
  CAST(CASE WHEN l.n_lines > 0
            THEN (2 * l.n_bullet * 1000000 + l.n_lines) // (2 * l.n_lines)
            ELSE 0 END AS BIGINT) AS bullet_frac_e6,
  CAST(CASE WHEN l.n_lines > 0
            THEN (2 * l.n_ell * 1000000 + l.n_lines) // (2 * l.n_lines)
            ELSE 0 END AS BIGINT) AS ellipsis_frac_e6,
  CAST(CASE WHEN b.n_words > 0
            THEN (2 * b.n_alpha * 1000000 + b.n_words) // (2 * b.n_words)
            ELSE 0 END AS BIGINT) AS alpha_word_frac_e6
  FROM base b JOIN lstat l USING (doc_id))
SELECT doc_id, symbol_ratio_e6, bullet_frac_e6, ellipsis_frac_e6,
       alpha_word_frac_e6,
       symbol_ratio_e6 <= 100000 AS pass_symbol,
       bullet_frac_e6 <= 900000 AS pass_bullet,
       ellipsis_frac_e6 <= 300000 AS pass_ellipsis,
       alpha_word_frac_e6 >= 800000 AS pass_alpha,
       (symbol_ratio_e6 <= 100000 AND bullet_frac_e6 <= 900000
        AND ellipsis_frac_e6 <= 300000
        AND alpha_word_frac_e6 >= 800000) AS passed
  FROM f
""",
    # url blocklist: exact suffix semantics (host = d OR host ends
    # with '.' || d — ends_with, not LIKE, so '_' in a domain can't
    # wildcard) against the SAME persisted blocklist parquet
    "url_blocked": """
WITH u AS (SELECT doc_id, url,
                  regexp_extract(url, '^[a-z][a-z0-9+.-]*://([^/?#]+)', 1)
                    AS host
             FROM {url_docs}),
b AS (SELECT domain FROM {url_bl})
SELECT u.doc_id, u.host,
       EXISTS (SELECT 1 FROM b
                WHERE u.host = b.domain
                   OR ends_with(u.host, '.' || b.domain)) AS blocked
  FROM u
""",
    # gopher repetition: every fraction is the exact integer
    # expression floor(num*1e6/den + .5) = (2*num*1e6 + den)//(2*den);
    # top-2-gram tie-break (count DESC, char-len DESC) makes the
    # selected num = c*cl unique even under gram ties
    "gopher_repetition": """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM {line_docs}),
ls AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM d),
lines AS (SELECT doc_id, ls[i] AS line
            FROM ls, unnest(range(1, len(ls) + 1)) AS t(i)),
lg AS (SELECT doc_id, line, CAST(count(*) AS BIGINT) AS c,
              CAST(length(line) AS BIGINT) AS ln
         FROM lines GROUP BY 1, 2),
lstats AS (SELECT doc_id,
                  CAST(SUM(c) AS BIGINT) AS n_lines,
                  CAST(SUM(c) - COUNT(*) AS BIGINT) AS dup_lines,
                  CAST(SUM((c - 1) * ln) AS BIGINT) AS dup_chars,
                  CAST(SUM(c * ln) AS BIGINT) AS line_chars
             FROM lg GROUP BY 1),
w AS (SELECT doc_id, string_split(text, ' ') AS w,
             CAST(length(text) AS BIGINT) AS tc FROM d),
g2 AS (SELECT doc_id, array_to_string(w[i:i+1], ' ') AS g
         FROM w, unnest(range(1, greatest(len(w) - 1, 0) + 1)) AS t(i)),
g2c AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS c,
               CAST(length(g) AS BIGINT) AS cl
          FROM g2 GROUP BY doc_id, g),
top2 AS (SELECT doc_id, c * cl AS num FROM (
           SELECT doc_id, c, cl,
                  row_number() OVER (PARTITION BY doc_id
                                     ORDER BY c DESC, cl DESC) AS rn
             FROM g2c) WHERE rn = 1),
g5 AS (SELECT doc_id, array_to_string(w[i:i+4], ' ') AS g
         FROM w, unnest(range(1, greatest(len(w) - 4, 0) + 1)) AS t(i)),
g5c AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS c,
               CAST(length(g) AS BIGINT) AS cl
          FROM g5 GROUP BY doc_id, g),
dup5 AS (SELECT doc_id,
                CAST(SUM(CASE WHEN c >= 2 THEN c * cl ELSE 0 END) AS BIGINT)
                  AS num
           FROM g5c GROUP BY 1)
SELECT d.doc_id,
       l.n_lines,
       CAST(CASE WHEN l.n_lines > 0
                 THEN (2 * l.dup_lines * 1000000 + l.n_lines)
                      // (2 * l.n_lines)
                 ELSE 0 END AS BIGINT) AS dup_line_frac_e6,
       CAST(CASE WHEN l.line_chars > 0
                 THEN (2 * l.dup_chars * 1000000 + l.line_chars)
                      // (2 * l.line_chars)
                 ELSE 0 END AS BIGINT) AS dup_line_char_frac_e6,
       CAST(CASE WHEN w.tc > 0
                 THEN (2 * coalesce(t2.num, 0) * 1000000 + w.tc)
                      // (2 * w.tc)
                 ELSE 0 END AS BIGINT) AS top2_char_frac_e6,
       CAST(CASE WHEN w.tc > 0
                 THEN (2 * coalesce(d5.num, 0) * 1000000 + w.tc)
                      // (2 * w.tc)
                 ELSE 0 END AS BIGINT) AS dup5_char_frac_e6
  FROM d
  JOIN lstats l USING (doc_id)
  JOIN w USING (doc_id)
  LEFT JOIN top2 t2 USING (doc_id)
  LEFT JOIN dup5 d5 USING (doc_id)
""",
    # percent-of-total shares: pure int64 arithmetic on both sides
    # (floor(v*1e6/tot + 0.5) == (2*v*1e6 + tot) // (2*tot))
    "event_type_shares": """
WITH g AS (SELECT event_type, CAST(count(*) AS BIGINT) AS total
             FROM events GROUP BY 1),
t AS (SELECT CAST(SUM(total) AS BIGINT) AS grand FROM g)
SELECT g.event_type, g.total,
       CAST((2 * g.total * 1000000 + t.grand) // (2 * t.grand) AS BIGINT)
         AS share_e6
  FROM g, t
""",
    "lineitem_qty_share": """
WITH l AS (SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
                  l_returnflag, CAST(l_quantity AS BIGINT) AS val
             FROM lineitem WHERE l_quantity IS NOT NULL),
g AS (SELECT *, CAST(SUM(val) OVER (PARTITION BY l_returnflag) AS BIGINT)
                  AS tot
        FROM l)
SELECT l_orderkey, l_linenumber, l_returnflag, val,
       CAST((2 * val * 1000000 + tot) // (2 * tot) AS BIGINT) AS share_e6
  FROM g
""",
    "line_dedup_docs": """
WITH l0 AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM {line_docs}),
lines AS (
  SELECT doc_id, i AS pos, ls[i] AS line, len(ls) AS n_total
    FROM l0, unnest(range(1, len(ls) + 1)) AS t(i)),
firsts AS (
  SELECT *, row_number() OVER (PARTITION BY line
                               ORDER BY doc_id, pos) AS rn
    FROM lines)
SELECT doc_id, string_agg(line, chr(10) ORDER BY pos) AS text,
       CAST(count(*) AS BIGINT) AS n_kept,
       CAST(min(n_total) AS BIGINT) AS n_total
  FROM firsts WHERE rn = 1
 GROUP BY doc_id
""",
    # cross-corpus fuzzy dedup: exhaustive Jaccard between the two
    # doc_id % 3 slices, same shingle semantics as minhash_dedup
    "cross_corpus_near_dups": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT gn.doc_id AS new_id, gb.doc_id AS base_id, count(*) AS i
            FROM grams gn JOIN grams gb ON gn.g = gb.g
           WHERE gn.doc_id % 3 != 0 AND gb.doc_id % 3 = 0
           GROUP BY 1, 2)
SELECT new_id, base_id,
       ROUND(CAST(i AS DOUBLE) / (sn.n + sb.n - i), 6) AS jaccard
  FROM inter JOIN sizes sn ON sn.doc_id = inter.new_id
             JOIN sizes sb ON sb.doc_id = inter.base_id
 WHERE CAST(i AS DOUBLE) / (sn.n + sb.n - i) >= 0.8
""",
    # corpus_prepare_minhash: the corpus_prepare chain with the
    # exact-dup window replaced by the minhash_dedup_groups
    # recursive-CTE components over the FILTERED, REDACTED text
    "corpus_prepare_minhash": r"""
WITH RECURSIVE red AS (
  SELECT doc_id, source, lang,
         regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
           '[EMAIL]', 'g') AS text
    FROM documents),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
filt AS (SELECT * FROM s WHERE lang = 'en' AND score >= 0.5),
toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM filt),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
            FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
           GROUP BY 1, 2),
edges AS (
  SELECT a, b FROM inter JOIN sizes sa ON sa.doc_id = inter.a
                         JOIN sizes sb ON sb.doc_id = inter.b
   WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS doc_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n),
surv AS (
  SELECT * FROM filt
   WHERE doc_id NOT IN (SELECT doc_id FROM root WHERE doc_id != rep)),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    # corpus_prepare_lines: the production composite with the CCNet
    # line-dedup stage prepended — the line_dedup_docs CTE chain
    # feeding the corpus_prepare chain (no bench/injection fixtures;
    # the line fixture carries lang/source through the rebuild)
    "corpus_prepare_lines": """
WITH l0 AS (SELECT doc_id, lang, source,
                   string_split(text, chr(10)) AS ls FROM {line_docs}),
lines AS (
  SELECT doc_id, lang, source, i AS pos, ls[i] AS line
    FROM l0, unnest(range(1, len(ls) + 1)) AS t(i)),
firsts AS (
  SELECT *, row_number() OVER (PARTITION BY line
                               ORDER BY doc_id, pos) AS rn
    FROM lines),
rebuilt AS (
  SELECT doc_id, min(lang) AS lang, min(source) AS source,
         string_agg(line, chr(10) ORDER BY pos) AS text
    FROM firsts WHERE rn = 1
   GROUP BY doc_id),
red AS (
  SELECT doc_id, source, lang,
         regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
           '[EMAIL]', 'g') AS text
    FROM rebuilt),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
filt AS (SELECT * FROM s WHERE lang = 'en' AND score >= 0.5),
surv AS (
  SELECT * FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY text) AS keeper FROM filt)
   WHERE doc_id = keeper),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "corpus_prepare_hygiene": """
WITH red AS (
  SELECT doc_id, source, lang,
         regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
           '[EMAIL]', 'g') AS text
    FROM {hyg_docs}),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
filt AS (SELECT * FROM s
          WHERE lang = 'en' AND score >= 0.5
            AND length(text) = length(replace(text, chr(65533), ''))
            AND length(text) = length(regexp_replace(
                  text, '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]', '', 'g'))),
surv AS (
  SELECT * FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY text) AS keeper FROM filt)
   WHERE doc_id = keeper),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "corpus_prepare_substr": r"""
WITH red AS (
  SELECT doc_id, source, lang,
         regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
           '[EMAIL]', 'g') AS text
    FROM documents),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
filt AS (SELECT doc_id, source, text FROM s
          WHERE lang = 'en' AND score >= 0.5),
toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM filt),
grams AS (
  SELECT doc_id, i - 1 AS p, array_to_string(w[i:i+4], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w) - 5 + 1, 0) + 1)) AS t(i)
   WHERE len(w) >= 5),
cnt AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
dup AS (SELECT doc_id, p FROM grams JOIN cnt USING (g) WHERE c > 1),
dupdocs AS (SELECT DISTINCT doc_id FROM dup),
covered AS (
  SELECT DISTINCT doc_id, p + j AS cp
    FROM dup, unnest(range(0, 5)) AS u(j)),
kept AS (
  SELECT t.doc_id, i - 1 AS p, w[i] AS tok
    FROM toks t JOIN dupdocs d USING (doc_id),
         unnest(range(1, len(w) + 1)) AS t2(i)
   WHERE NOT EXISTS (SELECT 1 FROM covered c
                      WHERE c.doc_id = t.doc_id AND c.cp = i - 1)),
rebuilt AS (
  SELECT f.doc_id, f.source,
         CASE WHEN d.doc_id IS NOT NULL
              THEN coalesce((SELECT string_agg(tok, ' ' ORDER BY p)
                               FROM kept k WHERE k.doc_id = f.doc_id), '')
              ELSE f.text END AS text
    FROM filt f LEFT JOIN dupdocs d USING (doc_id)),
ne AS (SELECT * FROM rebuilt WHERE text <> ''),
surv AS (
  SELECT * FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY text) AS keeper FROM ne)
   WHERE doc_id = keeper),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "c4_clean": """
WITH l0 AS (SELECT doc_id, text AS fulltext,
                   string_split(text, chr(10)) AS ls FROM {c4_docs}),
lines AS (
  SELECT doc_id, i AS pos, ls[i] AS line
    FROM l0, unnest(range(1, len(ls) + 1)) AS t(i)),
kept AS (
  SELECT doc_id, pos, line FROM lines
   WHERE regexp_matches(line, '[.!?"]$')
     AND len(list_filter(string_split_regex(line, '\\s+'), x -> x <> '')) >= 3
     AND NOT contains(lower(line), 'javascript')),
pages AS (
  SELECT doc_id, len(ls) AS n_total FROM l0
   WHERE NOT contains(lower(fulltext), 'lorem ipsum')
     AND NOT contains(fulltext, '{'))
SELECT k.doc_id, string_agg(k.line, chr(10) ORDER BY k.pos) AS text,
       CAST(count(*) AS BIGINT) AS n_kept,
       CAST(min(p.n_total) AS BIGINT) AS n_total
  FROM kept k JOIN pages p USING (doc_id)
 GROUP BY k.doc_id HAVING count(*) >= 5
""",
    "supplier_acctbal_by_region": """
SELECT r.r_name,
       CAST(SUM(CAST(ROUND(s.s_acctbal * 100) AS BIGINT)) AS BIGINT)
         AS acctbal_cents,
       CAST(count(*) AS BIGINT) AS n_suppliers
  FROM supplier s
  JOIN nation n ON s.s_nationkey = n.n_nationkey
  JOIN region r ON n.n_regionkey = r.r_regionkey
 GROUP BY 1
""",
    "part_type_stats": """
SELECT p_type,
       CAST(SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS BIGINT)
         AS retail_cents,
       CAST(count(*) AS BIGINT) AS n_parts
  FROM part GROUP BY 1
""",
    "validate_struct_events": """
WITH t AS (SELECT event_id, meta FROM {struct_ev})
SELECT event_id, 'meta.k' AS path, 'missing key' AS code,
       CAST(NULL AS VARCHAR) AS expected
  FROM t WHERE meta IS NOT NULL AND meta.k IS NULL
UNION ALL
SELECT event_id, 'meta.device', 'invalid',
       'one of [''ios'', ''android'', ''web'']'
  FROM t WHERE meta IS NOT NULL AND meta.device IS NOT NULL
   AND meta.device NOT IN ('ios', 'android', 'web')
UNION ALL
SELECT event_id, 'meta.version', 'invalid', '>=0'
  FROM t WHERE meta IS NOT NULL AND meta.version IS NOT NULL
   AND meta.version < 0
UNION ALL
SELECT event_id, 'meta.geo.lat', 'invalid', 'in [-90, 90]'
  FROM t WHERE meta IS NOT NULL AND meta.geo IS NOT NULL
   AND meta.geo.lat IS NOT NULL
   AND (meta.geo.lat < -90 OR meta.geo.lat > 90)
UNION ALL
SELECT event_id, 'meta.geo.lon', 'invalid', 'in [-180, 180]'
  FROM t WHERE meta IS NOT NULL AND meta.geo IS NOT NULL
   AND meta.geo.lon IS NOT NULL
   AND (meta.geo.lon < -180 OR meta.geo.lon > 180)
""",
    "validate_map_events": """
WITH t AS (SELECT event_id, attrs FROM {map_ev}),
en AS (SELECT event_id, u.e.key AS k, u.e.value AS v
         FROM t, unnest(map_entries(attrs)) AS u(e))
SELECT event_id, 'attrs.' || k AS path, 'unexpected key' AS code,
       'key matches /^k[0-9]+$/' AS expected
  FROM en WHERE NOT regexp_matches(k, '^k[0-9]+$')
UNION ALL
SELECT event_id, 'attrs.' || k, 'invalid', 'in [0, 99]'
  FROM en WHERE v IS NOT NULL AND (v < 0 OR v > 99)
""",
    "validate_embedding_lists": """
WITH e AS (SELECT vec_id, embedding FROM embeddings),
el AS (SELECT vec_id, i - 1 AS idx, embedding[i] AS v
         FROM e, unnest(range(1, len(embedding) + 1)) AS t(i))
SELECT vec_id, 'embedding.' || CAST(idx AS VARCHAR) AS path,
       'invalid' AS code, 'in [-0.45, 0.45]' AS expected
  FROM el WHERE v IS NOT NULL AND (v < -0.45 OR v > 0.45)
UNION ALL
SELECT vec_id, 'embedding', 'invalid', 'length in [1, 64]'
  FROM e WHERE embedding IS NOT NULL
   AND (len(embedding) < 1 OR len(embedding) > 64)
""",
    "embedding_validity": """
WITH e AS (SELECT vec_id, embedding FROM {emb_corrupt}),
el AS (SELECT vec_id, i - 1 AS idx, embedding[i] AS v
         FROM e, unnest(range(1, len(embedding) + 1)) AS t(i))
SELECT vec_id, 'embedding.' || CAST(idx AS VARCHAR) AS path,
       'invalid' AS code, 'finite' AS expected
  FROM el WHERE v IS NOT NULL AND (isnan(v) OR isinf(v))
UNION ALL
SELECT vec_id, 'embedding.' || CAST(idx AS VARCHAR), 'invalid',
       'non-null element'
  FROM el WHERE v IS NULL
UNION ALL
SELECT vec_id, 'embedding', 'invalid', 'non-zero vector'
  FROM e WHERE embedding IS NOT NULL AND len(embedding) > 0
   AND len(list_filter(embedding, x -> x IS NOT NULL AND x <> 0.0)) = 0
UNION ALL
SELECT vec_id, 'embedding', 'invalid', 'length in [4, 64]'
  FROM e WHERE embedding IS NOT NULL
   AND (len(embedding) < 4 OR len(embedding) > 64)
""",
    "lang_mismatches": """
WITH t AS (SELECT doc_id, lang, text, string_split(lower(text), ' ') AS words
             FROM documents),
     s AS (SELECT doc_id, lang, text,
   len(list_filter(words, x -> x IN ('the','a','of','and','to','in','is','it','that','for'))) AS s_en,
   len(list_filter(words, x -> x IN ('der','die','das','und','ist','ein','zu','mit','von','nicht'))) AS s_de,
   len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','de','que','pour'))) AS s_fr,
   len(list_filter(words, x -> x IN ('el','la','los','las','es','un','una','de','que','por'))) AS s_es,
   length(regexp_replace(substr(text, 1, 200), '[^\u4e00-\u9fff]', '', 'g')) AS cjk,
   length(substr(text, 1, 200)) AS head_len
  FROM t),
p AS (SELECT doc_id, lang,
  CASE WHEN text IS NULL OR text = '' THEN 'und'
       WHEN cjk > head_len * 0.2 THEN 'zh'
       WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
       WHEN s_en = GREATEST(s_en, s_de, s_fr, s_es) THEN 'en'
       WHEN s_de = GREATEST(s_en, s_de, s_fr, s_es) THEN 'de'
       WHEN s_fr = GREATEST(s_en, s_de, s_fr, s_es) THEN 'fr'
       ELSE 'es' END AS lang_pred
  FROM s)
SELECT doc_id, lang, lang_pred FROM p WHERE lang != lang_pred
""",
    "top_tokens": r"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                            x -> x <> '')) AS token
    FROM documents)
SELECT token, CAST(count(*) AS BIGINT) AS n
  FROM toks GROUP BY token
 ORDER BY n DESC, token LIMIT 25
""",
    "event_type_cooccurrence": """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
  FROM d a JOIN d b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
 GROUP BY 1, 2
""",
    "lineitem_pricing_summary": """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
         AS sum_base_cents,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS sum_disc_cp,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                * (100 + CAST(ROUND(l_tax * 100) AS BIGINT)))
            AS BIGINT) AS sum_charge_cpp,
       CAST(count(*) AS BIGINT) AS n
  FROM lineitem
 WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
 GROUP BY 1, 2
""",
    "revenue_by_nation": """
SELECT n.n_name,
       CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_orders
  FROM orders o
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n ON c.c_nationkey = n.n_nationkey
 GROUP BY 1
""",
    "fd_violations": """
SELECT phash, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT fmt) AS BIGINT) AS n_rhs
  FROM {img} WHERE phash IS NOT NULL
 GROUP BY phash
HAVING count(DISTINCT fmt) > 1 AND count(*) >= 2
""",
    "coverage_gaps": """
WITH grid AS (
  SELECT f.fmt, b.w_bucket
    FROM (VALUES ('gif'), ('jpeg'), ('png'), ('webp')) f(fmt)
   CROSS JOIN (VALUES (2), (3), (4), (5), (6), (7), (8)) b(w_bucket)),
obs AS (
  SELECT DISTINCT fmt, CAST(w // 4 AS BIGINT) AS w_bucket
    FROM {img}
   WHERE fmt IS NOT NULL AND w IS NOT NULL AND w >= 0)
SELECT fmt, CAST(w_bucket AS BIGINT) AS w_bucket
  FROM grid ANTI JOIN obs USING (fmt, w_bucket)
""",
    "caption_conflicts": """
SELECT phash, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT caption) AS BIGINT) AS n_rhs
  FROM {img} WHERE phash IS NOT NULL
 GROUP BY phash
HAVING count(DISTINCT caption) > 1 AND count(*) >= 2
""",
    "lineitem_mad_outliers": """
WITH c AS (SELECT l_orderkey, l_linenumber,
                  CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents
             FROM lineitem),
m AS (SELECT cents AS v FROM (
        SELECT cents, row_number() OVER (ORDER BY cents) AS rn,
               count(*) OVER () AS n FROM c)
       WHERE rn = CAST(floor((n - 1) * 0.5) AS BIGINT) + 1),
d AS (SELECT l_orderkey, l_linenumber, cents,
             abs(cents - (SELECT v FROM m)) AS dev FROM c),
md AS (SELECT dev AS v FROM (
         SELECT dev, row_number() OVER (ORDER BY dev) AS rn,
                count(*) OVER () AS n FROM d)
        WHERE rn = CAST(floor((n - 1) * 0.5) AS BIGINT) + 1)
SELECT l_orderkey, l_linenumber, cents, dev
  FROM d WHERE dev * 10 > 19 * (SELECT v FROM md)
""",
    "event_gaps": """
WITH x AS (SELECT user_id, ts,
                  lead(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS nxt
             FROM events)
SELECT user_id, ts AS gap_start_ts,
       CAST(date_diff('microsecond', ts, nxt) AS BIGINT) AS gap_us
  FROM x
 WHERE nxt IS NOT NULL
   AND date_diff('microsecond', ts, nxt) > 21600000000
""",
    "image_byte_dupes": """
SELECT md5(hex(bytes)) AS fp, CAST(count(*) AS BIGINT) AS n
  FROM {img} WHERE bytes IS NOT NULL
 GROUP BY 1 HAVING count(*) >= 2
""",
    # char_entropy: the SAME frozen integer-log2 parquet the engine
    # broadcasts; all arithmetic below is integer (HUGEINT products,
    # floor division), so no float summation order exists to diverge
    "char_entropy": """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
ch AS (SELECT doc_id, substring(text, i, 1) AS c
         FROM d, unnest(range(1, length(text) + 1)) AS t(i)),
cnt AS (SELECT doc_id, c, CAST(count(*) AS BIGINT) AS n
          FROM ch GROUP BY 1, 2),
l AS (SELECT m, l_e12 FROM {log2_table}),
s AS (SELECT cnt.doc_id,
             CAST(SUM(CAST(cnt.n AS HUGEINT) * ln.l_e12) AS HUGEINT)
               AS sum_nl,
             CAST(SUM(cnt.n) AS BIGINT) AS n_chars
        FROM cnt JOIN l ln ON ln.m = cnt.n
       GROUP BY cnt.doc_id),
e AS (SELECT s.doc_id, s.n_chars,
             CAST(((CAST(s.n_chars AS HUGEINT) * lt.l_e12 - s.sum_nl)
                   + CAST(s.n_chars AS HUGEINT) * 500000)
                  // (CAST(s.n_chars AS HUGEINT) * 1000000) AS BIGINT)
               AS entropy_e6
        FROM s JOIN l lt ON lt.m = s.n_chars)
SELECT doc_id, n_chars, entropy_e6 FROM e
UNION ALL
SELECT doc_id, CAST(0 AS BIGINT) AS n_chars,
       CAST(0 AS BIGINT) AS entropy_e6
  FROM d WHERE length(text) = 0
""",
    # classifier_scores: LEFT-join explode against the SAME frozen
    # weight artifact; integer SUM is order-independent
    "classifier_scores": """
WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
w AS (SELECT doc_id, x AS word
        FROM d, unnest(list_filter(string_split_regex(text, '\\s+'),
                                   x -> x <> '')) AS t(x)),
m AS (SELECT word, weight_e6
        FROM {word_clf}),
j AS (SELECT w.doc_id, m.weight_e6
        FROM w JOIN m USING (word)),
s AS (SELECT doc_id, CAST(SUM(weight_e6) AS BIGINT) AS score_e6,
             CAST(count(*) AS BIGINT) AS n_hits
        FROM j GROUP BY 1)
SELECT d.doc_id,
       coalesce(s.score_e6, 0) AS score_e6,
       coalesce(s.n_hits, 0) AS n_hits
  FROM d LEFT JOIN s USING (doc_id)
""",
    "lm_scores": """
WITH m AS (SELECT bigram, lp_e6
             FROM {bigram_lm}
            WHERE bigram <> ''),
flr AS (SELECT lp_e6 AS lp0
          FROM {bigram_lm}
         WHERE bigram = ''),
d AS (SELECT doc_id, text FROM documents
       WHERE text IS NOT NULL AND length(text) >= 2),
bg AS (SELECT doc_id, substring(text, i, 2) AS b
         FROM d, unnest(range(1, length(text))) AS t(i))
SELECT bg.doc_id,
       CAST(SUM(COALESCE(m.lp_e6, (SELECT lp0 FROM flr))) AS BIGINT) AS lp_e6,
       CAST(count(*) AS BIGINT) AS n_bigrams
  FROM bg LEFT JOIN m ON bg.b = m.bigram
 GROUP BY bg.doc_id
""",
    "aspect_buckets": """
WITH b(bidx, bw, bh) AS (
  SELECT * FROM (VALUES (0, 16, 32), (1, 16, 24), (2, 24, 24),
                        (3, 24, 16), (4, 32, 16)) t),
be AS (SELECT bidx, bw, bh,
              CAST(FLOOR(CAST(bw AS DOUBLE) * 1000000.0 / bh + 0.5)
                   AS BIGINT) AS b_e6
         FROM b),
im AS (SELECT image_id,
              CAST(FLOOR(CAST(w AS DOUBLE) * 1000000.0 / h + 0.5)
                   AS BIGINT) AS ar_e6
         FROM {img}
        WHERE w IS NOT NULL AND h IS NOT NULL AND w > 0 AND h > 0)
SELECT image_id, ar_e6, CAST(bw AS BIGINT) AS bucket_w,
       CAST(bh AS BIGINT) AS bucket_h
  FROM (SELECT im.image_id, im.ar_e6, be.bw, be.bh,
               row_number() OVER (PARTITION BY im.image_id
                                  ORDER BY abs(im.ar_e6 - be.b_e6),
                                           be.bidx) AS rn
          FROM im CROSS JOIN be)
 WHERE rn = 1
""",
    "image_res_tiers": """
SELECT image_id,
       CAST(least(w, h) AS BIGINT) AS min_side,
       CAST(CASE WHEN least(w, h) >= 32 THEN 4
                 WHEN least(w, h) >= 24 THEN 3
                 WHEN least(w, h) >= 16 THEN 2
                 WHEN least(w, h) >= 12 THEN 1
                 ELSE 0 END AS BIGINT) AS tier,
       CASE WHEN least(w, h) >= 32 THEN 'large'
            WHEN least(w, h) >= 24 THEN 'medium'
            WHEN least(w, h) >= 16 THEN 'small'
            WHEN least(w, h) >= 12 THEN 'thumb'
            ELSE 'reject' END AS tier_name
  FROM {img}
 WHERE w IS NOT NULL AND h IS NOT NULL AND w > 0 AND h > 0
""",
    "tier_fmt_residuals": """
WITH base AS (
  SELECT CAST(CASE WHEN least(w, h) >= 32 THEN 4
                   WHEN least(w, h) >= 24 THEN 3
                   WHEN least(w, h) >= 16 THEN 2
                   WHEN least(w, h) >= 12 THEN 1
                   ELSE 0 END AS BIGINT) AS tier, fmt
    FROM {img}
   WHERE w IS NOT NULL AND h IS NOT NULL AND w > 0 AND h > 0
     AND fmt IS NOT NULL),
cells AS (SELECT tier, fmt, count(*) AS n FROM base GROUP BY 1, 2),
tt AS (SELECT tier, sum(n) AS t_tot FROM cells GROUP BY tier),
ft AS (SELECT fmt, sum(n) AS f_tot FROM cells GROUP BY fmt),
g AS (SELECT sum(n) AS grand FROM cells)
SELECT c.tier, c.fmt, CAST(c.n AS BIGINT) AS n,
       CAST(floor(CAST(t_tot * f_tot AS DOUBLE) / CAST(grand AS DOUBLE)
                  * 1e6 + 0.5) AS BIGINT) AS expected_e6,
       CAST(floor((CAST(c.n AS DOUBLE)
                   - CAST(t_tot * f_tot AS DOUBLE) / CAST(grand AS DOUBLE))
                  / sqrt(CAST(t_tot * f_tot AS DOUBLE)
                         / CAST(grand AS DOUBLE))
                  * 1e6 + 0.5) AS BIGINT) AS resid_e6
  FROM cells c JOIN tt USING (tier) JOIN ft USING (fmt), g
""",
    "image_tiles": """
WITH g AS (SELECT image_id, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
                  CAST(CEIL(w / 8.0) AS BIGINT) AS nx,
                  CAST(CEIL(h / 8.0) AS BIGINT) AS ny
             FROM {img}
            WHERE w IS NOT NULL AND h IS NOT NULL AND w > 0 AND h > 0),
     tx AS (SELECT image_id, w, h, ny,
                   CAST(unnest(range(0, nx)) AS BIGINT) AS tile_x FROM g),
     txy AS (SELECT image_id, w, h, tile_x,
                    CAST(unnest(range(0, ny)) AS BIGINT) AS tile_y FROM tx)
SELECT image_id, tile_x, tile_y,
       tile_x * 8 AS x0, tile_y * 8 AS y0,
       LEAST(8, w - tile_x * 8) AS tw,
       LEAST(8, h - tile_y * 8) AS th
  FROM txy
""",
    "aspect_bucket_waste": """
WITH b(bidx, bw, bh) AS (
  SELECT * FROM (VALUES (0, 16, 32), (1, 16, 24), (2, 24, 24),
                        (3, 24, 16), (4, 32, 16)) t),
be AS (SELECT bidx, CAST(bw AS BIGINT) AS bw, CAST(bh AS BIGINT) AS bh,
              CAST(FLOOR(CAST(bw AS DOUBLE) * 1000000.0 / bh + 0.5)
                   AS BIGINT) AS b_e6
         FROM b),
im AS (SELECT image_id, CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
              CAST(FLOOR(CAST(w AS DOUBLE) * 1000000.0 / h + 0.5)
                   AS BIGINT) AS ar_e6
         FROM {img}
        WHERE w IS NOT NULL AND h IS NOT NULL AND w > 0 AND h > 0),
a AS (SELECT w, h, bw, bh FROM (
        SELECT im.w, im.h, be.bw, be.bh,
               row_number() OVER (PARTITION BY im.image_id
                                  ORDER BY abs(im.ar_e6 - be.b_e6),
                                           be.bidx) AS rn
          FROM im CROSS JOIN be)
       WHERE rn = 1),
sc AS (SELECT bw, bh,
              bw * bh - (CASE WHEN w * bh >= h * bw THEN bw
                              ELSE (w * bh) // h END)
                      * (CASE WHEN w * bh >= h * bw THEN (h * bw) // w
                              ELSE bh END) AS waste
         FROM a)
SELECT bw AS bucket_w, bh AS bucket_h,
       CAST(count(*) AS BIGINT) AS n_images,
       CAST(sum(waste) AS BIGINT) AS total_waste_px,
       CAST(max(waste) AS BIGINT) AS max_waste_px
  FROM sc GROUP BY 1, 2
""",
    "clip_score_filter": """
WITH p AS (SELECT pair_id,
                  list_cosine_similarity(CAST(img_emb AS DOUBLE[]),
                                         CAST(cap_emb AS DOUBLE[])) AS sim
             FROM {pair_emb})
SELECT pair_id, ROUND(sim, 6) AS sim FROM p WHERE sim >= 0.5
""",
    "clip_score_rejects": """
WITH p AS (SELECT pair_id,
                  list_cosine_similarity(CAST(img_emb AS DOUBLE[]),
                                         CAST(cap_emb AS DOUBLE[])) AS sim
             FROM {pair_emb})
SELECT pair_id, ROUND(sim, 6) AS sim FROM p WHERE sim < 0.5
""",
    "events_time_deduped": """
WITH x AS (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev_ts
    FROM events)
SELECT event_id, user_id, event_type, ts FROM x
 WHERE prev_ts IS NULL
    OR date_diff('microsecond', prev_ts, ts) > 600 * 1000000
""",
    "docs_quality_top75": """
WITH m AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM documents),
s AS (
  SELECT doc_id,
         ROUND(
           0.4 * LEAST(1.0, n_words / 64.0)
           + 0.3 * (CASE WHEN n_words > 0
                          AND (n_chars - (n_words - 1)) / n_words >= 3
                          AND (n_chars - (n_words - 1)) / n_words <= 12
                         THEN 1.0 ELSE 0.0 END)
           + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END)
         , 6) AS score
    FROM m),
r AS (SELECT score, row_number() OVER (ORDER BY score) AS rn,
             count(*) OVER () AS c
        FROM s),
thr AS (SELECT score AS v FROM r
         WHERE rn = CAST(floor((c - 1) * 0.25) AS BIGINT) + 1)
SELECT doc_id, score FROM s WHERE score >= (SELECT v FROM thr)
""",
    "concat_chunks": r"""
WITH d AS (
  SELECT doc_id,
         list_append(list_filter(string_split_regex(text, '\s+'),
                                 x -> x <> ''), '<|eos|>') AS w
    FROM documents WHERE text IS NOT NULL),
toks AS (
  SELECT doc_id, i, w[i] AS tok
    FROM d, unnest(range(1, len(w) + 1)) AS t(i)),
ordered AS (
  SELECT tok, row_number() OVER (ORDER BY doc_id, i) - 1 AS gidx FROM toks)
SELECT gidx // 256 AS chunk_id,
       string_agg(tok, ' ' ORDER BY gidx) AS text,
       CAST(count(*) AS BIGINT) AS n_tokens
  FROM ordered GROUP BY 1
""",
    "gopher_quality": r"""
WITH d AS (
  SELECT doc_id, coalesce(text, '') AS text FROM documents),
m AS (
  SELECT doc_id,
         CAST(len(list_filter(string_split_regex(text, '\s+'),
                              x -> x <> '')) AS BIGINT) AS n_words,
         CAST(length(regexp_replace(text, '\s+', '', 'g')) AS BIGINT) AS n_chars,
         CAST((CASE WHEN regexp_matches(text, '\bthe\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bbe\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bto\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bof\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\band\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bthat\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bhave\b') THEN 1 ELSE 0 END
             + CASE WHEN regexp_matches(text, '\bwith\b') THEN 1 ELSE 0 END)
              AS BIGINT) AS n_stop
    FROM d),
e AS (
  SELECT doc_id, n_words, n_stop,
         CASE WHEN n_words = 0 THEN 0
              ELSE CAST(FLOOR(CAST(n_chars AS DOUBLE) * 1000000.0
                              / n_words + 0.5) AS BIGINT) END AS mean_len_e6
    FROM m)
SELECT doc_id, n_words, mean_len_e6, n_stop,
       (n_words >= 30 AND n_words <= 100000) AS pass_words,
       (mean_len_e6 >= 3000000 AND mean_len_e6 <= 4500000) AS pass_mean,
       (n_stop >= 1) AS pass_stop,
       ((n_words >= 30 AND n_words <= 100000)
        AND (mean_len_e6 >= 3000000 AND mean_len_e6 <= 4500000)
        AND n_stop >= 1) AS passed
  FROM e
""",
    "duplicated_lines": """
WITH l0 AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM {line_docs}),
lines AS (
  SELECT doc_id, i AS pos, ls[i] AS line
    FROM l0, unnest(range(1, len(ls) + 1)) AS t(i))
SELECT line, CAST(count(*) AS BIGINT) AS n
  FROM lines GROUP BY line HAVING count(*) >= 2
""",
    # SemDeDup: the persisted-centroid assignment is reproduced in
    # SQL (row_number over score DESC, cid = numpy's first-max
    # argmax), then pairs come from the within-cluster cross join —
    # the exact cluster-partitioned semantics of the operator, not
    # a recall certificate
    "semdedup_pairs": """
WITH cents AS (SELECT cid, vec FROM {seeded_cents}),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM {emb_seeded}),
asg AS (
  SELECT vec_id, cid AS cluster, v FROM (
    SELECT e.vec_id, c.cid, e.v,
           row_number() OVER (PARTITION BY e.vec_id
                              ORDER BY list_dot_product(e.v, c.vec)
                                       - 0.5 * list_dot_product(c.vec, c.vec) DESC,
                                       c.cid) AS rn
      FROM e CROSS JOIN cents c) WHERE rn = 1),
p AS (SELECT x.vec_id AS a, y.vec_id AS b,
             list_cosine_similarity(x.v, y.v) AS sim
        FROM asg x JOIN asg y
          ON x.cluster = y.cluster AND x.vec_id < y.vec_id)
SELECT a, b, ROUND(sim, 6) AS sim FROM p WHERE sim >= 0.9
""",
    "semdedup_survivors": """
WITH RECURSIVE cents AS (SELECT cid, vec FROM {seeded_cents}),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM {emb_seeded}),
asg AS (
  SELECT vec_id, cid AS cluster, v FROM (
    SELECT e.vec_id, c.cid, e.v,
           row_number() OVER (PARTITION BY e.vec_id
                              ORDER BY list_dot_product(e.v, c.vec)
                                       - 0.5 * list_dot_product(c.vec, c.vec) DESC,
                                       c.cid) AS rn
      FROM e CROSS JOIN cents c) WHERE rn = 1),
edges AS (SELECT x.vec_id AS a, y.vec_id AS b
            FROM asg x JOIN asg y
              ON x.cluster = y.cluster AND x.vec_id < y.vec_id
           WHERE list_cosine_similarity(x.v, y.v) >= 0.9),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS vec_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n)
SELECT vec_id FROM e
 WHERE vec_id NOT IN (SELECT vec_id FROM root WHERE vec_id != rep)
""",
    "knn_cosine_filtered": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe
             FROM embeddings ORDER BY vec_id LIMIT 5),
     s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                  list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                         CAST(e.embedding AS DOUBLE[])) AS sim
             FROM q CROSS JOIN embeddings e WHERE e.label = 0)
SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim
  FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, neighbor_id) AS rn
          FROM s)
 WHERE rn <= 10
""",
    # simhash signatures are a persisted deterministic artifact (the
    # ANN-oracle technique): SQL reproduces the 4 x 16-bit banding with
    # >>/& (verified to match two's-complement uint64 semantics) and the
    # Hamming verification with bit_count(xor()) — logic independently
    # re-derived, values pinned end-to-end
    "simhash_dedup": """
WITH sig AS (SELECT doc_id, simhash FROM {simhash_sigs}),
bands AS (
  SELECT doc_id, simhash, t.b AS band, ((simhash >> (16 * t.b)) & 65535) AS key
    FROM sig, unnest([0, 1, 2, 3]) AS t(b)),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b, x.simhash AS sa, y.simhash AS sb
    FROM bands x JOIN bands y
      ON x.band = y.band AND x.key = y.key AND x.doc_id < y.doc_id)
SELECT a, b, CAST(bit_count(xor(sa, sb)) AS INTEGER) AS hamming
  FROM cand
 WHERE bit_count(xor(sa, sb)) <= 3
""",
    # winnow fingerprints likewise persist as the deterministic artifact;
    # the overlap query is then exact SQL (self-join + HAVING)
    "doc_winnow_overlap": """
WITH fp AS (SELECT DISTINCT doc_id, fingerprint
              FROM {winnow_fps}),
pairs AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS shared
    FROM fp x JOIN fp y
      ON x.fingerprint = y.fingerprint AND x.doc_id < y.doc_id
   GROUP BY 1, 2)
SELECT a, b, shared FROM pairs WHERE shared >= 5
""",
    "retention_weekly": """
WITH uw AS (
  SELECT DISTINCT user_id,
         CAST(floor(epoch(ts) / 604800) AS BIGINT) * 604800 AS week
    FROM events)
SELECT a.week, CAST(count(*) AS BIGINT) AS active_users,
       CAST(count(b.user_id) AS BIGINT) AS retained_users
  FROM uw a LEFT JOIN uw b
    ON b.user_id = a.user_id AND b.week = a.week + 604800
 GROUP BY a.week
""",
    "doc_ntile_by_lang": """
SELECT doc_id, lang,
       CAST(NTILE(4) OVER (PARTITION BY lang ORDER BY n_chars, doc_id)
            AS BIGINT) AS ntile
  FROM documents
 WHERE lang IS NOT NULL AND n_chars IS NOT NULL
""",
    "weighted_sample": """
WITH u AS (
  SELECT doc_id, n_chars,
         (CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
               AS BIGINT) + 0.5) / 4294967296.0 AS uu
    FROM documents
   WHERE n_chars IS NOT NULL AND n_chars > 0)
SELECT doc_id, ROUND(ln(uu) / n_chars, 6) AS key
  FROM u
 ORDER BY ln(uu) / n_chars DESC, doc_id
 LIMIT 50
""",
    "bm25_topk": """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w
    FROM documents WHERE text IS NOT NULL),
lens AS (SELECT doc_id, CAST(len(w) AS BIGINT) AS dl FROM toks),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n,
                 CAST(SUM(dl) AS DOUBLE) / count(*) AS avgdl FROM lens),
tf AS (
  SELECT doc_id, t.tok AS term, CAST(count(*) AS DOUBLE) AS tf
    FROM toks, unnest(w) AS t(tok)
   WHERE t.tok IN ('shuffle', 'vector', 'merge')
   GROUP BY 1, 2),
df AS (SELECT term, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df FROM tf GROUP BY term),
sc AS (
  SELECT tf.doc_id,
         ROUND(SUM(ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
                   * tf.tf * 2.5
                   / (tf.tf + 1.5 * (1 - 0.75 + 0.75 * l.dl / s.avgdl))), 6)
           AS score
    FROM tf JOIN df USING (term)
            JOIN lens l ON l.doc_id = tf.doc_id
            CROSS JOIN stats s
   GROUP BY tf.doc_id)
SELECT doc_id, score FROM sc ORDER BY score DESC, doc_id LIMIT 10
""",
    "events_rolling_mean": """
SELECT event_id, user_id,
       ROUND(AVG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS rolling_mean
  FROM events
""",
    "pack_sequences": """
WITH toks AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS tokens
    FROM documents WHERE text IS NOT NULL),
cum AS (
  SELECT doc_id, tokens,
         CAST(COALESCE(SUM(tokens) OVER (ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS BIGINT) AS start_offset
    FROM toks)
SELECT doc_id, tokens, start_offset,
       CAST(start_offset // 512 AS BIGINT) AS pack_id,
       CAST(start_offset % 512 AS BIGINT) AS offset_in_pack,
       CAST((start_offset + tokens - 1) // 512 - start_offset // 512 + 1
            AS BIGINT) AS n_packs
  FROM cum
""",
    "cross_corpus_dups": """
WITH new AS (
  SELECT doc_id + 100000 AS doc_id,
         CASE WHEN doc_id % 5 = 1 THEN text || ' extra' ELSE text END AS text
    FROM documents WHERE doc_id % 5 IN (0, 1))
SELECT n.doc_id, md5(n.text) AS fingerprint
  FROM new n
 WHERE md5(n.text) IN (SELECT md5(text) FROM documents)
""",
    "orders_upserted": """
WITH upd AS (
  SELECT o_orderkey, o_custkey, 'U' AS o_orderstatus,
         o_totalprice + 10.0 AS o_totalprice,
         o_orderdate + INTERVAL 30 DAY AS o_orderdate,
         o_orderpriority
    FROM orders WHERE o_orderkey % 7 = 0),
u AS (
  SELECT *, 0 AS src FROM orders
  UNION ALL
  SELECT *, 1 AS src FROM upd),
r AS (
  SELECT *, row_number() OVER (PARTITION BY o_orderkey
                               ORDER BY o_orderdate DESC, src DESC) AS rn
    FROM u)
SELECT o_orderkey, o_custkey, o_orderstatus,
       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
       o_orderdate, o_orderpriority
  FROM r WHERE rn = 1
""",
    "events_pivot": """
SELECT user_id,
       CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS click,
       CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS error,
       CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS purchase,
       CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS signup,
       CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS view
  FROM events GROUP BY user_id
""",
    "lineitem_corr": """
WITH b AS (
  SELECT l_returnflag,
         CAST(floor(l_quantity * 100 + 0.5) AS HUGEINT) AS x,
         CAST(floor(l_extendedprice * 100 + 0.5) AS HUGEINT) AS y
    FROM lineitem
   WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
     AND l_returnflag IS NOT NULL),
m AS (
  SELECT l_returnflag, CAST(count(*) AS HUGEINT) AS n,
         sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
    FROM b GROUP BY l_returnflag)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       CAST(CASE WHEN (n * sxx - sx * sx) <= 0 OR (n * syy - sy * sy) <= 0
                 THEN 0
                 ELSE floor(CAST(n * sxy - sx * sy AS DOUBLE)
                            / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                   * CAST(n * syy - sy * sy AS DOUBLE))
                            * 1e6 + 0.5)
            END AS BIGINT) AS corr_e6
  FROM m
""",
    "events_cube": """
WITH b AS (
  SELECT CAST(event_type AS VARCHAR) AS event_type,
         CAST((epoch_us(ts) // 86400000000) % 7 AS VARCHAR) AS dow,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
    FROM events
   WHERE event_type IS NOT NULL AND dow IS NOT NULL AND value IS NOT NULL)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(dow, 'ALL') AS dow,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v) AS BIGINT) AS sum_val
  FROM b GROUP BY CUBE (event_type, dow)
""",
    "user_event_mode": """
WITH c AS (SELECT user_id, event_type, count(*) AS n
             FROM events
            WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY n DESC, event_type) AS rn
        FROM c)
SELECT user_id, event_type AS mode, CAST(n AS BIGINT) AS n
  FROM r WHERE rn = 1
""",
    "lineitem_qty_bins": """
WITH v AS (
  SELECT l_orderkey, l_linenumber,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS val
    FROM lineitem WHERE l_quantity IS NOT NULL),
c AS (SELECT val, count(*) AS n FROM v GROUP BY val),
cum AS (SELECT val, sum(n) OVER (ORDER BY val) AS cum,
               (SELECT count(*) FROM v) AS tot
          FROM c),
b AS (
  SELECT min(CASE WHEN cum >= ceil(0.25 * tot) THEN val END) AS b1,
         min(CASE WHEN cum >= ceil(0.50 * tot) THEN val END) AS b2,
         min(CASE WHEN cum >= ceil(0.75 * tot) THEN val END) AS b3
    FROM cum)
SELECT v.l_orderkey, v.l_linenumber, v.val,
       CAST(CAST(v.val > b.b1 AS INT) + CAST(v.val > b.b2 AS INT)
            + CAST(v.val > b.b3 AS INT) AS BIGINT) AS bin
  FROM v, b
""",
    "doc_sentences": """
WITH planted AS (
  SELECT doc_id, replace(text, ' table ', '. ') AS text
    FROM documents WHERE text IS NOT NULL),
s AS (
  SELECT doc_id, unnest(string_split(text, '. ')) AS sentence,
         generate_subscripts(string_split(text, '. '), 1) AS sent_idx
    FROM planted)
SELECT doc_id, CAST(sent_idx AS BIGINT) AS sent_idx, sentence,
       CAST(len(list_filter(string_split(sentence, ' '),
                            x -> x <> '')) AS BIGINT) AS n_words
  FROM s
""",
    "events_user_skew": """
WITH c AS (SELECT user_id, count(*) AS n FROM events
            WHERE user_id IS NOT NULL GROUP BY user_id),
a AS (SELECT CAST(count(*) AS HUGEINT) AS n_keys,
             CAST(sum(n) AS HUGEINT) AS total,
             CAST(max(n) AS HUGEINT) AS max_n,
             CAST(sum(n * n) AS HUGEINT) AS sum_n2
        FROM c)
SELECT CAST(n_keys AS BIGINT) AS n_keys,
       CAST(total AS BIGINT) AS total,
       CAST(max_n AS BIGINT) AS max_n,
       CAST((2 * sum_n2 * 1000000 + total * total)
            // (2 * total * total) AS BIGINT) AS hhi_e6,
       CAST((2 * max_n * n_keys * 1000000 + total)
            // (2 * total) AS BIGINT) AS imbalance_e6
  FROM a
""",
    "events_pivot_long": """
WITH p AS (SELECT user_id, event_type, count(*) AS n
             FROM events GROUP BY 1, 2),
u AS (SELECT DISTINCT user_id FROM events),
cats AS (SELECT unnest(['click', 'error', 'purchase', 'signup', 'view'])
                AS event_type)
SELECT u.user_id, c.event_type, CAST(coalesce(p.n, 0) AS BIGINT) AS n
  FROM u CROSS JOIN cats c
  LEFT JOIN p ON p.user_id = u.user_id AND p.event_type = c.event_type
""",
    "split_leakage_near": r"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000 AS doc_id,
         text || CASE WHEN doc_id % 5 = 0 THEN '' ELSE ' extra' END AS text
    FROM documents WHERE doc_id % 5 IN (0, 1)),
toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM aug),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
            FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
           GROUP BY 1, 2),
pairs AS (
  SELECT a, b, ROUND(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 6) AS jaccard
    FROM inter JOIN sizes sa ON sa.doc_id = inter.a
               JOIN sizes sb ON sb.doc_id = inter.b
   WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8),
split AS (
  SELECT doc_id,
         CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                   AS BIGINT) % 10 < 8 THEN 1 ELSE 0 END AS is_train
    FROM aug)
SELECT CASE WHEN sa.is_train = 1 THEN a ELSE b END AS train_id,
       CASE WHEN sa.is_train = 1 THEN b ELSE a END AS val_id,
       jaccard
  FROM pairs JOIN split sa ON sa.doc_id = pairs.a
             JOIN split sb ON sb.doc_id = pairs.b
 WHERE sa.is_train <> sb.is_train
""",
    "event_type_lift": """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
m AS (SELECT event_type, count(*) AS n FROM ut GROUP BY 1),
nu AS (SELECT CAST(count(DISTINCT user_id) AS HUGEINT) AS n_users
         FROM events),
p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
             CAST(count(*) AS HUGEINT) AS n_ab
        FROM ut a JOIN ut b ON a.user_id = b.user_id
                          AND a.event_type < b.event_type
       GROUP BY 1, 2)
SELECT type_a, type_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(ma.n AS BIGINT) AS n_a, CAST(mb.n AS BIGINT) AS n_b,
       CAST((2000000 * n_ab + ma.n) // (2 * ma.n) AS BIGINT)
         AS conf_a_to_b_e6,
       CAST((2000000 * n_ab + mb.n) // (2 * mb.n) AS BIGINT)
         AS conf_b_to_a_e6,
       CAST((2000000 * n_ab * nu.n_users + CAST(ma.n AS HUGEINT) * mb.n)
            // (2 * CAST(ma.n AS HUGEINT) * mb.n) AS BIGINT) AS lift_e6
  FROM p JOIN m ma ON ma.event_type = p.type_a
         JOIN m mb ON mb.event_type = p.type_b
  CROSS JOIN nu
""",
    "embedding_pair_sample": """
WITH u AS (
  SELECT vec_id, embedding,
         CAST(concat('0x', substr(md5(CAST(vec_id AS VARCHAR)), 1, 8))
              AS BIGINT) AS h
    FROM embeddings),
s AS (SELECT vec_id, embedding FROM u ORDER BY h, vec_id LIMIT 64)
SELECT a.vec_id AS a, b.vec_id AS b,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6)
         AS sim
  FROM s a JOIN s b ON a.vec_id < b.vec_id
""",
    "session_bounce": """
WITH o AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
              THEN 1 ELSE 0 END AS new_s
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
s AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sid
    FROM o),
per AS (
  SELECT user_id, sid, count(*) AS len, min(ts) AS t0
    FROM s GROUP BY 1, 2),
d AS (
  SELECT epoch_us(t0) // 86400000000 AS day,
         count(*) AS n_sessions,
         SUM(CASE WHEN len = 1 THEN 1 ELSE 0 END) AS n_bounce
    FROM per GROUP BY 1)
SELECT CAST(day AS BIGINT) AS day,
       CAST(n_sessions AS BIGINT) AS n_sessions,
       CAST(n_bounce AS BIGINT) AS n_bounce,
       CAST((2000000 * n_bounce + n_sessions) // (2 * n_sessions)
            AS BIGINT) AS bounce_e6
  FROM d
""",
    "dedup_lang_shift": """
WITH d AS (
  SELECT doc_id, text, lang FROM documents
   WHERE text IS NOT NULL AND lang IS NOT NULL),
surv AS (
  SELECT lang FROM (
    SELECT lang, doc_id,
           min(doc_id) OVER (PARTITION BY text) AS keep
      FROM d) WHERE doc_id = keep),
b AS (SELECT lang, count(*) AS n_before FROM d GROUP BY 1),
a AS (SELECT lang, count(*) AS n_after FROM surv GROUP BY 1),
t AS (SELECT SUM(n_before) AS tb FROM b),
u AS (SELECT SUM(n_after) AS ta FROM a)
SELECT b.lang,
       CAST(b.n_before AS BIGINT) AS n_before,
       CAST(coalesce(a.n_after, 0) AS BIGINT) AS n_after,
       CAST((2000000 * b.n_before + t.tb) // (2 * t.tb) AS BIGINT)
         AS share_before_e6,
       CAST((2000000 * coalesce(a.n_after, 0) + u.ta) // (2 * u.ta)
            AS BIGINT) AS share_after_e6,
       CAST((2000000 * coalesce(a.n_after, 0) + u.ta) // (2 * u.ta)
            - (2000000 * b.n_before + t.tb) // (2 * t.tb) AS BIGINT)
         AS shift_e6
  FROM b LEFT JOIN a ON a.lang = b.lang
  CROSS JOIN t CROSS JOIN u
""",
    "shipping_priority": """
WITH rev AS (
  SELECT l_orderkey,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS r
    FROM lineitem
   WHERE l_shipdate > TIMESTAMP '1998-01-01'
   GROUP BY 1)
SELECT o.o_orderkey, o.o_orderpriority,
       CAST(rev.r AS BIGINT) AS revenue_c4
  FROM orders o
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN rev ON rev.l_orderkey = o.o_orderkey
 WHERE o.o_orderdate < TIMESTAMP '1998-01-01'
   AND c.c_mktsegment = 'BUILDING'
 ORDER BY revenue_c4 DESC, o.o_orderkey
 LIMIT 10
""",
    "promo_revenue_share": """
WITH j AS (
  SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT)
           AS month,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)) AS rev,
         CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END AS promo
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey),
m AS (
  SELECT month, SUM(rev) AS total_c4,
         SUM(rev * promo) AS promo_c4
    FROM j GROUP BY 1)
SELECT month, CAST(total_c4 AS BIGINT) AS total_c4,
       CAST(promo_c4 AS BIGINT) AS promo_c4,
       CAST((2000000 * promo_c4 + total_c4) // (2 * total_c4) AS BIGINT)
         AS promo_share_e6
  FROM m
""",
    "source_overlap": """
WITH toks AS (
  SELECT source, list_filter(string_split_regex(
             coalesce(text, ''), '\\s+'), x -> x <> '') AS w
    FROM documents WHERE source IS NOT NULL),
g AS (
  SELECT DISTINCT source, array_to_string(w[i:i+2], ' ') AS gram
    FROM toks, unnest(range(1, greatest(len(w) - 2, 0) + 1)) AS t(i)
   WHERE len(w) >= 3),
cnt AS (SELECT source, count(*) AS n FROM g GROUP BY 1),
srcs AS (SELECT DISTINCT source FROM documents
          WHERE source IS NOT NULL),
pairs AS (SELECT a.source AS sa, b.source AS sb
            FROM srcs a JOIN srcs b ON a.source < b.source),
ix AS (SELECT ga.source AS sa, gb.source AS sb, count(*) AS i
         FROM g ga JOIN g gb ON ga.gram = gb.gram
                            AND ga.source < gb.source
        GROUP BY 1, 2)
SELECT p.sa AS src_a, p.sb AS src_b,
       CAST(coalesce(ix.i, 0) AS BIGINT) AS inter,
       CAST(coalesce(ca.n, 0) AS BIGINT) AS n_a,
       CAST(coalesce(cb.n, 0) AS BIGINT) AS n_b,
       CAST(CASE WHEN coalesce(ca.n, 0) + coalesce(cb.n, 0)
                      - coalesce(ix.i, 0) > 0
                 THEN (2000000 * coalesce(ix.i, 0)
                       + coalesce(ca.n, 0) + coalesce(cb.n, 0)
                       - coalesce(ix.i, 0))
                      // (2 * (coalesce(ca.n, 0) + coalesce(cb.n, 0)
                               - coalesce(ix.i, 0)))
                 ELSE 0 END AS BIGINT) AS jaccard_e6
  FROM pairs p
  LEFT JOIN ix ON ix.sa = p.sa AND ix.sb = p.sb
  LEFT JOIN cnt ca ON ca.source = p.sa
  LEFT JOIN cnt cb ON cb.source = p.sb
""",
    "part_name_fuzzy2": """
SELECT a.p_partkey AS a, b.p_partkey AS b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
  FROM part a
  JOIN part b ON a.p_partkey < b.p_partkey
 WHERE length(a.p_name) <= 40 AND length(b.p_name) <= 40
   AND levenshtein(a.p_name, b.p_name) <= 2
""",
    "qty_quantiles_by_flag": """
WITH v AS (
  SELECT l_returnflag AS flag,
         CAST(ROUND(l_quantity * 100) AS BIGINT) AS x
    FROM lineitem
   WHERE l_returnflag IS NOT NULL AND l_quantity IS NOT NULL),
n AS (SELECT flag, count(*) AS c FROM v GROUP BY 1),
r AS (SELECT flag, x,
             row_number() OVER (PARTITION BY flag ORDER BY x) - 1 AS rn
        FROM v),
qs(q_e6) AS (VALUES (250000), (500000), (750000)),
t AS (SELECT n.flag, qs.q_e6,
             (n.c - 1) * CAST(qs.q_e6 AS BIGINT) // 1000000 AS target
        FROM n CROSS JOIN qs)
SELECT t.flag AS l_returnflag, CAST(t.q_e6 AS BIGINT) AS q_e6,
       CAST(r.x AS BIGINT) AS value
  FROM t JOIN r ON r.flag = t.flag AND r.rn = t.target
""",
    "late_events": """
WITH w AS (
  SELECT user_id,
         CASE WHEN ts < MAX(ts) OVER (
                PARTITION BY user_id ORDER BY event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
              THEN 1 ELSE 0 END AS late
    FROM events
   WHERE user_id IS NOT NULL AND ts IS NOT NULL)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(SUM(late) AS BIGINT) AS n_late,
       CAST((2000000 * SUM(late) + count(*)) // (2 * count(*))
            AS BIGINT) AS late_e6
  FROM w GROUP BY 1
""",
    "cusum_drift": """
WITH RECURSIVE d AS (
  SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day_idx,
         CAST(count(*) AS BIGINT) AS n
    FROM events WHERE ts IS NOT NULL GROUP BY 1),
o AS (SELECT day_idx, n,
             CAST(row_number() OVER (ORDER BY day_idx) AS BIGINT) AS rn
        FROM d),
p AS (SELECT (2 * SUM(n) + count(*)) // (2 * count(*)) AS mu FROM o),
p2 AS (SELECT mu, (2 * mu * 5 + 100) // 200 AS slack,
              (2 * mu * 20 + 100) // 200 AS h
         FROM p),
c(rn, day_idx, n, s_hi, s_lo) AS (
  SELECT o.rn, o.day_idx, o.n,
         greatest(0, o.n - p2.mu - p2.slack),
         greatest(0, p2.mu - o.n - p2.slack)
    FROM o, p2 WHERE o.rn = 1
  UNION ALL
  SELECT o.rn, o.day_idx, o.n,
         greatest(0, c.s_hi + o.n - p2.mu - p2.slack),
         greatest(0, c.s_lo + p2.mu - o.n - p2.slack)
    FROM c JOIN o ON o.rn = c.rn + 1, p2)
SELECT c.day_idx, c.n,
       CAST(c.s_hi AS BIGINT) AS cusum_hi,
       CAST(c.s_lo AS BIGINT) AS cusum_lo,
       (c.s_hi > p2.h OR c.s_lo > p2.h) AS alarm
  FROM c, p2
""",
    "join_cardinality": """
WITH lc AS (SELECT l_orderkey AS k, count(*) AS n FROM lineitem
             WHERE l_orderkey IS NOT NULL GROUP BY 1),
rc AS (SELECT o_orderkey AS k, count(*) AS n FROM orders
        WHERE o_orderkey IS NOT NULL GROUP BY 1),
j AS (SELECT lc.k, lc.n * rc.n AS prod FROM lc JOIN rc USING (k)),
hot AS (SELECT k, prod FROM j ORDER BY prod DESC, k LIMIT 1)
SELECT CAST((SELECT SUM(n) FROM lc) AS BIGINT) AS left_rows,
       CAST((SELECT SUM(n) FROM rc) AS BIGINT) AS right_rows,
       CAST((SELECT count(*) FROM lc) AS BIGINT) AS left_keys,
       CAST((SELECT count(*) FROM rc) AS BIGINT) AS right_keys,
       CAST((SELECT count(*) FROM j) AS BIGINT) AS matched_keys,
       CAST((SELECT SUM(prod) FROM j) AS BIGINT) AS est_rows,
       CAST((SELECT prod FROM hot) AS BIGINT) AS max_key_rows,
       CAST((SELECT k FROM hot) AS BIGINT) AS hot_key
""",
    "customer_linkage": """
WITH c AS (
  SELECT c_custkey, c_name, c_mktsegment,
         CAST(c_nationkey AS VARCHAR) AS nk,
         CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
    FROM customer WHERE length(c_name) <= 64),
p AS (
  SELECT a.c_custkey AS a, b.c_custkey AS b,
         CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS name_dist,
         CAST(CASE WHEN a.c_mktsegment = b.c_mktsegment
                   THEN 1 ELSE 0 END
              + CASE WHEN a.nk = b.nk THEN 1 ELSE 0 END AS BIGINT)
           AS n_exact_agree,
         CAST(CASE WHEN abs(a.cents - b.cents) <= 10000
                   THEN 1 ELSE 0 END AS BIGINT) AS value_close
    FROM c a JOIN c b ON a.c_custkey < b.c_custkey
   WHERE levenshtein(a.c_name, b.c_name) <= 1)
SELECT a, b, name_dist, n_exact_agree, value_close,
       CAST(2 - name_dist + n_exact_agree + value_close AS BIGINT)
         AS score
  FROM p
""",
    "hard_negatives": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe,
                  CAST(label AS BIGINT) AS ql
             FROM embeddings ORDER BY vec_id LIMIT 8),
s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
             list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                    CAST(e.embedding AS DOUBLE[])) AS sim
        FROM q CROSS JOIN embeddings e
       WHERE e.label IS NOT NULL AND CAST(e.label AS BIGINT) != q.ql)
SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim
  FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, neighbor_id) AS rn
          FROM s)
 WHERE rn <= 5
""",
    "knn_label_noise": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe,
                  CAST(label AS BIGINT) AS ql
             FROM embeddings ORDER BY vec_id LIMIT 8),
s AS (SELECT q.query_id, q.ql, e.vec_id AS nid,
             CAST(e.label AS BIGINT) AS nl,
             list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                    CAST(e.embedding AS DOUBLE[])) AS sim
        FROM q CROSS JOIN embeddings e
       WHERE e.vec_id != q.query_id AND e.label IS NOT NULL),
r AS (SELECT *, row_number() OVER (PARTITION BY query_id
                                   ORDER BY sim DESC, nid) AS rn
        FROM s)
SELECT query_id, ql AS label,
       CAST(count(*) AS BIGINT) AS n_neighbors,
       CAST(SUM(CASE WHEN nl != ql THEN 1 ELSE 0 END) AS BIGINT)
         AS n_disagree,
       CAST((2000000 * SUM(CASE WHEN nl != ql THEN 1 ELSE 0 END)
             + count(*)) // (2 * count(*)) AS BIGINT) AS disagree_e6
  FROM r WHERE rn <= 10
 GROUP BY 1, 2
""",
    "price_quantiles_select": """
WITH v AS (
  SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS x
    FROM lineitem WHERE l_extendedprice IS NOT NULL),
n AS (SELECT count(*) AS c FROM v),
r AS (SELECT x, row_number() OVER (ORDER BY x) - 1 AS rn FROM v),
qs(q_e6) AS (VALUES (250000), (500000), (900000), (990000)),
t AS (SELECT q_e6,
             ((SELECT c FROM n) - 1) * CAST(q_e6 AS BIGINT) // 1000000
               AS target
        FROM qs)
SELECT CAST(t.q_e6 AS BIGINT) AS q_e6, CAST(r.x AS BIGINT) AS value
  FROM t JOIN r ON r.rn = t.target
""",
    "neyman_allocation": """
WITH m AS (
  SELECT lang, count(*) AS n,
         SUM(CAST(n_chars AS BIGINT)) AS sx,
         SUM(CAST(n_chars AS BIGINT) * CAST(n_chars AS BIGINT)) AS sxx
    FROM documents
   WHERE lang IS NOT NULL AND n_chars IS NOT NULL
   GROUP BY 1),
w AS (
  SELECT lang, n,
         CAST(FLOOR(sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * 1000000
                    + 0.5) AS BIGINT) AS weight_e6
    FROM m),
tot AS (SELECT SUM(weight_e6) AS tw FROM w),
base AS (
  SELECT lang, n, weight_e6,
         (10000 * weight_e6) // tw AS base_alloc,
         (10000 * weight_e6) % tw AS rem
    FROM w CROSS JOIN tot),
lft AS (SELECT 10000 - SUM(base_alloc) AS k FROM base)
SELECT lang, CAST(n AS BIGINT) AS n_docs, weight_e6,
       CAST(base_alloc
            + CASE WHEN row_number() OVER (ORDER BY rem DESC, lang)
                        <= k THEN 1 ELSE 0 END AS BIGINT) AS alloc
  FROM base CROSS JOIN lft
""",
    "customer_name_fuzzy": """
SELECT a.c_custkey AS a, b.c_custkey AS b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS dist
  FROM customer a
  JOIN customer b ON a.c_custkey < b.c_custkey
 WHERE length(a.c_name) <= 64 AND length(b.c_name) <= 64
   AND levenshtein(a.c_name, b.c_name) <= 1
""",
    "big_volume_orders": """
WITH q AS (
  SELECT l_orderkey,
         SUM(CAST(ROUND(l_quantity * 100) AS BIGINT)) AS qty_c
    FROM lineitem GROUP BY 1 HAVING qty_c > 20000)
SELECT o.o_orderkey, c.c_name, CAST(q.qty_c AS BIGINT) AS total_qty_c
  FROM q
  JOIN orders o ON o.o_orderkey = q.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
""",
    "regional_revenue": """
WITH j AS (
  SELECT c.c_nationkey AS nk,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
                   AND s.s_nationkey = c.c_nationkey
   WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
     AND o.o_orderdate <  TIMESTAMP '1997-01-01')
SELECT n.n_name, CAST(SUM(j.rev) AS BIGINT) AS revenue_c4
  FROM j JOIN nation n ON n.n_nationkey = j.nk
 GROUP BY 1
""",
    "returned_revenue_customers": """
WITH r AS (
  SELECT o.o_custkey,
         SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))) AS rev
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
   WHERE l.l_returnflag = 'R'
   GROUP BY 1)
SELECT r.o_custkey AS c_custkey, c.c_name,
       CAST(r.rev AS BIGINT) AS revenue_c4
  FROM r JOIN customer c ON c.c_custkey = r.o_custkey
 ORDER BY revenue_c4 DESC, c_custkey
 LIMIT 20
""",
    "doc_hash_sample": """
WITH d AS (
  SELECT lang, doc_id,
         CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) AS u
    FROM documents WHERE lang IS NOT NULL)
SELECT lang, doc_id,
       CAST(row_number() OVER (PARTITION BY lang ORDER BY u, doc_id)
            AS BIGINT) AS sample_rank
  FROM d
QUALIFY sample_rank <= 10
""",
    "split_balance": r"""
WITH d AS (
  SELECT lang,
         CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                   AS BIGINT) % 10 < 8 THEN 1 ELSE 0 END AS tr
    FROM documents WHERE lang IS NOT NULL),
per AS (SELECT lang, SUM(tr) AS n_train, SUM(1 - tr) AS n_val
          FROM d GROUP BY 1),
g AS (SELECT (2000000 * SUM(n_train) + SUM(n_train + n_val))
             // (2 * SUM(n_train + n_val)) AS gs FROM per)
SELECT lang,
       CAST(n_train AS BIGINT) AS n_train,
       CAST(n_val AS BIGINT) AS n_val,
       CAST((2000000 * n_train + n_train + n_val)
            // (2 * (n_train + n_val)) AS BIGINT) AS train_share_e6,
       CAST(gs AS BIGINT) AS global_share_e6,
       CAST(abs((2000000 * n_train + n_train + n_val)
                // (2 * (n_train + n_val)) - gs) AS BIGINT) AS diff_e6,
       abs((2000000 * n_train + n_train + n_val)
           // (2 * (n_train + n_val)) - gs) > 20000 AS flagged
  FROM per CROSS JOIN g
""",
    "vocab_stats": r"""
WITH toks AS (
  SELECT lang, unnest(list_filter(string_split_regex(
             coalesce(text, ''), '\s+'), x -> x <> '')) AS word
    FROM documents WHERE lang IS NOT NULL),
wc AS (SELECT lang, word, count(*) AS n FROM toks GROUP BY 1, 2),
per AS (SELECT lang, SUM(n) AS n_tokens, count(*) AS n_types,
               SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS n_hapax
          FROM wc GROUP BY 1)
SELECT lang, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_types AS BIGINT) AS n_types,
       CAST(n_hapax AS BIGINT) AS n_hapax,
       CAST((2000000 * n_types + n_tokens) // (2 * n_tokens) AS BIGINT)
         AS ttr_e6,
       CAST((2000000 * n_hapax + n_types) // (2 * n_types) AS BIGINT)
         AS hapax_e6
  FROM per
""",
    "doc_novelty": r"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                             x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w) - 2, 0) + 1)) AS t(i)
   WHERE len(w) >= 3),
df AS (SELECT g, count(*) AS df FROM grams GROUP BY 1),
per AS (SELECT doc_id, count(*) AS n_grams,
               SUM(CASE WHEN df = 1 THEN 1 ELSE 0 END) AS n_novel
          FROM grams JOIN df USING (g) GROUP BY 1)
SELECT doc_id,
       CAST(n_grams AS BIGINT) AS n_grams,
       CAST(n_novel AS BIGINT) AS n_novel,
       CAST((2000000 * n_novel + n_grams) // (2 * n_grams) AS BIGINT)
         AS novelty_e6
  FROM per
""",
    "split_leakage": """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000 AS doc_id,
         text || CASE WHEN doc_id % 5 = 0 THEN '' ELSE ' extra' END AS text
    FROM documents WHERE doc_id % 5 IN (0, 1)),
s AS (
  SELECT md5(text) AS fp,
         CASE WHEN CAST(concat('0x', substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) % 10 < 8
              THEN 1 ELSE 0 END AS is_train
    FROM aug WHERE text IS NOT NULL),
c AS (SELECT fp, SUM(is_train) AS train_n, SUM(1 - is_train) AS val_n
        FROM s GROUP BY fp)
SELECT fp, CAST(train_n AS BIGINT) AS train_n, CAST(val_n AS BIGINT) AS val_n
  FROM c WHERE train_n > 0 AND val_n > 0
""",
    "inverted_index": r"""
WITH toks AS (
  SELECT DISTINCT doc_id, t.term
    FROM documents,
         unnest(list_filter(string_split(text, ' '), x -> x <> '')) AS t(term)),
ranked AS (
  SELECT term, doc_id,
         row_number() OVER (PARTITION BY term ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY term) AS df
    FROM toks)
SELECT term, CAST(df AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
  FROM ranked WHERE rn <= 20 GROUP BY term, df
""",
    # the ANN pipeline is fully deterministic (seeded hyperplanes,
    # persisted for SQL; sign(dot) is normalization-invariant; the
    # global probe set is shared across queries, mirroring the Ray
    # implementation); float behavior checked: bucket signs and ROUND-6
    # sims agree between numpy and DuckDB on this fixed input
    "ann_lsh": """
WITH planes AS (SELECT bit, vec FROM {lsh_planes}),
emb_bits AS (
  SELECT e.vec_id, p.bit,
         CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.vec) > 0
              THEN CAST(1 AS BIGINT) << p.bit ELSE 0 END AS bv
    FROM embeddings e CROSS JOIN planes p),
buckets AS (SELECT vec_id, CAST(SUM(bv) AS BIGINT) AS bucket FROM emb_bits GROUP BY vec_id),
q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
qb AS (SELECT b.bucket FROM q JOIN buckets b ON b.vec_id = q.query_id),
probes AS (
  SELECT bucket AS pb FROM qb
  UNION
  SELECT xor(qb.bucket, CAST(1 AS BIGINT) << CAST(t.i AS INTEGER))
    FROM qb, unnest(range(0, {ann_n_bits})) t(i)),
cand AS (
  SELECT DISTINCT e.vec_id AS neighbor_id, e.embedding
    FROM probes pr JOIN buckets b ON b.bucket = pr.pb
    JOIN embeddings e ON e.vec_id = b.vec_id),
s AS (SELECT q.query_id, c.neighbor_id,
             list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(c.embedding AS DOUBLE[])) AS sim
        FROM cand c CROSS JOIN q)
SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim
  FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, neighbor_id) AS rn FROM s)
 WHERE rn <= 10
""",
    # nearest-centroid assignment vs the persisted deterministic k-means
    # centroids; score = x.c - 0.5|c|^2 (same argmax as squared L2),
    # ties (none observed on this input) break to the lowest cid on
    # both sides
    "embedding_kmeans_assign": """
WITH cents AS (SELECT cid, vec FROM {kmeans_cents}),
sc AS (
  SELECT e.vec_id, c.cid,
         list_dot_product(CAST(e.embedding AS DOUBLE[]), c.vec)
         - 0.5 * list_dot_product(c.vec, c.vec) AS score
    FROM embeddings e CROSS JOIN cents c)
SELECT vec_id, CAST(cid AS BIGINT) AS cluster
  FROM (SELECT vec_id, cid,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY score DESC, cid) AS rn
          FROM sc)
 WHERE rn = 1
""",
    "ann_ivf": """
WITH cents AS (SELECT cid, vec FROM {ivf_cents}),
cells AS (
  SELECT vec_id, cid FROM (
    SELECT e.vec_id, c.cid,
           row_number() OVER (PARTITION BY e.vec_id
                              ORDER BY list_dot_product(CAST(e.embedding AS DOUBLE[]), c.vec) DESC,
                                       c.cid) AS rn
      FROM embeddings e CROSS JOIN cents c) WHERE rn = 1),
q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
qprobe AS (
  SELECT DISTINCT cid FROM (
    SELECT q.query_id, c.cid,
           row_number() OVER (PARTITION BY q.query_id
                              ORDER BY list_dot_product(CAST(q.qe AS DOUBLE[]), c.vec) DESC,
                                       c.cid) AS rn
      FROM q CROSS JOIN cents c) WHERE rn <= 4),
cand AS (
  SELECT e.vec_id AS neighbor_id, e.embedding
    FROM cells JOIN qprobe USING (cid)
    JOIN embeddings e ON e.vec_id = cells.vec_id),
s AS (SELECT q.query_id, c.neighbor_id,
             list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(c.embedding AS DOUBLE[])) AS sim
        FROM cand c CROSS JOIN q)
SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim
  FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, neighbor_id) AS rn FROM s)
 WHERE rn <= 10
""",
    "knn_cosine": """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe
             FROM embeddings ORDER BY vec_id LIMIT 5),
     s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                  list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                         CAST(e.embedding AS DOUBLE[])) AS sim
             FROM q CROSS JOIN embeddings e)
SELECT query_id, neighbor_id, ROUND(sim, 6) AS sim
  FROM (SELECT *, row_number() OVER (PARTITION BY query_id
                                     ORDER BY sim DESC, neighbor_id) AS rn
          FROM s)
 WHERE rn <= 10
""",
    "script_mix": """
WITH aug AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0
              THEN 'Привет мир это кириллический текст для проверки'
              WHEN doc_id % 5 = 1
              THEN '你好世界这是用于检查的中文文本没有空格'
              ELSE coalesce(text, '') END AS text
    FROM documents),
c AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS total,
         CAST(len(regexp_extract_all(text, '\\p{Latin}')) AS BIGINT) AS n_latin,
         CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit,
         CAST(len(regexp_extract_all(text, '\\p{Han}')) AS BIGINT) AS n_cjk,
         CAST(len(regexp_extract_all(text, '\\p{Cyrillic}')) AS BIGINT) AS n_cyrillic,
         CAST(len(regexp_extract_all(text, '\\s')) AS BIGINT) AS n_space
    FROM aug)
SELECT doc_id, n_latin, n_digit, n_cjk, n_cyrillic, n_space,
       total - n_latin - n_digit - n_cjk - n_cyrillic - n_space AS n_other,
       CASE
         WHEN n_latin >= n_digit AND n_latin >= n_cjk
              AND n_latin >= n_cyrillic AND n_latin >= n_space
              AND n_latin >= total - n_latin - n_digit - n_cjk
                              - n_cyrillic - n_space THEN 'latin'
         WHEN n_digit >= n_cjk AND n_digit >= n_cyrillic
              AND n_digit >= n_space
              AND n_digit >= total - n_latin - n_digit - n_cjk
                              - n_cyrillic - n_space THEN 'digit'
         WHEN n_cjk >= n_cyrillic AND n_cjk >= n_space
              AND n_cjk >= total - n_latin - n_digit - n_cjk
                           - n_cyrillic - n_space THEN 'cjk'
         WHEN n_cyrillic >= n_space
              AND n_cyrillic >= total - n_latin - n_digit - n_cjk
                                - n_cyrillic - n_space THEN 'cyrillic'
         WHEN n_space >= total - n_latin - n_digit - n_cjk
                         - n_cyrillic - n_space THEN 'space'
         ELSE 'other' END AS dominant
  FROM c
""",
    "lexical_diversity": r"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_extract_all(coalesce(text, ''), '\S+')) AS word
    FROM documents),
wc AS (SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word),
per AS (SELECT doc_id,
               CAST(SUM(c) AS BIGINT) AS n_words,
               CAST(count(*) AS BIGINT) AS n_distinct,
               CAST(SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_hapax
          FROM wc GROUP BY doc_id)
SELECT doc_id, n_words, n_distinct, n_hapax,
       (2 * n_distinct * 1000000 + n_words) // (2 * n_words) AS ttr_e6
  FROM per WHERE n_words > 0
""",
    "benford_totalprice": """
WITH c AS (
  SELECT CAST(substr(CAST(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                          AS VARCHAR), 1, 1) AS BIGINT) AS digit
    FROM orders
   WHERE o_totalprice IS NOT NULL
     AND floor(o_totalprice * 100 + 0.5) > 0),
g AS (SELECT digit, CAST(count(*) AS BIGINT) AS n_obs FROM c GROUP BY digit),
t AS (SELECT CAST(coalesce(SUM(n_obs), 0) AS HUGEINT) AS total FROM g),
p AS (SELECT * FROM (VALUES (1, 301030), (2, 176091), (3, 124939),
                            (4, 96910), (5, 79181), (6, 66947),
                            (7, 57992), (8, 51153), (9, 45757))
              AS v(digit, p_e6)),
d AS (SELECT p.digit,
             CAST(coalesce(g.n_obs, 0) AS HUGEINT) AS n_obs,
             t.total * p.p_e6 AS exp_e6,
             CAST(coalesce(g.n_obs, 0) AS HUGEINT) * 1000000
               - t.total * p.p_e6 AS diff
        FROM p LEFT JOIN g ON g.digit = p.digit CROSS JOIN t)
SELECT CAST(digit AS BIGINT) AS digit,
       CAST(n_obs AS BIGINT) AS n_obs,
       CAST(exp_e6 AS BIGINT) AS expected_e6,
       CAST(CASE WHEN exp_e6 = 0 THEN 0
                 ELSE (2 * diff * diff + exp_e6)
                      // (2 * exp_e6) END AS BIGINT)
         AS chi2_term_e6
  FROM d
""",
    "order_totals_reconcile": """
WITH l AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS line_cents
    FROM lineitem GROUP BY l_orderkey),
o AS (SELECT o_orderkey,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS o_cents
        FROM orders)
SELECT o.o_orderkey, o.o_cents,
       CAST(coalesce(l.line_cents, 0) AS BIGINT) AS line_cents,
       o.o_cents - CAST(coalesce(l.line_cents, 0) AS BIGINT) AS diff_cents,
       (o.o_cents - coalesce(l.line_cents, 0)) = 0 AS matched
  FROM o LEFT JOIN l ON l.l_orderkey = o.o_orderkey
""",
    "event_volume_drift": """
WITH b AS (SELECT (CAST(epoch_us(min(ts)) AS BIGINT)
                   + CAST(epoch_us(max(ts)) AS BIGINT)) // 2 AS mid
             FROM events WHERE ts IS NOT NULL),
c AS (SELECT event_type,
             CAST(SUM(CASE WHEN epoch_us(ts) < b.mid THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_first,
             CAST(SUM(CASE WHEN epoch_us(ts) >= b.mid THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_second
        FROM events, b
       WHERE ts IS NOT NULL AND event_type IS NOT NULL
       GROUP BY event_type),
r AS (SELECT event_type, n_first, n_second,
             CASE WHEN n_first > 0
                  THEN (2 * n_second * 1000000 + n_first) // (2 * n_first)
                  ELSE -1 END AS ratio_e6
        FROM c)
SELECT event_type, n_first, n_second, ratio_e6,
       (n_first = 0 OR abs(ratio_e6 - 1000000) > 50000) AS drifted
  FROM r
""",
    "lineitem_shipdate_violations": """
SELECT l.l_orderkey, l.l_linenumber, l.l_shipdate, o.o_orderdate
  FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
 WHERE l.l_shipdate < o.o_orderdate
""",
    "dedup_yield_report": r"""
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS w
    FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS g
    FROM toks, unnest(range(1, greatest(len(w)-2, 0)+1)) AS t(i)
   WHERE len(w) >= 3
  UNION
  SELECT doc_id, array_to_string(w, ' ') FROM toks WHERE len(w) BETWEEN 1 AND 2),
sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
            FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.doc_id < gb.doc_id
           GROUP BY 1, 2),
edges AS (
  SELECT a, b FROM inter JOIN sizes sa ON sa.doc_id = inter.a
                         JOIN sizes sb ON sb.doc_id = inter.b
   WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8),
und AS (SELECT a AS n, b AS m FROM edges UNION SELECT b, a FROM edges),
reach(n, m) AS (
  SELECT n, m FROM und
  UNION
  SELECT r.n, u.m FROM reach r JOIN und u ON u.n = r.m),
root AS (SELECT n AS doc_id, LEAST(n, min(m)) AS rep FROM reach GROUP BY n),
cl AS (SELECT rep, CAST(count(*) AS BIGINT) AS cluster_size
         FROM root GROUP BY rep)
SELECT cluster_size,
       CAST(count(*) AS BIGINT) AS n_clusters,
       CAST((cluster_size - 1) * count(*) AS BIGINT) AS docs_removed
  FROM cl GROUP BY cluster_size
""",
    "null_cooccurrence": """
WITH aug AS (
  SELECT CASE WHEN doc_id % 7 = 0 THEN NULL ELSE text END AS text,
         CASE WHEN doc_id % 14 = 0 THEN NULL ELSE lang END AS lang,
         CASE WHEN doc_id % 3 = 0 THEN NULL ELSE source END AS source
    FROM documents),
c AS (
  SELECT CAST(SUM(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS nt,
         CAST(SUM(CASE WHEN lang IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS nl,
         CAST(SUM(CASE WHEN source IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS ns,
         CAST(SUM(CASE WHEN text IS NULL AND lang IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS ntl,
         CAST(SUM(CASE WHEN text IS NULL AND source IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS nts,
         CAST(SUM(CASE WHEN lang IS NULL AND source IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS nls
    FROM aug),
p AS (
  SELECT 'text' AS col_a, 'lang' AS col_b, nt AS n_a_null, nl AS n_b_null,
         ntl AS n_both_null FROM c
  UNION ALL
  SELECT 'text', 'source', nt, ns, nts FROM c
  UNION ALL
  SELECT 'lang', 'source', nl, ns, nls FROM c)
SELECT col_a, col_b, n_a_null, n_b_null, n_both_null,
       CASE WHEN n_a_null + n_b_null - n_both_null = 0 THEN 0
            ELSE (2 * n_both_null * 1000000
                  + (n_a_null + n_b_null - n_both_null))
                 // (2 * (n_a_null + n_b_null - n_both_null)) END
         AS jaccard_e6
  FROM p
""",
    "lang_confusion": """
WITH t AS (SELECT doc_id, text, lang,
                  string_split(lower(text), ' ') AS words
             FROM documents WHERE lang IS NOT NULL),
     s AS (SELECT doc_id, text, lang,
   len(list_filter(words, x -> x IN ('the','a','of','and','to','in','is','it','that','for'))) AS s_en,
   len(list_filter(words, x -> x IN ('der','die','das','und','ist','ein','zu','mit','von','nicht'))) AS s_de,
   len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','de','que','pour'))) AS s_fr,
   len(list_filter(words, x -> x IN ('el','la','los','las','es','un','una','de','que','por'))) AS s_es,
   length(regexp_replace(substr(text, 1, 200), '[^一-鿿]', '', 'g')) AS cjk,
   length(substr(text, 1, 200)) AS head_len
  FROM t),
pred AS (SELECT lang,
  CASE WHEN text IS NULL OR text = '' THEN 'und'
       WHEN cjk > head_len * 0.2 THEN 'zh'
       WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
       WHEN s_en = GREATEST(s_en, s_de, s_fr, s_es) THEN 'en'
       WHEN s_de = GREATEST(s_en, s_de, s_fr, s_es) THEN 'de'
       WHEN s_fr = GREATEST(s_en, s_de, s_fr, s_es) THEN 'fr'
       ELSE 'es' END AS lang_pred
  FROM s)
SELECT lang, lang_pred, CAST(count(*) AS BIGINT) AS n
  FROM pred GROUP BY lang, lang_pred
""",
    "mixture_plan": """
WITH g AS (SELECT lang AS key, CAST(SUM(n_chars) AS BIGINT) AS n_tokens
             FROM documents WHERE lang IS NOT NULL GROUP BY lang),
w AS (SELECT * FROM (VALUES ('de', 150000), ('en', 400000),
                            ('es', 150000), ('fr', 150000),
                            ('ko', 0), ('zh', 150000)) v(key, w_e6)),
j AS (SELECT coalesce(w.key, g.key) AS key,
             CAST(coalesce(g.n_tokens, 0) AS BIGINT) AS n_tokens,
             CAST(coalesce(w.w_e6, 0) AS BIGINT) AS weight_e6
        FROM w FULL OUTER JOIN g ON g.key = w.key),
t AS (SELECT key, n_tokens, weight_e6,
             CAST((2 * CAST(weight_e6 AS HUGEINT) * 2500000 + 1000000)
                  // 2000000 AS BIGINT) AS target_tokens
        FROM j)
SELECT key, n_tokens, weight_e6, target_tokens,
       CASE WHEN n_tokens = 0 THEN -1
            ELSE CAST((2 * CAST(target_tokens AS HUGEINT) * 1000000
                       + n_tokens) // (2 * n_tokens) AS BIGINT) END
         AS repeat_e6
  FROM t
""",
    "token_fertility": r"""
WITH g AS (
  SELECT lang,
         CAST(SUM(strlen(coalesce(text, ''))) AS BIGINT) AS n_bytes,
         CAST(SUM(len(regexp_extract_all(coalesce(text, ''), '\S+')))
              AS BIGINT) AS n_tokens
    FROM documents WHERE lang IS NOT NULL GROUP BY lang)
SELECT lang, n_bytes, n_tokens,
       CASE WHEN n_tokens = 0 THEN -1
            ELSE (2 * n_bytes * 1000000 + n_tokens) // (2 * n_tokens) END
         AS bytes_per_token_e6
  FROM g
""",
    "user_behavior_entropy": """
WITH c AS (SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
             FROM events
            WHERE user_id IS NOT NULL AND event_type IS NOT NULL
            GROUP BY 1, 2),
per AS (SELECT c.user_id,
               CAST(SUM(c.c) AS BIGINT) AS n,
               CAST(count(*) AS BIGINT) AS n_keys,
               CAST(SUM(CAST(c.c AS HUGEINT) * l.l_e12) AS HUGEINT)
                 AS sum_cl
          FROM c JOIN {log2_table} l ON l.m = c.c
         GROUP BY 1)
SELECT per.user_id, per.n, per.n_keys,
       CAST((CAST(per.n AS HUGEINT) * ln.l_e12 - per.sum_cl
             + CAST(per.n AS HUGEINT) * 500000)
            // (CAST(per.n AS HUGEINT) * 1000000) AS BIGINT) AS entropy_e6
  FROM per JOIN {log2_table} ln ON ln.m = per.n
""",
    "event_share_ci": """
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS v
             FROM events WHERE event_type IS NOT NULL
            GROUP BY event_type),
t AS (SELECT CAST(SUM(v) AS BIGINT) AS n FROM c)
SELECT c.event_type, c.v AS n_key,
       (2 * c.v * 1000000 + t.n) // (2 * t.n) AS share_e6,
       ROUND((CAST(c.v AS DOUBLE) / t.n + 1.96 * 1.96 / (2.0 * t.n)
              - 1.96 * sqrt((CAST(c.v AS DOUBLE) / t.n)
                            * (1.0 - CAST(c.v AS DOUBLE) / t.n) / t.n
                            + 1.96 * 1.96 / (4.0 * t.n * t.n)))
             / (1.0 + 1.96 * 1.96 / t.n), 6) AS lo,
       ROUND((CAST(c.v AS DOUBLE) / t.n + 1.96 * 1.96 / (2.0 * t.n)
              + 1.96 * sqrt((CAST(c.v AS DOUBLE) / t.n)
                            * (1.0 - CAST(c.v AS DOUBLE) / t.n) / t.n
                            + 1.96 * 1.96 / (4.0 * t.n * t.n)))
             / (1.0 + 1.96 * 1.96 / t.n), 6) AS hi
  FROM c CROSS JOIN t
""",
    "hourly_profile_drift": """
WITH b AS (SELECT (CAST(epoch_us(min(ts)) AS BIGINT)
                   + CAST(epoch_us(max(ts)) AS BIGINT)) // 2 AS mid
             FROM events WHERE ts IS NOT NULL),
h AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS hour,
             CASE WHEN epoch_us(ts) >= b.mid THEN 1 ELSE 0 END AS second
        FROM events, b WHERE ts IS NOT NULL),
hours AS (SELECT CAST(x AS BIGINT) AS hour FROM unnest(range(0, 24)) t(x)),
c AS (SELECT hours.hour,
             CAST(coalesce(SUM(CASE WHEN h.second = 0 THEN 1 END), 0)
                  AS BIGINT) AS n_first,
             CAST(coalesce(SUM(CASE WHEN h.second = 1 THEN 1 END), 0)
                  AS BIGINT) AS n_second
        FROM hours LEFT JOIN h ON h.hour = hours.hour
       GROUP BY hours.hour),
t AS (SELECT SUM(n_first) AS tf, SUM(n_second) AS ts FROM c)
SELECT c.hour, c.n_first, c.n_second,
       CAST(CASE WHEN t.tf > 0
                 THEN (2 * c.n_first * 1000000 + t.tf) // (2 * t.tf)
                 ELSE -1 END AS BIGINT) AS share_first_e6,
       CAST(CASE WHEN t.ts > 0
                 THEN (2 * c.n_second * 1000000 + t.ts) // (2 * t.ts)
                 ELSE -1 END AS BIGINT) AS share_second_e6,
       CAST(CASE WHEN t.tf > 0 AND t.ts > 0
                 THEN (2 * c.n_second * 1000000 + t.ts) // (2 * t.ts)
                      - (2 * c.n_first * 1000000 + t.tf) // (2 * t.tf)
                 ELSE 0 END AS BIGINT) AS delta_e6
  FROM c CROSS JOIN t
""",
    "conform_repair_summary": """
WITH j AS (
  SELECT r.w AS rw, e.w AS ew, r.h AS rh, e.h AS eh,
         r.fmt AS rf, e.fmt AS ef, r.caption AS rc, e.caption AS ec,
         r.phash AS rp, e.phash AS ep
    FROM {img} r
    JOIN {expconf} e USING (image_id)),
u AS (
  SELECT 'w' AS "column",
         CAST(SUM(CASE WHEN rw IS DISTINCT FROM ew THEN 1 ELSE 0 END)
              AS BIGINT) AS n_repaired FROM j
  UNION ALL
  SELECT 'h', CAST(SUM(CASE WHEN rh IS DISTINCT FROM eh THEN 1 ELSE 0 END)
              AS BIGINT) FROM j
  UNION ALL
  SELECT 'fmt', CAST(SUM(CASE WHEN rf IS DISTINCT FROM ef THEN 1 ELSE 0 END)
              AS BIGINT) FROM j
  UNION ALL
  SELECT 'caption', CAST(SUM(CASE WHEN rc IS DISTINCT FROM ec THEN 1 ELSE 0 END)
              AS BIGINT) FROM j
  UNION ALL
  SELECT 'phash', CAST(SUM(CASE WHEN rp IS DISTINCT FROM ep THEN 1 ELSE 0 END)
              AS BIGINT) FROM j)
SELECT * FROM u
""",
    "corpus_prepare_classifier": """
WITH red AS (
  SELECT doc_id, source, lang,
         regexp_replace(text,
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
           '[EMAIL]', 'g') AS text
    FROM documents),
m AS (
  SELECT *, CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_words,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS DOUBLE) AS n_upper
    FROM red),
s AS (
  SELECT *, ROUND(
      0.4 * LEAST(1.0, n_words / 64.0)
    + 0.3 * (CASE WHEN n_words > 0
                   AND (n_chars - (n_words - 1)) / n_words >= 3
                   AND (n_chars - (n_words - 1)) / n_words <= 12
                  THEN 1.0 ELSE 0.0 END)
    + 0.3 * (1.0 - CASE WHEN n_chars > 0 THEN n_upper / n_chars ELSE 0.0 END), 6) AS score
    FROM m),
filt AS (SELECT doc_id, source, text FROM s
          WHERE lang = 'en' AND score >= 0.5),
wrd AS (
  SELECT doc_id, x AS word
    FROM filt, unnest(list_filter(string_split_regex(text, '\\s+'),
                                  x -> x <> '')) AS t(x)),
clf AS (
  SELECT w.doc_id, CAST(SUM(mm.weight_e6) AS BIGINT) AS clf_score
    FROM wrd w JOIN {word_clf} mm
      USING (word)
   GROUP BY 1),
kept AS (
  SELECT f.* FROM filt f LEFT JOIN clf USING (doc_id)
   WHERE coalesce(clf.clf_score, 0) >= 0),
surv AS (
  SELECT * FROM (
    SELECT *, min(doc_id) OVER (PARTITION BY text) AS keeper FROM kept)
   WHERE doc_id = keeper),
capped AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY source
                                 ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
      FROM surv) WHERE rn <= 10)
SELECT doc_id, CAST(i // 60 AS BIGINT) AS chunk_idx,
       substring(text, CAST(i+1 AS BIGINT), 80) AS chunk_text
  FROM capped, unnest(range(0, greatest(length(text), 1), 60)) AS t(i)
""",
    "string_length_profile": """
WITH u AS (
  SELECT 'text' AS "column", text AS v FROM documents
  UNION ALL SELECT 'lang', lang FROM documents
  UNION ALL SELECT 'source', source FROM documents)
SELECT "column",
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN v IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_nulls,
       CAST(SUM(CASE WHEN v = '' THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
       CAST(coalesce(min(length(v)), -1) AS BIGINT) AS min_len,
       CAST(coalesce(max(length(v)), -1) AS BIGINT) AS max_len,
       CAST(CASE WHEN count(v) = 0 THEN -1
                 ELSE (2 * SUM(CAST(length(v) AS BIGINT)) * 1000000
                       + count(v)) // (2 * count(v)) END AS BIGINT)
         AS mean_len_e6
  FROM u GROUP BY "column"
""",
    "error_rate_ci": """
WITH c AS (SELECT CAST(count(*) AS BIGINT) AS n,
                  CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
                       AS BIGINT) AS k
             FROM events)
SELECT n, k,
       (2 * k * 1000000 + n) // (2 * n) AS rate_e6,
       ROUND((CAST(k AS DOUBLE) / n + 1.96 * 1.96 / (2.0 * n)
              - 1.96 * sqrt((CAST(k AS DOUBLE) / n)
                            * (1.0 - CAST(k AS DOUBLE) / n) / n
                            + 1.96 * 1.96 / (4.0 * n * n)))
             / (1.0 + 1.96 * 1.96 / n), 6) AS lo,
       ROUND((CAST(k AS DOUBLE) / n + 1.96 * 1.96 / (2.0 * n)
              + 1.96 * sqrt((CAST(k AS DOUBLE) / n)
                            * (1.0 - CAST(k AS DOUBLE) / n) / n
                            + 1.96 * 1.96 / (4.0 * n * n)))
             / (1.0 + 1.96 * 1.96 / n), 6) AS hi
  FROM c WHERE n > 0
""",
    "daily_active_users": """
WITH e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day_idx,
                  user_id
             FROM events
            WHERE ts IS NOT NULL AND user_id IS NOT NULL),
d AS (SELECT day_idx, CAST(count(DISTINCT user_id) AS BIGINT) AS dau
        FROM e GROUP BY 1),
f AS (SELECT user_id, min(day_idx) AS first_day FROM e GROUP BY 1),
n AS (SELECT first_day AS day_idx, CAST(count(*) AS BIGINT) AS new_users
        FROM f GROUP BY 1)
SELECT d.day_idx, d.dau,
       CAST(coalesce(n.new_users, 0) AS BIGINT) AS new_users
  FROM d LEFT JOIN n USING (day_idx)
""",
    "daily_volume_anomalies": """
WITH RECURSIVE d AS (
  SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day_idx,
         CAST(count(*) AS BIGINT) AS n
    FROM events WHERE ts IS NOT NULL GROUP BY 1),
o AS (SELECT day_idx, n,
             CAST(row_number() OVER (ORDER BY day_idx) AS BIGINT) AS rn
        FROM d),
e(rn, day_idx, n, s) AS (
  SELECT rn, day_idx, n, CAST(n AS HUGEINT) * 1000000 FROM o WHERE rn = 1
  UNION ALL
  SELECT o.rn, o.day_idx, o.n,
         (2 * (300000 * CAST(o.n AS HUGEINT) * 1000000 + 700000 * e.s)
          + 1000000) // 2000000
    FROM e JOIN o ON o.rn = e.rn + 1)
SELECT e.day_idx, e.n,
       CAST(coalesce(p.s, -1) AS BIGINT) AS ewma_prev_e6,
       CASE WHEN p.s IS NULL THEN FALSE
            ELSE abs(CAST(e.n AS HUGEINT) * 1000000 - p.s) * 1000000
                 > 100000 * p.s END AS anomalous
  FROM e LEFT JOIN e p ON p.rn = e.rn - 1
""",
    "caption_dupes": """
SELECT caption, CAST(count(*) AS BIGINT) AS n
  FROM {img}
 WHERE caption IS NOT NULL
 GROUP BY caption HAVING count(*) > 1
""",
    "image_bytes_outliers": """
WITH s AS (SELECT image_id, fmt, octet_length(bytes) AS b
             FROM {img}
            WHERE fmt IS NOT NULL AND bytes IS NOT NULL),
z AS (SELECT image_id, fmt,
             ROUND(CASE WHEN stddev_samp(b) OVER w > 0
                        THEN (b - AVG(b) OVER w)
                             / (stddev_samp(b) OVER w)
                        ELSE 0 END, 6) AS z
        FROM s WINDOW w AS (PARTITION BY fmt))
SELECT image_id, fmt, z FROM z WHERE abs(z) >= 2.5
""",
    "word_pagerank": _word_pagerank_sql(),
}


# pure-script replacement texts for the script_mix falsifiability
# injection (doc_id % 5 == 0 -> Cyrillic-dominant, == 1 -> Han-dominant);
# the SQL oracle carries the same literals
_CYR_TEXT = "Привет мир это кириллический текст для проверки"
_CJK_TEXT = "你好世界这是用于检查的中文文本没有空格"


def q_script_mix(sf_dir: str):
    """Unicode-script composition audit with dominant-class assignment
    — falsifiable via injected pure-Cyrillic / pure-Han replacement
    docs (every 5th / 5th+1), so the cyrillic and cjk branches and the
    first-max dominance rule all provably fire."""
    import pyarrow.compute as pc

    from ..stages.text import script_mix

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks()
        mod = pc.cast(
            pa.array(ids.to_numpy(zero_copy_only=False) % 5, pa.int64()),
            pa.int64(),
        )
        text = pc.fill_null(t["text"].combine_chunks(), "")
        text = pc.if_else(pc.equal(mod, 0),
                          pa.scalar(_CYR_TEXT, pa.string()), text)
        text = pc.if_else(pc.equal(mod, 1),
                          pa.scalar(_CJK_TEXT, pa.string()), text)
        return pa.table({"doc_id": t["doc_id"], "text": text})

    return script_mix(ds.map_batches(
        inject, batch_format="pyarrow", zero_copy_batch=True))


def q_lexical_diversity(sf_dir: str):
    """Per-doc type/token-ratio + hapax audit (vocabulary richness);
    one whitespace explode + pandas value_counts per batch, zero
    shuffle."""
    from ..stages.text import lexical_diversity

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return lexical_diversity(ds)


def q_benford_totalprice(sf_dir: str):
    """Benford first-digit audit over order totals in cents: 9-row
    digit distribution + exact e6 chi-square terms; per-batch bincount
    partials, O(blocks x 9) driver fold."""
    from ..stages.stats import benford_digits

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_totalprice"])
    return benford_digits(ds, "o_totalprice")


def q_order_totals_reconcile(sf_dir: str):
    """Cross-table control-total reconciliation: every order's header
    total vs the integer-cents sum of its lineitems — the classic
    ingest-audit invariant (fact rows must roll up to the manifest).
    Combiner-first per-batch lineitem partials -> one grouped sum ->
    LEFT OUTER bucketed shuffle join with the orders header (orders with no
    lineitems reconcile against 0). All money frozen as
    floor(x*100+0.5) cents so diff/matched are integer-exact."""
    import pyarrow.compute as pc

    from ..stages.join import shuffle_hash_join

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_extendedprice"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_totalprice"])

    def line_cents(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["l_extendedprice"].combine_chunks().to_numpy(
                zero_copy_only=False
            ) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "cents": pa.array(cents, pa.int64()),
        })

    sums = bucket_combine(
        line.map_batches(line_cents, batch_format="pyarrow",
                         zero_copy_batch=True),
        "l_orderkey", {"line_cents": ("cents", "sum")})

    def o_partial(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].combine_chunks().to_numpy(
                zero_copy_only=False
            ) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_cents": pa.array(cents, pa.int64()),
        })

    o = orders.map_batches(o_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    j = shuffle_hash_join(o, sums, on="o_orderkey",
                          right_on="l_orderkey", how="left outer")

    def finish(t: pa.Table) -> pa.Table:
        line_cents = pc.fill_null(pc.cast(t["line_cents"], pa.int64()), 0)
        diff = pc.subtract(t["o_cents"], line_cents)
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_cents": t["o_cents"],
            "line_cents": line_cents,
            "diff_cents": diff,
            "matched": pc.equal(diff, 0),
        })

    return j.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


# target mixture for the mixture_plan query: e6 weights summing to 1e6,
# 'ko' deliberately absent from the corpus (exercises the
# unsatisfiable-key path); total budget 2.5M proxy tokens
_MIXTURE_WEIGHTS_E6 = {"en": 400_000, "de": 150_000, "fr": 150_000,
                       "es": 150_000, "zh": 150_000, "ko": 0}
_MIXTURE_TARGET = 2_500_000


def q_user_behavior_entropy(sf_dir: str):
    """Per-user Shannon entropy over event-type usage (e6-integer bits
    via the persisted log2 artifact) — the behavioral-diversity
    fingerprint; fully distributed two-groupby chain."""
    import pyarrow.parquet as pq

    from ..stages.stats import grouped_key_entropy

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    L = pq.read_table(_log2_table_file())["l_e12"].to_numpy(
        zero_copy_only=False
    )
    return grouped_key_entropy(ds, "user_id", "event_type", L)


def q_event_share_ci(sf_dir: str):
    """Per-event-type share of total with Wilson 95% bounds (the
    error-bar percent-of-total report); one combiner count pass, one
    shared float expression per key."""
    from ..stages.stats import grouped_share_ci

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type"])
    return grouped_share_ci(ds, "event_type")


def q_hourly_profile_drift(sf_dir: str):
    """Hour-of-day profile drift between capture halves (24 rows,
    shares as half-up e6 ints; two bounded combiner passes)."""
    from ..stages.stats import hourly_profile_drift

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    return hourly_profile_drift(ds, "ts")


def q_conform_repair_summary(sf_dir: str):
    """Per-column conform repair counts: how many cells each metadata
    column had REPAIRED by the full conform pass — the aggregate 'what
    did conform actually do' report behind the row-level conform-diff
    query (the number a schema owner reads before trusting auto-repair
    in production). The conformer runs fused into the read, null-aware
    vectorized compare per batch, 5-int partials folded driver-side."""
    import pyarrow.compute as pc

    from .validate_pipeline import FusedConformer, read_images

    cols = ["w", "h", "fmt", "caption", "phash"]

    conform = FusedConformer()

    def repair_count(t: pa.Table) -> pa.Table:
        out = conform(t)  # row order preserved (pure map)
        counts = {}
        for c in cols:
            a = t[c].combine_chunks()
            b = out[c].combine_chunks()
            both_null = pc.and_(pc.is_null(a), pc.is_null(b))
            neq = pc.fill_null(pc.not_equal(a, b), True)
            changed = pc.and_(neq, pc.invert(both_null))
            counts[c] = pa.array(
                [int(pc.sum(changed).as_py() or 0)], pa.int64()
            )
        return pa.table(counts)

    folded = fold_table(
        read_images(_img_dir(sf_dir)).map_batches(
            repair_count, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    totals = {
        c: (sum(folded[c].to_pylist()) if folded is not None else 0)
        for c in cols
    }
    return pa.table({
        "column": pa.array(cols, pa.string()),
        "n_repaired": pa.array([totals[c] for c in cols], pa.int64()),
    })


def q_corpus_prepare_classifier(sf_dir: str):
    """Production corpus prep WITH the model-based quality filter
    (the fastText/DCLM/FineWeb-Edu slot): email redaction -> lang +
    quality filter -> classifier score >= 0 over the persisted
    naive-Bayes word model -> exact dedup keep-first -> per-source cap
    of 10 -> 80/60 chunking — the
    ``prepare_corpus(classifier_model=...)`` composite, same code path
    as CLI ``prepare --classifier-model``."""
    import pyarrow.parquet as pq

    from .corpus_pipeline import prepare_corpus

    docs = _t(sf_dir, "documents")
    model = pq.read_table(_word_classifier_file(sf_dir))
    return _collect(
        prepare_corpus(
            docs, classifier_model=model, min_classifier_e6=0,
            langs=("en",), min_quality=0.5, cap_per_source=10,
            chunk_size=80, chunk_stride=60,
        ),
        ["doc_id", "chunk_idx", "chunk_text"],
    )


def q_string_length_profile(sf_dir: str):
    """Codepoint-length profile of the document string columns
    (nulls/empties/min/max/half-up e6 mean) — the VARCHAR-bounds
    sanity sweep; five-int partials per column per block."""
    from ..stages.profile import string_length_profile

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "lang", "source"])
    return string_length_profile(ds, ["text", "lang", "source"])


def q_error_rate_ci(sf_dir: str):
    """Wilson 95% interval for the error-event rate — the sample-size-
    aware release-gate bound (compare the UPPER bound to the budget,
    not the point rate). Integer count partials; one float expression
    shared verbatim with the oracle."""
    from ..stages.stats import rate_wilson_ci

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type"])
    return rate_wilson_ci(ds, "event_type", "error")


def q_daily_active_users(sf_dir: str):
    """Exact DAU + first-seen new users per day (two-level distinct:
    batch-local pair dedup -> one distributed distinct -> bounded
    folds)."""
    from ..stages.stats import daily_active_users

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id"])
    return daily_active_users(ds, "ts", "user_id")


def q_daily_volume_anomalies(sf_dir: str):
    """EWMA daily-volume anomaly alarm over events (alpha 0.3, 10%
    deviation flag, exact integer fixed-point smoothing) — bounded
    per-batch day-count partials, recursion over the day table only."""
    from ..stages.stats import ewma_anomalies

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    return ewma_anomalies(ds, "ts")


def q_caption_dupes(sf_dir: str):
    """Boilerplate-caption detector: captions shared by more than one
    image (the stock-photo / placeholder-text signature that poisons
    caption-supervised training). Combiner-first distinct counts —
    the duplicate_keys machinery pointed at a text column."""
    from ..stages.uniqueness import duplicate_keys

    ds = read_images(_img_dir(sf_dir), ["caption"])
    return duplicate_keys(ds, "caption").rename_columns(["caption", "n"])


def q_image_bytes_outliers(sf_dir: str):
    """Compression-anomaly screen: images whose payload size is a
    >=2.5-sigma outlier WITHIN their format (a png 6 sigma over its
    format's size distribution is corrupt, mislabeled or hiding data;
    absolute-size rules can't see this because formats differ by an
    order of magnitude). Reuses the grouped z-score machinery on
    byte length; two streaming passes, one tiny moments broadcast."""
    import pyarrow.compute as pc

    from ..stages.stats import zscore_by_group

    ds = read_images(_img_dir(sf_dir), ["image_id", "bytes", "fmt"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.is_valid(t["fmt"].combine_chunks()),
            pc.is_valid(t["bytes"].combine_chunks()),
        )
        t = t.filter(m)
        return pa.table({
            "image_id": t["image_id"],
            "fmt": t["fmt"],
            "blen": pc.cast(
                pc.binary_length(t["bytes"].combine_chunks()), pa.float64()
            ),
        })

    z = zscore_by_group(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        "blen", "fmt", ["image_id"],
    )
    return z.map_batches(
        lambda t: t.filter(pc.greater_equal(pc.abs(t["z"]), 2.5)),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def q_mixture_plan(sf_dir: str):
    """Token-budget mixture planner over per-language char counts:
    available vs target tokens and the e6 repeat factor feeding the
    upsample/subsample stages. One combiner-first grouped sum."""
    from ..stages.corpus import mixture_plan

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])
    return mixture_plan(ds, "lang", "n_chars", _MIXTURE_WEIGHTS_E6,
                        _MIXTURE_TARGET)


def q_token_fertility(sf_dir: str):
    """Bytes-per-token by language (half-up e6) — the tokenizer
    capacity-planning audit; one combiner pass, two Arrow kernels per
    batch."""
    from ..stages.text import token_fertility

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "lang"])
    return token_fertility(ds)


def q_null_cooccurrence(sf_dir: str):
    """Pairwise null-co-occurrence over documents with injected null
    patterns (text null on every 7th id, lang on every 14th, source on
    every 3rd — so the pairs overlap at 14/21/42-cycles and every
    Jaccard cell is provably non-trivial)."""
    import pyarrow.compute as pc

    from ..stages.profile import null_cooccurrence

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"])

    def inject(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)

        def nulled(col, k):
            mask = pa.array(ids % k == 0)
            return pc.if_else(mask, pa.scalar(None, pa.string()),
                              t[col].combine_chunks())

        return pa.table({
            "doc_id": t["doc_id"],
            "text": nulled("text", 7),
            "lang": nulled("lang", 14),
            "source": nulled("source", 3),
        })

    return null_cooccurrence(
        ds.map_batches(inject, batch_format="pyarrow", zero_copy_batch=True),
        ["text", "lang", "source"],
    )


def q_lang_confusion(sf_dir: str):
    """Declared-vs-predicted language confusion matrix (langs^2 cells,
    per-batch partials + bounded driver fold)."""
    from ..stages.text import lang_confusion

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    return lang_confusion(ds)


def q_dedup_yield_report(sf_dir: str):
    """Near-dup cluster-size histogram + dedup yield: how many
    duplicate clusters of each size the MinHash chain found and how
    many docs dedup would remove — the ops-report view of the dedup
    stage (the number a pipeline owner actually reads before enabling
    it). Fully-Dataset chain: LSH pairs -> distributed components ->
    per-component counts -> per-size partials, driver fold bounded by
    DISTINCT CLUSTER SIZES (a few dozen at any scale), never by docs
    or pairs."""
    from ..stages.components import components_distributed

    docs = _t(sf_dir, "documents")
    pairs = minhash_dedup_pairs(docs, col="text", id_col="doc_id",
                                threshold=0.8)
    # bounded by construction (verified near-dup pairs); materialized
    # once so the emptiness probe and the components chain don't
    # re-execute the LSH pipeline (the multi-consumer lesson)
    pairs = pairs.materialize()
    schema = pa.schema([
        ("cluster_size", pa.int64()), ("n_clusters", pa.int64()),
        ("docs_removed", pa.int64()),
    ])
    if pairs.count() == 0:
        return schema.empty_table()
    sizes = bucket_combine(components_distributed(pairs), "component",
                           {"cluster_size": ("component", "count_all")})
    merged = fold_combine(sizes, "cluster_size",
                          {"n_clusters": ("cluster_size", "count_all")})
    size = merged["cluster_size"].to_numpy().astype(np.int64)
    n = merged["n_clusters"].to_numpy().astype(np.int64)
    return pa.table({
        "cluster_size": pa.array(size, pa.int64()),
        "n_clusters": pa.array(n, pa.int64()),
        "docs_removed": pa.array((size - 1) * n, pa.int64()),
    })


def q_event_volume_drift(sf_dir: str):
    """Per-event-type volume drift between the first and second half of
    the capture window (ratio as half-up e6 ints, 5% flag) — two
    bounded combiner passes over a column-pruned read."""
    from ..stages.stats import volume_drift

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    return volume_drift(ds, "ts", "event_type")


def q_lineitem_shipdate_violations(sf_dir: str):
    """Cross-table temporal-order constraint: lineitems shipped BEFORE
    their order's date (physically impossible — an ingest-corruption
    signature). The row-level complement of the control-total
    reconciliation: one bucketed shuffle equi-join of the two fact tables
    on the order key, then a vectorized timestamp compare; output is
    the violating rows with both timestamps for triage."""
    import pyarrow.compute as pc

    from ..stages.join import shuffle_hash_join

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_shipdate"],
    )
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate"])
    j = shuffle_hash_join(line, orders, on="l_orderkey",
                          right_on="o_orderkey")

    def flag(t: pa.Table) -> pa.Table:
        bad = pc.less(t["l_shipdate"], t["o_orderdate"])
        return t.filter(pc.fill_null(bad, False)).select(
            ["l_orderkey", "l_linenumber", "l_shipdate", "o_orderdate"]
        )

    return j.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)



def q_event_transitions(sf_dir: str):
    """Markov event-type transition counts: (prev_type, next_type, n)
    over each user's (ts, event_id)-ordered consecutive pairs — the
    behavioral sequence profile. One narrow user-hash shuffle, segmented
    adjacency scan, tiny global fold."""
    from ..stages.window import event_transition_counts

    return event_transition_counts(_t(sf_dir, "events"))


def q_repeat_purchase_gap(sf_dir: str):
    """Time-to-repeat: per customer with >= 2 orders, whole days between
    the first and second order ((date, key)-ordered) — the
    re-engagement-latency metric. One narrow custkey-hash shuffle."""
    from ..stages.window import first_repeat_gap

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return first_repeat_gap(ds)


def q_event_trend_slope(sf_dir: str):
    """Per-event-type OLS slope of daily counts vs epoch day — the
    volume-trend detector. Exact integer moments (Python big-int ==
    HUGEINT), one float divide, round 6."""
    from ..stages.stats import grouped_trend_slope

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts"])
    return grouped_trend_slope(ds, "event_type")


def q_weighted_median_price(sf_dir: str):
    """Quantity-weighted (lower) median of l_extendedprice per
    l_returnflag — robust grouped central tendency under heavy weights.
    The grouped order-statistics plan generalized to weight ranks: one
    sort, O(blocks x groups) weight partials, one in-block scan per
    group; the driver never holds a group's value set."""
    from ..stages.rank import grouped_weighted_median

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice",
                                  "l_quantity"])
    return grouped_weighted_median(ds, "l_returnflag", "l_extendedprice",
                                   "l_quantity")


def q_embedding_dim_profile(sf_dir: str):
    """Per-dimension mean/std of the embedding table (1-based dims) —
    the dead/degenerate-dimension audit. One combiner pass, O(blocks)
    driver fold, round 6."""
    from ..stages.similarity import embedding_dim_profile

    return embedding_dim_profile(_t(sf_dir, "embeddings"))


def q_word_pmi_top(sf_dir: str):
    """Top-20 PMI word pairs over the 20 most document-frequent words
    (doc-level co-occurrence, pairs with < 5 co-docs dropped) — the
    collocation profile. De-skewed vocab top-k + the doc-bucket
    cooccurrence triangle; final table bounded by vocab^2."""
    from ..stages.text import word_pmi_top

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return word_pmi_top(ds)



def q_split_leakage_near(sf_dir: str):
    """NEAR-duplicate cross-split contamination (the leak exact
    fingerprint leakage misses): MinHash-verified pairs (Jaccard >= 0.8
    over 3-shingles) whose two sides land on OPPOSITE sides of the
    deterministic md5 split — an eval doc that is a near-copy of a
    train doc inflates benchmarks just like a verbatim one. Uses the
    shared _synth_new_crawl re-key (verbatim copies AND ' extra'-
    suffixed near-misses; both straddle the id-keyed split). The split
    flag is a FUNCTION of the id (md5), so tagging pairs needs no join.
    Output (train_id, val_id, jaccard)."""
    import numpy as np

    from ..stages._digest import md5_u32
    from ..stages.dedup import minhash_dedup_pairs

    base = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    crawl = base.map_batches(_synth_new_crawl, batch_format="pyarrow",
                             zero_copy_batch=True)
    pairs = minhash_dedup_pairs(base.union(crawl), col="text",
                                id_col="doc_id", threshold=0.8).materialize()
    if not pairs.count():
        # a map hands an empty block on without its columns
        return rd.from_arrow(pa.schema([
            ("train_id", pa.int64()), ("val_id", pa.int64()),
            ("jaccard", pa.float64())]).empty_table())

    def tag(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        ta = (md5_u32(a) % 10 < 8)
        tb = (md5_u32(b) % 10 < 8)
        cross = pa.array(ta != tb)
        an = a.to_numpy(zero_copy_only=False)
        bn = b.to_numpy(zero_copy_only=False)
        return pa.table({
            "train_id": pa.array(np.where(ta, an, bn), pa.int64()),
            "val_id": pa.array(np.where(ta, bn, an), pa.int64()),
            "jaccard": t["jaccard"],
        }).filter(cross)

    return pairs.map_batches(tag, batch_format="pyarrow",
                             zero_copy_batch=True)


def q_split_balance(sf_dir: str):
    """Split-fairness audit: per-language train/val counts under the
    deterministic md5 doc split and each language's e6 train share vs
    the global share, flagging strata off by more than 2% — the check
    that an id-hash split didn't lopside a small language's eval
    slice. Exact integer shares; combiner-first partials."""
    from ..stages.corpus import split_balance

    ds = _t(sf_dir, "documents").select_columns(["doc_id", "lang"])
    return split_balance(ds, group_col="lang", id_col="doc_id")


def q_vocab_stats(sf_dir: str):
    """Corpus-level vocabulary profile per language: token
    occurrences, distinct types, hapax legomena, type-token ratio and
    hapax share (half-up e6 ints) — the Zipf-tail health check for
    tokenizer/mixture decisions."""
    from ..stages.text import vocab_stats

    ds = _t(sf_dir, "documents").select_columns(["text", "lang"])
    return vocab_stats(ds)


def q_doc_novelty(sf_dir: str):
    """Per-document novelty: share of a doc's distinct word 3-grams
    appearing in no other document (df == 1), as a half-up e6 int —
    high novelty marks original content worth upsampling; near-zero
    marks template spam."""
    from ..stages.text import doc_novelty

    ds = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    return doc_novelty(ds)


def q_word_pagerank(sf_dir: str):
    """Weighted PageRank (5 fixed iterations, exact e6 integer
    arithmetic) over the doc-co-occurrence graph of the 30 most
    document-frequent words — an oracled iterative algorithm: the
    DuckDB side unrolls the same five power iterations as CTEs over
    HUGEINTs, so results agree bit-for-bit."""
    from ..stages.text import word_pagerank

    ds = _t(sf_dir, "documents").select_columns(["doc_id", "text"])
    return word_pagerank(ds)


def q_session_bounce(sf_dir: str):
    """Per-day bounce rate: sessions started and single-event sessions
    per day under the 30-min-gap session rule, with the bounce share
    as a half-up e6 int — the engagement canary."""
    from ..stages.window import session_bounce_by_day

    ds = _t(sf_dir, "events").select_columns(["user_id", "ts"])
    return session_bounce_by_day(ds)


def q_dedup_lang_shift(sf_dir: str):
    """Dedup survivorship-bias audit: per-language row counts and e6
    shares before vs after exact keep-first dedup, plus the signed
    share shift — did dedup silently reweight the corpus mixture?"""
    from ..stages.dedup import dedup_lang_shift

    ds = _t(sf_dir, "documents").select_columns(["doc_id", "text", "lang"])
    return dedup_lang_shift(ds)


def q_event_type_lift(sf_dir: str):
    """Association-rule audit over event-type pairs: co-exhibiting user
    counts, per-type marginals, both direction confidences and the
    lift as exact half-up e6 ints — the market-basket read on event
    streams (lift > 1e6 = genuinely associated behaviors)."""
    from ..stages.window import event_type_lift

    ds = _t(sf_dir, "events").select_columns(["user_id", "event_type"])
    return event_type_lift(ds)


def q_embedding_pair_sample(sf_dir: str):
    """Embedding diversity audit: exact pairwise cosine over the 64
    smallest-md5-hash vectors (a fixed-size hash-rank sample — the
    same rows at any scale), ROUND 6 — the similarity distribution
    that reveals a collapsing embedding space."""
    from ..stages.similarity import embedding_pair_sample

    ds = _t(sf_dir, "embeddings").select_columns(["vec_id", "embedding"])
    return embedding_pair_sample(ds)


_Q3_CUTOFF_US = 883_612_800_000_000  # 1998-01-01 in epoch microseconds


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: the 10 highest-revenue orders placed before
    1998-01-01 by BUILDING-segment customers, counting only lineitems
    shipped after the cutoff. Revenue is exact integer hundredths of
    cents (cents * (100 - discount_pct)). Plan: combiner-first revenue
    rollup on lineitem (filter at the read, per-batch partials), two
    bucketed shuffle equi-joins on narrow projections, then per-block local
    top-10 with a bounded driver merge — no full sort, no broadcast of
    a large side."""
    from ..stages.join import shuffle_hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )

    def line_rev(t: pa.Table) -> pa.Table:
        ship = pc.cast(t["l_shipdate"].combine_chunks(), pa.int64())
        t = t.filter(pc.greater(ship, _Q3_CUTOFF_US))
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    rev = bucket_combine(
        li.map_batches(line_rev, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey", {"revenue_c4": ("rev", "sum")})

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"],
    )

    def orders_f(t: pa.Table) -> pa.Table:
        od = pc.cast(t["o_orderdate"].combine_chunks(), pa.int64())
        return t.filter(pc.less(od, _Q3_CUTOFF_US)).select(
            ["o_orderkey", "o_custkey", "o_orderpriority"])

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
    )

    def cust_f(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(t["c_mktsegment"].combine_chunks(), "BUILDING")
        ).select(["c_custkey"])

    qualified = shuffle_hash_join(
        orders.map_batches(orders_f, batch_format="pyarrow",
                           zero_copy_batch=True),
        cust.map_batches(cust_f, batch_format="pyarrow",
                         zero_copy_batch=True),
        on="o_custkey", right_on="c_custkey",
    )
    joined = shuffle_hash_join(qualified, rev,
                               on="o_orderkey", right_on="l_orderkey")

    def local_topk(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(
            ["revenue_c4", "o_orderkey"], ascending=[False, True],
            kind="mergesort").head(10)
        return pa.table({
            "o_orderkey": pa.array(g["o_orderkey"].to_numpy(np.int64),
                                   pa.int64()),
            "o_orderpriority": pa.array(g["o_orderpriority"], pa.string()),
            "revenue_c4": pa.array(g["revenue_c4"].to_numpy(np.int64),
                                   pa.int64()),
        })

    folded = fold_table(
        joined.map_batches(local_topk, batch_format="pyarrow")
    )
    if folded is None:
        return pa.table({
            "o_orderkey": pa.array([], pa.int64()),
            "o_orderpriority": pa.array([], pa.string()),
            "revenue_c4": pa.array([], pa.int64()),
        })
    df = folded.to_pandas().sort_values(
        ["revenue_c4", "o_orderkey"], ascending=[False, True],
        kind="mergesort").head(10)
    return pa.Table.from_pandas(df.reset_index(drop=True))


def q_promo_revenue_share(sf_dir: str):
    """TPC-H Q14 shape: per ship month, the e6 share of revenue coming
    from PROMO-type parts. One bucketed shuffle join of narrow lineitem
    and part projections, then per-batch (month, promo/total) integer
    partials into a |months|-row groupby — exact hundredths-of-cents
    arithmetic end to end."""
    from ..stages.join import shuffle_hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )
    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"],
    )
    joined = shuffle_hash_join(li, part,
                               on="l_partkey", right_on="p_partkey")

    def line_rev(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].combine_chunks()
        month = pc.add(
            pc.multiply(pc.cast(pc.year(ship), pa.int64()),
                        pa.scalar(100, pa.int64())),
            pc.cast(pc.month(ship), pa.int64()),
        )
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        promo = pc.cast(pc.equal(t["p_type"], "PROMO"), pa.int64())
        return pa.table({"month": month, "rev": rev,
                         "promo_rev": pc.multiply(rev, promo)})

    folded = bucket_combine(
        joined.map_batches(line_rev, batch_format="pyarrow",
                           zero_copy_batch=True),
        "month", {"total_c4": ("rev", "sum"), "promo_c4": ("promo_rev", "sum")})

    def final(t: pa.Table) -> pa.Table:
        tot = t["total_c4"].to_pylist()
        pr = t["promo_c4"].to_pylist()
        # Python ints: 2e6 * a month's c4 revenue overflows int64 well
        # below 100-TB scale (the oracle's HUGEINT equivalent)
        e6 = [(2_000_000 * p + n) // (2 * n) for p, n in zip(pr, tot)]
        return pa.table({
            "month": pc.cast(t["month"], pa.int64()),
            "total_c4": pa.array(tot, pa.int64()),
            "promo_c4": pa.array(pr, pa.int64()),
            "promo_share_e6": pa.array(e6, pa.int64()),
        })

    return folded.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_big_volume_orders(sf_dir: str):
    """TPC-H Q18 shape (large-volume orders): orders whose total
    lineitem quantity exceeds 200, joined back to their customer name.
    The new plan shape vs Q3 is HAVING-then-join-back: the fact table
    collapses to per-order quantity partials FIRST (combiner inside
    map_batches, one groupby), the having-filter shrinks it to the
    heavy-hitter set, and only that bounded set joins orders and
    customer — the fact rows never ride a join shuffle. Quantities in
    exact integer hundredths."""
    from ..stages.join import shuffle_hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
    )

    def qty_c(t: pa.Table) -> pa.Table:
        qc = pc.cast(pc.round(pc.multiply(t["l_quantity"], 100.0)),
                     pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"], "qty_c": qc})

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["total_qty_c"], 20000))

    heavy = bucket_combine(
        li.map_batches(qty_c, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey", {"total_qty_c": ("qty_c", "sum")},
    ).map_batches(having, batch_format="pyarrow", zero_copy_batch=True)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])

    joined = shuffle_hash_join(
        shuffle_hash_join(heavy, orders,
                          on="l_orderkey", right_on="o_orderkey"),
        cust, on="o_custkey", right_on="c_custkey",
    )

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "c_name": pc.cast(t["c_name"], pa.string()),
            "total_qty_c": pc.cast(t["total_qty_c"], pa.int64()),
        })

    return joined.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


_Q5_LO_US = 820_454_400_000_000   # 1996-01-01 in epoch microseconds
_Q5_HI_US = 852_076_800_000_000   # 1997-01-01


def q_regional_revenue(sf_dir: str):
    """TPC-H Q5 shape (local-supplier revenue): 1996 revenue per
    nation counting only lineitems whose SUPPLIER sits in the ordering
    customer's own nation. Plan: two fact-side bucketed shuffle joins
    (lineitem->1996 orders, ->customer) on narrow projections; the
    supplier->nation side is a BROADCAST dict (suppkey->nationkey,
    nationkey->name — supplier is orders-of-magnitude smaller than the
    fact table and nation is ~25 rows at any scale), applied inside
    the same batch pass that computes the exact-cents revenue partials;
    one |nations|-row groupby finishes. The co-nation equality filter
    never shuffles anything."""
    import pyarrow.parquet as pq

    from ..stages.join import shuffle_hash_join

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    sup_keys = sup["s_suppkey"].to_numpy(zero_copy_only=False).astype(
        np.int64)
    sup_vals = pc.cast(sup["s_nationkey"], pa.int64()).to_numpy(
        zero_copy_only=False)
    order = np.argsort(sup_keys, kind="mergesort")
    # sorted (key, nationkey) arrays: the broadcast is two dense numpy
    # vectors shipped with the task and the per-batch lookup one
    # vectorized searchsorted — no Python dict probe per row
    sup_keys, sup_vals = sup_keys[order], sup_vals[order]
    names = {int(k): str(v) for k, v in zip(nat["n_nationkey"].to_pylist(),
                                            nat["n_name"].to_pylist())}

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def orders_f(t: pa.Table) -> pa.Table:
        od = pc.cast(t["o_orderdate"].combine_chunks(), pa.int64())
        keep = pc.and_(pc.greater_equal(od, _Q5_LO_US),
                       pc.less(od, _Q5_HI_US))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def li_rev(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                       pa.int64())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_suppkey": t["l_suppkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), disc)),
        })

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"])

    joined = shuffle_hash_join(
        shuffle_hash_join(
            li.map_batches(li_rev, batch_format="pyarrow",
                           zero_copy_batch=True),
            orders.map_batches(orders_f, batch_format="pyarrow",
                               zero_copy_batch=True),
            on="l_orderkey", right_on="o_orderkey"),
        cust, on="o_custkey", right_on="c_custkey",
    )

    def conation(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(sup_keys) == 0:
            s_nat = np.full(len(sk), -1, np.int64)
        else:
            pos = np.searchsorted(sup_keys, sk)
            pos_c = np.minimum(pos, len(sup_keys) - 1)
            hit = sup_keys[pos_c] == sk
            s_nat = np.where(hit, sup_vals[pos_c], -1)
        c_nat = pc.cast(t["c_nationkey"], pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = s_nat == c_nat
        return pa.table({
            "n_nationkey": pa.array(c_nat[keep], pa.int64()),
            "revenue_c4": pa.array(
                t["rev"].to_numpy(zero_copy_only=False)[keep],
                pa.int64()),
        })

    agg = fold_combine(
        joined.map_batches(conation, batch_format="pyarrow"),
        "n_nationkey", {"revenue_c4": ("revenue_c4", "sum")})
    keys = agg["n_nationkey"].to_pylist()
    return pa.table({
        "n_name": pa.array([names.get(int(k), "?") for k in keys],
                           pa.string()),
        "revenue_c4": pc.cast(agg["revenue_c4"], pa.int64()),
    })


def q_returned_revenue_customers(sf_dir: str):
    """TPC-H Q10 shape: the 20 customers losing the most revenue to
    returned items (l_returnflag = 'R'). Two-level pre-aggregation —
    per-order revenue partials collapse the fact table BEFORE the
    orders join, then per-customer partials collapse again before the
    customer join — so each shuffle carries strictly shrinking keyed
    partials, never fact rows. Top-20 via per-block local top-k and a
    bounded driver merge (no global sort)."""
    from ..stages.join import shuffle_hash_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"])

    def line_rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"].combine_chunks(), "R"))
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                       pa.int64())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), disc)),
        })

    order_rev = bucket_combine(
        li.map_batches(line_rev, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey", {"rev": ("rev", "sum")})

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    with_cust = shuffle_hash_join(order_rev, orders,
                                  on="l_orderkey", right_on="o_orderkey")

    cust_rev = bucket_combine(with_cust, "o_custkey",
                              {"revenue_c4": ("rev", "sum")})

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    joined = shuffle_hash_join(cust_rev, cust,
                               on="o_custkey", right_on="c_custkey")

    def local_topk(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(
            ["revenue_c4", "o_custkey"], ascending=[False, True],
            kind="mergesort").head(20)
        return pa.table({
            "c_custkey": pa.array(g["o_custkey"].to_numpy(np.int64),
                                  pa.int64()),
            "c_name": pa.array(g["c_name"], pa.string()),
            "revenue_c4": pa.array(g["revenue_c4"].to_numpy(np.int64),
                                   pa.int64()),
        })

    folded = fold_table(
        joined.map_batches(local_topk, batch_format="pyarrow")
    )
    if folded is None or folded.num_rows == 0:
        return pa.table({
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "revenue_c4": pa.array([], pa.int64()),
        })
    df = folded.to_pandas().sort_values(
        ["revenue_c4", "c_custkey"], ascending=[False, True],
        kind="mergesort").head(20)
    return pa.Table.from_pandas(df.reset_index(drop=True))


def q_doc_hash_sample(sf_dir: str):
    """Deterministic per-language eval sample: the 10 lowest
    md5-rank doc_ids per lang (stages.corpus.stratified_hash_sample) —
    constant-size, layout-invariant, reproducible."""
    from ..stages.corpus import stratified_hash_sample

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return stratified_hash_sample(ds, group_col="lang",
                                  id_col="doc_id", n=10)


def q_customer_name_fuzzy(sf_dir: str):
    """Customer-name pairs within Levenshtein distance 1 —
    stages.dedup.edit_distance_pairs (FastSS single-deletion blocking
    + banded-DP verify inside candidate-sized bucket shuffles)."""
    from ..stages.dedup import edit_distance_pairs

    ds = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    return edit_distance_pairs(ds, "c_name", "c_custkey", max_dist=1)


def q_neyman_allocation(sf_dir: str):
    """Neyman-optimal per-language sample allocation for a
    10,000-doc eval budget over documents.n_chars —
    stages.stats.neyman_allocation (integer moments + e6-quantized
    sqrt + exact largest-remainder apportionment)."""
    from ..stages.stats import neyman_allocation

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "n_chars"])
    return neyman_allocation(ds, group_col="lang",
                             value_col="n_chars", budget=10_000)


def q_price_quantiles_select(sf_dir: str):
    """Exact p25/p50/p90/p99 of lineitem extendedprice (integer cents)
    via stages.rank.exact_quantiles_select — streaming histogram
    selection, ZERO shuffle (the sort-based exact_quantiles moves every
    row over the network; this runs ~2 cheap combiner scans)."""
    from ..stages.rank import exact_quantiles_select

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "cents": pc.cast(pc.round(
                pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()),
        })

    proj = ds.map_batches(cents, batch_format="pyarrow",
                          zero_copy_batch=True)
    return exact_quantiles_select(
        proj, "cents", [250_000, 500_000, 900_000, 990_000])


def q_knn_label_noise(sf_dir: str):
    """k-NN label-disagreement audit over the first 8 embedding ids:
    the confident-learning mislabeling proxy —
    stages.similarity.knn_label_disagreement (self excluded, neighbor
    labels ride the local top-k, integer-only output)."""
    from ..stages.similarity import knn_label_disagreement

    tbl = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet")
        .sort("vec_id").limit(8).to_pandas()
    )
    mat = np.stack([np.asarray(v, np.float64) for v in tbl["embedding"]])
    ds = _t(sf_dir, "embeddings")
    return knn_label_disagreement(
        ds, mat, tbl["vec_id"].tolist(), tbl["label"].tolist(), k=10)


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining: per query (first 8 embedding ids), the 5
    most-similar vectors with a DIFFERENT label —
    stages.similarity.hard_negative_mining (per-query label mask rides
    the matmul; broadcast queries, local top-k, bounded merge)."""
    from ..stages.similarity import hard_negative_mining

    tbl = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet")
        .sort("vec_id").limit(8).to_pandas()
    )
    mat = np.stack([np.asarray(v, np.float64) for v in tbl["embedding"]])
    ds = _t(sf_dir, "embeddings")
    return hard_negative_mining(
        ds, mat, tbl["vec_id"].tolist(), tbl["label"].tolist(), k=5)


def q_customer_linkage(sf_dir: str):
    """Entity-resolution scores over fuzzy-blocked customer pairs:
    stages.dedup.record_linkage_scores (name distance-1 blocking;
    agreement vector over mktsegment + nationkey; balance within
    $100). Integer score = (2 - name_dist) + agreements + closeness."""
    from ..stages.dedup import record_linkage_scores

    ds = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment", "c_nationkey",
                 "c_acctbal"])

    def cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bal_cents",
            pc.cast(pc.round(pc.multiply(t["c_acctbal"], 100.0)),
                    pa.int64()))

    proj = ds.map_batches(cents, batch_format="pyarrow",
                          zero_copy_batch=True)
    return record_linkage_scores(
        proj, id_col="c_custkey", name_col="c_name",
        exact_cols=["c_mktsegment", "c_nationkey"],
        value_col="bal_cents", value_tol=10_000)


def q_compression_flags(sf_dir: str):
    """Docs whose zlib compression ratio is at/below 400000 e6 (highly
    repetitive/templated content) — stages.text.compression_ratio.
    Rows-only check by necessity: DuckDB has no DEFLATE; the op is
    property-pinned instead (tests/test_round5c_ops.py)."""
    from ..stages.text import compression_ratio

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return compression_ratio(ds, max_ratio_e6=400_000)


def q_join_cardinality(sf_dir: str):
    """Exact lineitem-orders join size + skew WITHOUT the join —
    stages.profile.join_cardinality over distinct-key count tables."""
    from ..stages.profile import join_cardinality

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey"])
    od = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey"])
    return join_cardinality(li, od, left_key="l_orderkey",
                            right_key="o_orderkey")


def q_cusum_drift(sf_dir: str):
    """One-sided CUSUM drift alarms on daily event volume (5% slack,
    20% decision interval, exact integer recursion) —
    stages.stats.cusum_drift, the sustained-shift complement of the
    EWMA per-day alarm."""
    from ..stages.stats import cusum_drift

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    return cusum_drift(ds, "ts")


def q_orders_enriched_bucketed(sf_dir: str):
    """orders-customer enrichment over PRE-BUCKETED tables: both sides
    hash-partitioned ONCE by custkey (stages.bucketed.bucket_write),
    then joined bucket-by-bucket with zero join-time shuffle
    (stages.bucketed.bucketed_join) — the amortized-partitioning
    doctrine as a runnable query. Result is mathematically identical
    to orders_enriched (shared oracle)."""
    import hashlib as _h

    from ..stages.bucketed import bucket_write, bucketed_join

    # the tag covers the inputs' sizes and mtimes: rewritten inputs at
    # the same path get a fresh cache instead of stale buckets
    stamp = [sf_dir] + [f"{p.stat().st_size}:{p.stat().st_mtime_ns}"
                        for p in (Path(sf_dir, "orders.parquet"),
                                  Path(sf_dir, "customer.parquet"))]
    tag = _h.md5("|".join(stamp).encode()).hexdigest()[:10]

    def build(tmp: Path) -> None:
        tmp.mkdir()
        bucket_write(
            rd.read_parquet(f"{sf_dir}/orders.parquet",
                            columns=["o_orderkey", "o_custkey",
                                     "o_totalprice"]),
            "o_custkey", str(tmp / "orders"))
        bucket_write(
            rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_name",
                                     "c_mktsegment"]),
            "c_custkey", str(tmp / "customer"))

    cache = image_table.cached(f"bucketed_{tag}", build)
    joined = bucketed_join(str(cache / "orders"), str(cache / "customer"),
                           on="o_custkey", right_on="c_custkey")

    def final(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
            "o_custkey": pc.cast(t["o_custkey"], pa.int64()),
            "c_name": t["c_name"],
            "c_mktsegment": t["c_mktsegment"],
            "total_cents": pc.cast(pc.round(
                pc.multiply(t["o_totalprice"], 100.0)), pa.int64()),
        })

    return joined.map_batches(final, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_ann_recall_report(sf_dir: str):
    """Recall@10 certificate for the LSH index: per query, how many of
    the TRUE cosine top-10 (knn_brute_force) the ann_lsh probe
    recovered — the measure-don't-guess gate an approximate index
    needs before it replaces the exact path. Both runs share queries
    and seeds; rows-only by necessity (the LSH plane seeding has no
    SQL analogue) with the recall math property-tested."""
    mat, ids = _query_vectors(sf_dir)
    ds = _t(sf_dir, "embeddings")
    truth = knn_brute_force(ds, mat, ids, k=10).to_pandas()
    approx = ann_lsh(ds, mat, ids, k=10, n_bits=ANN_N_BITS,
                     seed=ANN_SEED).to_pandas()
    t_sets = truth.groupby("query_id")["neighbor_id"].apply(set)
    a_sets = approx.groupby("query_id")["neighbor_id"].apply(set)
    rows = []
    for qid in ids:
        t = t_sets.get(qid, set())
        a = a_sets.get(qid, set())
        hits = len(t & a)
        n = len(t)
        rows.append((qid, n, hits,
                     (2_000_000 * hits + n) // (2 * n) if n else 0))
    cols = list(zip(*rows))
    return pa.table({
        "query_id": pa.array(cols[0], pa.int64()),
        "k_true": pa.array(cols[1], pa.int64()),
        "hits": pa.array(cols[2], pa.int64()),
        "recall_e6": pa.array(cols[3], pa.int64()),
    })


def q_late_events(sf_dir: str):
    """Watermark/ordering audit: per user, events arriving (by
    event_id order) with a timestamp BEHIND the running max of their
    earlier events — the out-of-orderness a streaming ingestion's
    watermark must absorb. stages.window.late_events."""
    from ..stages.window import late_events

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    return late_events(ds, user_col="user_id", order_col="event_id",
                       ts_col="ts")


def q_qty_quantiles_by_flag(sf_dir: str):
    """Per-returnflag exact quantity quantiles (hundredths) via the
    zero-shuffle grouped selection path —
    stages.rank.grouped_quantiles_select (all groups bisect in the
    same scans; nothing exchanged but bin counts)."""
    from ..stages.rank import grouped_quantiles_select

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "qty_c": pc.cast(pc.round(
                pc.multiply(t["l_quantity"], 100.0)), pa.int64()),
        })

    proj = ds.map_batches(cents, batch_format="pyarrow",
                          zero_copy_batch=True)
    return grouped_quantiles_select(
        proj, "l_returnflag", "qty_c", [250_000, 500_000, 750_000])


def q_part_name_fuzzy2(sf_dir: str):
    """Part-name pairs within Levenshtein distance 2 — the k-deletion
    generalization of the FastSS blocking (up-to-2-deletion variants;
    completeness via the common-subsequence argument in
    stages.dedup._deletion_variant_rows)."""
    from ..stages.dedup import edit_distance_pairs

    ds = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"])
    return edit_distance_pairs(ds, "p_name", "p_partkey", max_dist=2)


def q_source_overlap(sf_dir: str):
    """Exact pairwise word-3-gram overlap matrix between document
    sources (intersection, per-source distinct counts, e6 Jaccard) —
    stages.corpus.source_overlap (per-gram source BITMASKS: one
    vocabulary-sized groupby, integer popcount partials, |sources|^2
    result)."""
    from ..stages.corpus import source_overlap

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "text"])
    return source_overlap(ds, group_col="source", col="text", n=3)


#: a query name -> the query whose code or oracle it shares
ALIASES = {
    # former variants whose code became the canonical query's: one
    # function and one oracle under both names
    "image_phash_duplicates_bloom": "image_phash_duplicates",
    "image_phash_duplicates_join": "image_phash_duplicates",
    "image_referential_orphans_shuffle": "image_referential_orphans",
    "image_referential_orphans_bloom": "image_referential_orphans",
    "minhash_dedup_ds": "minhash_dedup",
    "minhash_dedup_groups_ds": "minhash_dedup_groups",
    "cross_corpus_dups_shuffle": "cross_corpus_dups",
    # their own code, the canonical query's result by construction: the
    # oracle only (exact AllPairs computes the pair set the exhaustive
    # SQL defines; the bucketed co-located join, the identical enrichment)
    "ngram_jaccard_dedup": "minhash_dedup",
    "orders_enriched_shuffle": "orders_enriched",
    "orders_enriched_bucketed": "orders_enriched",
    "corpus_clean_join": "corpus_clean",
    "distinct_sources_by_lang_hll": "distinct_sources_by_lang",
    "image_conform_selective": "image_conform_full",
}

_FUNCTIONS = {name[2:]: fn for name, fn in globals().items()
              if name.startswith("q_")}
#: query name -> pipeline callable of ``sf_dir``: every ``q_<name>``
#: function, plus the aliases that have none of their own
QUERIES = {name: _FUNCTIONS.get(name) or _FUNCTIONS[ALIASES[name]]
           for name in sorted({*_FUNCTIONS, *ALIASES})}

#: query name -> its oracle template; the keys are the oracled queries
ORACLES = {name: _SQL[ALIASES.get(name, name)] for name in QUERIES
           if ALIASES.get(name, name) in _SQL}

_PLACEHOLDER = re.compile(r"\{([a-z_][a-z0-9_]*)\}")


def oracle(name: str, sf_dir: str) -> str:
    """Query ``name``'s DuckDB oracle for the inputs in ``sf_dir``. Only
    the fixtures its template names are generated."""
    template = ORACLES[name]
    text = {p: _PLACEHOLDERS[p](sf_dir)
            for p in set(_PLACEHOLDER.findall(template))}
    return _PLACEHOLDER.sub(lambda m: text[m[1]], template)


def oracle_sql() -> dict[str, str]:
    """Every oracle, rendered for ``ORACLE_SF_DIR`` (sf0.01, the scale of
    the ``__ray_entry__`` correctness check)."""
    return {name: oracle(name, ORACLE_SF_DIR) for name in ORACLES}
