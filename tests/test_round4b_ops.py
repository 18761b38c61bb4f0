"""Round-4 second batch: cross-field constraint rules, per-partition
verdicts, grouped integer moments, cross-document duplicated n-grams,
canonical-URL dedup."""

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd


# ------------------------------------------------------------ crossfield
def _img_ds(rows):
    names = ["image_id", "w", "h", "caption"]
    cols = {n: [r[i] for r in rows] for i, n in enumerate(names)}
    return rd.from_arrow(pa.table({
        "image_id": pa.array(cols["image_id"], pa.string()),
        "w": pa.array(cols["w"], pa.int32()),
        "h": pa.array(cols["h"], pa.int32()),
        "caption": pa.array(cols["caption"], pa.string()),
    }))


def test_cross_field_rules(ray_session):
    from schisma_ray.stages.crossfield import cross_field_violations

    ds = _img_ds([
        ("ok", 20, 20, "fine caption"),          # passes all three
        ("wide", 32, 8, "fine"),                 # aspect 4.0 > 2.0
        ("tall", 8, 32, "fine"),                 # aspect 0.25 < 0.5
        ("big", 40, 30, "fine"),                 # area 1200 > 900
        ("tiny", 9, 9, "fine"),                  # area 81 < 100
        ("emptycap", 20, 20, ""),                # length 0 < 1
        ("longcap", 20, 20, "x" * 300),          # length 300 > 256
        ("nullw", None, 20, "fine"),             # null w -> skipped
        ("nullcap", 20, 20, None),               # null caption -> skipped
    ])
    out = cross_field_violations(ds).to_pandas()
    got = {(r.row_ref, r.path): r.received for r in out.itertuples()}
    assert got == {
        ("wide", "w/h"): "4000000",
        ("tall", "w/h"): "250000",
        ("big", "w*h"): "1200",
        ("tiny", "w*h"): "81",
        ("emptycap", "caption"): "0",
        ("longcap", "caption"): "300",
    }
    assert set(out.code) == {"invalid"}


def test_cross_field_empty_and_clean_batches(ray_session):
    from schisma_ray.stages.crossfield import cross_field_violations

    ds = _img_ds([("a", 20, 20, "fine"), ("b", 16, 16, "ok too")])
    assert cross_field_violations(ds).count() == 0


# --------------------------------------------------------------- verdict
def _md5_bucket(v: str, mod: int = 16) -> int:
    return int(hashlib.md5(v.encode()).hexdigest()[:8], 16) % mod


def test_partition_verdicts(ray_session):
    from schisma_ray.stages.verdict import partition_verdicts

    ids = [f"id-{i}" for i in range(200)]
    rows = rd.from_arrow(pa.table({"image_id": pa.array(ids, pa.string())}))
    # every id whose bucket is even gets 1 violation -> rate 1_000_000
    bad = [i for i in ids if _md5_bucket(i) % 2 == 0]
    vio = rd.from_arrow(pa.table({"row_ref": pa.array(bad, pa.string())}))
    out = partition_verdicts(rows, vio, threshold_e6=500_000).to_pandas()
    out = out.set_index("part_id")
    for p in out.index:
        n = sum(1 for i in ids if _md5_bucket(i) == p)
        assert out.loc[p, "n_rows"] == n
        if p % 2 == 0:
            assert out.loc[p, "n_violations"] == n
            assert out.loc[p, "rate_e6"] == 1_000_000
            assert not out.loc[p, "passed"]
        else:
            assert out.loc[p, "n_violations"] == 0
            assert out.loc[p, "rate_e6"] == 0
            assert out.loc[p, "passed"]


def test_partition_verdicts_empty_partitions_omitted(ray_session):
    from schisma_ray.stages.verdict import partition_verdicts

    ids = ["id-0", "id-1"]  # occupy at most 2 of 64 buckets
    rows = rd.from_arrow(pa.table({"image_id": pa.array(ids, pa.string())}))
    vio = rd.from_arrow(pa.table({"row_ref": pa.array([], pa.string())}))
    out = partition_verdicts(rows, vio, num_partitions=64)
    assert set(out["part_id"].to_pylist()) == {_md5_bucket(i, 64) for i in ids}
    assert all(out["passed"].to_pylist())


# -------------------------------------------------------- grouped moments
def test_grouped_moments_exact(ray_session):
    from schisma_ray.stages.stats import grouped_moments

    rng = np.random.default_rng(3)
    k = rng.choice(["a", "b"], size=500).tolist()
    x = rng.integers(0, 1000, size=500)
    y = rng.integers(0, 50, size=500)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(k, pa.string()),
        "x": pa.array(x, pa.int64()),
        "y": pa.array(y, pa.int64()),
    })).repartition(7)
    out = grouped_moments(ds, "k", "x", "y")
    got = {r["k"]: r for r in out.to_pylist()}
    for key in ("a", "b"):
        m = np.array([kk == key for kk in k])
        assert got[key]["n"] == int(m.sum())
        assert got[key]["sum_x"] == int(x[m].sum())
        assert got[key]["sum_y"] == int(y[m].sum())
        assert got[key]["sum_xx"] == int((x[m] * x[m]).sum())
        assert got[key]["sum_yy"] == int((y[m] * y[m]).sum())
        assert got[key]["sum_xy"] == int((x[m] * y[m]).sum())


def test_grouped_moments_null_rows_dropped(ray_session):
    from schisma_ray.stages.stats import grouped_moments

    ds = rd.from_arrow(pa.table({
        "k": pa.array(["a", "a", None, "a"], pa.string()),
        "x": pa.array([1, None, 3, 4], pa.int64()),
        "y": pa.array([10, 20, 30, None], pa.int64()),
    }))
    out = grouped_moments(ds, "k", "x", "y").to_pylist()
    assert out == [{"k": "a", "n": 1, "sum_x": 1, "sum_y": 10,
                    "sum_xx": 1, "sum_yy": 100, "sum_xy": 10}]


# ------------------------------------------------------------- dup grams
def test_dup_gram_stats(ray_session):
    from schisma_ray.stages.dedup import dup_gram_stats

    docs = {
        1: "the quick brown fox jumps",     # grams: 3 (2 shared with doc 2)
        2: "a quick brown fox runs fast",   # grams: 4 (2 shared with doc 1)
        3: "totally different words here",  # grams: 2, none shared
        4: "short one",                     # <3 words -> whole-doc gram
        5: "short one",                     # identical -> fully dup with 4
        6: "",                              # no grams -> absent
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.string()),
    })).repartition(3)
    out = {r["doc_id"]: r for r in
           dup_gram_stats(ds, "text", "doc_id").take_all()}
    assert set(out) == {1, 2, 3, 4, 5}
    # doc1 grams: {the-quick-brown, quick-brown-fox, brown-fox-jumps};
    # doc2 grams: {a-quick-brown, quick-brown-fox, brown-fox-runs,
    #              fox-runs-fast}; shared: quick-brown-fox only
    assert out[1]["n_grams"] == 3 and out[1]["n_dup_grams"] == 1
    assert out[2]["n_grams"] == 4 and out[2]["n_dup_grams"] == 1
    assert out[3]["n_dup_grams"] == 0
    assert out[4] == {"doc_id": 4, "n_grams": 1, "n_dup_grams": 1,
                      "dup_frac_e6": 1_000_000}
    assert out[5]["dup_frac_e6"] == 1_000_000
    assert out[1]["dup_frac_e6"] == 333_333  # floor(1/3*1e6+0.5)


# --------------------------------------------------------- canonical URLs
def test_canonicalize_urls():
    from schisma_ray.stages.urlfilter import canonicalize_urls

    urls = pa.array([
        "https://www.example.com/a/b?utm=1#frag",
        "HTTP://EXAMPLE.COM/a/b/",
        "https://www2.example.com/a/b#x?y",   # fragment hides the ?
        "ftp://example.com/a/b",
        "https://example.com/other",
    ], pa.string())
    got = canonicalize_urls(urls).to_pylist()
    assert got == ["example.com/a/b"] * 4 + ["example.com/other"]


def test_url_canonical_dups(ray_session):
    from schisma_ray.stages.urlfilter import url_canonical_dups

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "url": pa.array([
            "https://www.site.com/page",
            "http://site.com/page/",
            "https://site.com/page?track=9",
            "https://site.com/unique",
        ], pa.string()),
    })).repartition(2)
    out = url_canonical_dups(ds).to_pandas()
    assert sorted(out.doc_id) == [1, 2, 3]
    assert set(out.canon_url) == {"site.com/page"}
    assert set(out.group_size) == {3}


# --------------------------------------------------------- payload ratio
def test_payload_ratio_rule(ray_session):
    from schisma_ray.stages.crossfield import (
        cross_field_violations,
        payload_ratio_rule,
    )

    ds = rd.from_arrow(pa.table({
        "image_id": pa.array(["ok", "trunc", "nullb", "nullw"], pa.string()),
        "bytes": pa.array([b"x" * 3000, b"x" * 10, None, b"x" * 3000],
                          pa.binary()),
        "w": pa.array([20, 20, 20, None], pa.int32()),
        "h": pa.array([20, 20, 20, 20], pa.int32()),
    }))
    out = cross_field_violations(ds, [payload_ratio_rule()]).to_pandas()
    assert list(out.row_ref) == ["trunc"]
    # 10 * 1e6 // 400 = 25000
    assert list(out.received) == ["25000"]
    assert list(out.path) == ["bytes"]


# ----------------------------------------------------------- html extract
def test_extract_text_rules():
    from schisma_ray.stages.html import extract_text

    html = pa.array([
        '<html><head><title>T</title><style>a{x}</style>'
        '<script>if(1){go()}</script></head><body>'
        '<!-- c --><div class="nav"><a href="/">home</a></div>'
        '<h1>Hello</h1> <p>a &amp; b &lt;tag&gt; &quot;q&quot; &#39;s&#39;'
        ' &nbsp;end</p><div class="footer">foot</div></body></html>',
        "plain text, no markup",
        "<p>unclosed paragraph",
    ], pa.string())
    got = extract_text(html).to_pylist()
    assert got[0] == 'Hello a & b <tag> "q" \'s\' end'
    assert got[1] == "plain text, no markup"
    assert got[2] == "unclosed paragraph"


def test_extract_text_script_content_removed():
    from schisma_ray.stages.html import extract_text

    got = extract_text(pa.array(
        ["<body>keep <script>var secret = 1;</script>this</body>"],
        pa.string())).to_pylist()
    assert got == ["keep this"]


# ---------------------------------------------------- catalog composites
def test_fmt_area_rollup_total_row(ray_session):
    from schisma_ray.pipelines.catalog import q_fmt_area_rollup

    out = q_fmt_area_rollup("/root/testdata/sf0.001").to_pandas()
    total = out[out.fmt.isna()]
    per = out[out.fmt.notna()]
    assert len(total) == 1
    assert total.n_rows.iloc[0] == per.n_rows.sum()
    assert total.sum_area.iloc[0] == per.sum_area.sum()


def test_image_clean_ids_complement(ray_session):
    from schisma_ray.pipelines.catalog import (
        q_image_clean_ids,
        q_image_validate_full,
    )

    sf = "/root/testdata/sf0.001"
    clean = set(q_image_clean_ids(sf).to_pandas().image_id)
    vio = set(q_image_validate_full(sf).to_pandas().row_ref)
    assert clean.isdisjoint(vio)
    from schisma_ray.sources import image_table
    n = image_table.rows_for_sf(sf)
    assert len(clean) + len(vio) == n


def test_image_caption_conform_repairs(ray_session):
    from schisma_ray.pipelines.catalog import q_image_caption_conform

    out = q_image_caption_conform("/root/testdata/sf0.001").to_pandas()
    caps = out.caption
    assert caps.notna().all()
    assert (caps.str.len() <= 256).all()
    # seeded long captions (i % 137 == 23) were truncated to exactly 256
    assert (caps.str.len() == 256).any()


# ------------------------------------------------------------ brightness
def test_brightness_stats_exact(ray_session):
    from schisma_ray.sources import codec
    from schisma_ray.stages.multimodal import BrightnessStats

    rng = np.random.default_rng(5)
    imgs = [rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            for h, w in [(8, 8), (12, 20), (9, 16)]]
    blobs = [codec.encode(p, "png") for p in imgs]
    blobs.append(codec.encode(imgs[0], "png")[:10])  # truncated -> dropped
    ds = rd.from_arrow(pa.table({
        "image_id": pa.array(["a", "b", "c", "bad"], pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
    }))
    out = ds.map_batches(BrightnessStats(), batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    assert list(out.image_id) == ["a", "b", "c"]
    for row, blob in zip(out.itertuples(), blobs):
        pixels, _ = codec.decode(blob)
        n = pixels.shape[0] * pixels.shape[1]
        assert row.n_px == n
        for ci, name in enumerate("rgb"):
            s = int(pixels[:, :, ci].astype(np.int64).sum())
            assert getattr(row, f"sum_{name}") == s
            assert getattr(row, f"mean_{name}_e6") == s * 1_000_000 // n


def test_brightness_fixture_parity(ray_session):
    """Distributed stage == generator-side bookkeeping at sf0.001."""
    import pyarrow.parquet as pq

    from schisma_ray.pipelines.catalog import q_image_brightness
    from schisma_ray.sources.brightness_fixture import brightness_expected

    sf = "/root/testdata/sf0.001"
    got = q_image_brightness(sf).to_pandas().sort_values(
        "image_id").reset_index(drop=True)
    exp = pq.read_table(brightness_expected(sf)).to_pandas().sort_values(
        "image_id").reset_index(drop=True)
    assert got.equals(exp[got.columns.tolist()])


# ------------------------------------------------------ verdict composites
def test_violation_samples_k_per_check(ray_session):
    from schisma_ray.pipelines.catalog import (
        q_image_validate_full,
        q_violation_samples,
    )

    sf = "/root/testdata/sf0.001"
    out = q_violation_samples(sf).to_pandas()
    sizes = out.groupby(["path", "code"]).size()
    assert (sizes <= 5).all()
    vio = q_image_validate_full(sf).to_pandas()
    full = vio.groupby(["path", "code"]).size()
    for key, n in full.items():
        assert sizes.get(key, 0) == min(5, n)
    # deterministic: the sample is the md5-smallest refs of each check
    bucket = vio.assign(
        u=[_md5_bucket(r, 1 << 62) for r in vio.row_ref])
    for (p, c), grp in bucket.groupby(["path", "code"]):
        want = set(grp.sort_values(["u", "row_ref"]).head(5).row_ref)
        got = set(out[(out.path == p) & (out.code == c)].row_ref)
        assert got == want


def test_run_verdict_consistent(ray_session):
    from schisma_ray.pipelines.catalog import q_run_verdict

    row = q_run_verdict("/root/testdata/sf0.001").iloc[0]
    assert row.rate_ok == (row.rate_e6 <= 100_000)
    assert row.drift_ok == (row.drift_statistic <= 9.21)
    assert row.verdict == (row.rate_ok and row.drift_ok)
    assert row.n_rows == 1000
