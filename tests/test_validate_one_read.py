"""``validate_images`` runs every check family in one read task.

Its rows must equal the check families run one by one (the schema check
over the light columns, the decode check over the decode columns,
``uniqueness_violations``, ``referential_violations``) on edge-case
tables, whatever ``fused`` says; and its plan must read the image table
once in full, with no union.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from schisma_ray.sources import image_table

#: the columns the decode check reads
DECODE_COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]

CASES = ["seeded", "no_dup_keys", "null_phash_shard", "null_image_id",
         "empty_reference"]


@pytest.fixture(scope="module")
def base(ray_session):
    return image_table.generate(1500)


def _rows(ds):
    """Every violation row of ``ds`` as a tuple, sorted (a multiset)."""
    out = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        out += [tuple(r.values()) for r in b.to_pylist()]
    return sorted(out, key=repr)


def _case(base, out, case):
    """The 1,500-row table, edited for ``case`` and written under ``out``."""
    if case == "seeded":
        return base
    t = pq.read_table(base / "images")
    ref = pq.read_table(base / "reference_ids.parquet")
    phash = t.schema.get_field_index("phash")
    shards = [t]
    if case == "no_dup_keys":
        shards = [t.set_column(phash, "phash", pa.array(range(t.num_rows), pa.int64()))]
    elif case == "null_phash_shard":
        tail = t.slice(1000)
        shards = [t.slice(0, 1000),
                  tail.set_column(phash, "phash", pa.nulls(tail.num_rows, pa.int64()))]
    elif case == "null_image_id":
        ids = t["image_id"].to_pylist()
        ids[5] = ids[97] = None  # row 97 duplicates row 96's phash
        shards = [t.set_column(0, "image_id", pa.array(ids, pa.string()))]
    elif case == "empty_reference":
        ref = ref.slice(0, 0)
    (out / "images").mkdir(parents=True)
    for k, shard in enumerate(shards):
        pq.write_table(shard, out / "images" / f"part-{k:05d}.parquet")
    pq.write_table(ref, out / "reference_ids.parquet")
    return out


def _one_by_one(d):
    import ray.data as rd

    from schisma_ray.pipelines.validate_pipeline import (LIGHT_COLUMNS,
                                                         image_table_schema,
                                                         read_images)
    from schisma_ray.stages.decoder import DecodeValidator
    from schisma_ray.stages.referential import referential_violations
    from schisma_ray.stages.uniqueness import uniqueness_violations
    from schisma_ray.stages.validate import TableValidator

    def run(ds, fn):
        return _rows(ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True))

    light = TableValidator(image_table_schema().subset(LIGHT_COLUMNS))
    rows = (run(read_images(d, LIGHT_COLUMNS), light)
            + run(read_images(d, DECODE_COLUMNS), DecodeValidator()))
    rows += _rows(uniqueness_violations(read_images(d, ["image_id", "phash"]),
                                        "phash", id_column="image_id"))
    rows += _rows(referential_violations(
        read_images(d, ["image_id"]), "image_id",
        rd.read_parquet(str(d / "reference_ids.parquet"))))
    return sorted(rows, key=repr)


@pytest.mark.parametrize("case", CASES)
def test_one_read_matches_families_one_by_one(base, tmp_path, case):
    from schisma_ray.pipelines import validate_images

    d = _case(base, tmp_path, case)
    reference = _one_by_one(d)
    got = _rows(validate_images(d))
    assert got == reference, case

    t = pq.read_table(d / "images")
    uniq = [r for r in got if r[6] == "uniqueness"]
    orphans = [r for r in got if r[6] == "referential"]
    if case == "seeded":
        exp = pq.read_table(d / "expected_violations.parquet")
        assert len(got) == exp.num_rows
    elif case == "no_dup_keys":
        assert uniq == []
    elif case == "null_phash_shard":  # a null key is never a duplicate
        tail = set(t.slice(1000)["image_id"].to_pylist())
        assert uniq and not any(r[0] in tail for r in uniq)
    elif case == "null_image_id":  # a null id is no orphan, still a duplicate
        assert None not in [r[0] for r in orphans]
        assert None in [r[0] for r in uniq]
    elif case == "empty_reference":  # every non-null id is an orphan
        assert len(orphans) == t.num_rows - t["image_id"].null_count


def test_validate_images_reads_the_table_once(base, monkeypatch):
    """One full read of the image table, at most one narrow key read,
    and no ``Union`` in the plan."""
    from schisma_ray.pipelines import validate_pipeline as vp

    reads = []
    real = vp.read_images

    def spy(table_dir, columns=None):
        reads.append(columns)
        return real(table_dir, columns)

    monkeypatch.setattr(vp, "read_images", spy)
    ds = vp.validate_images(base)

    def walk(op):
        yield type(op).__name__
        for dep in op.input_dependencies:
            yield from walk(dep)

    ops = list(walk(ds._logical_plan.dag))
    assert "Union" not in ops
    assert sum(op.startswith("Read") for op in ops) == 1
    assert _rows(ds)  # the plan executes
    assert reads.count(None) == 1
    narrow = [c for c in reads if c is not None]
    assert len(narrow) <= 1 and all("bytes" not in c for c in narrow)
