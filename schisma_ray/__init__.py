"""schisma_ray — a Ray-Data-native schema + constraint validation engine.

From-scratch reimplementation of the semantics of kettek/schisma
(/root/reference, MPL-2.0, 745 LoC of single-threaded JS) as a
distributed Ray Data pipeline engine:

* :mod:`schisma_ray.schema` — pure-Python row kernel pinning the
  reference's validate/conform/create semantics (the semantic oracle).
* :mod:`schisma_ray.stages` — vectorized Arrow batch stages
  (map_batches planners), wide checks (uniqueness, referential,
  stats/drift aggregates) and decode stages (image bytes).
* :mod:`schisma_ray.sources` — deterministic synthetic image+caption
  table generator and readers.
* :mod:`schisma_ray.pipelines` — end-to-end validation pipelines.
* :mod:`schisma_ray.state` — per-partition checkpoint/lineage records.

Nothing in this package calls ``ray.init``/``ray.shutdown``; sessions
are owned by the caller (bench.py, CLI, test fixtures).
"""

__version__ = "0.1.0"

from .schema import SchemaNode, schema  # noqa: F401
