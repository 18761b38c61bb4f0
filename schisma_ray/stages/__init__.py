"""Batch stages: vectorized validators/conformers and wide checks."""

from .table_schema import (  # noqa: F401
    Check,
    ColumnSpec,
    TableSchema,
    in_set,
    not_empty,
    range_check,
    regex_match,
    str_len_between,
)
from .validate import TableValidator  # noqa: F401
from .conform import TableConformer  # noqa: F401
