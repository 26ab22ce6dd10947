"""Materialization barrier for iterative DataFrame algorithms.

``Dataset.localCheckpoint`` truncates *lineage* but propagates the
original plan's statistics (``originStats``) through the checkpoint, so
in a round-based algorithm the size-in-bytes BigInts compound
multiplicatively: the bit-count doubles every round and after a handful
of rounds Catalyst's join-selection grinds through million-bit BigInt
multiplications (observed: 80s of pure driver CPU per query by round 2).

A parquet round-trip is a true barrier: the re-read plan's leaf
statistics are the real file sizes, constant and small. This is also
what the paper's production setting does — each MapReduce round of
Flume materializes its output — so the barrier is faithful to the
system being reproduced, not just a workaround.

Barriers go under ``$REPRO_CKPT_DIR/repro-ckpt-<applicationId>`` (the
system temp directory by default). Inside a :func:`checkpoint_scope` they
go to a directory of their own, which is removed when the scope exits.
"""
from __future__ import annotations

import itertools
import os
import shutil
import tempfile
from contextlib import contextmanager

from pyspark.sql import DataFrame, SparkSession

_counter = itertools.count()
_scopes: list[str] = []


def _ckpt_root(spark: SparkSession) -> str:
    base = os.environ.get("REPRO_CKPT_DIR", tempfile.gettempdir())
    return os.path.join(base, f"repro-ckpt-{spark.sparkContext.applicationId}")


@contextmanager
def checkpoint_scope(spark: SparkSession):
    """Write the barriers of the enclosed code to a fresh directory and
    delete it on exit. DataFrames read back from those barriers are
    unusable afterwards, so collect what must outlive the scope."""
    root = _ckpt_root(spark)
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="scope-", dir=root)
    _scopes.append(path)
    try:
        yield path
    finally:
        _scopes.remove(path)
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(root)  # only if no other barrier lives there
        except OSError:
            pass


def materialize(df: DataFrame, tag: str = "step") -> DataFrame:
    """Write ``df`` to parquet and read it back.

    Returns a DataFrame whose plan is a plain parquet scan: lineage cut,
    statistics reset to actual file sizes. Use at every round boundary of
    an iterative algorithm (TeraHAC, SCC, long CC runs).
    """
    spark = df.sparkSession
    base = _scopes[-1] if _scopes else _ckpt_root(spark)
    path = os.path.join(base, f"{tag}-{next(_counter)}")
    df.write.mode("overwrite").parquet(path)
    return spark.read.parquet(path)
