"""Bundled LSAT corpus: 1000 test takers x 5 problems, fully observed.

This is the classic Law School Admission Test section data of Bock &
Lieberman (1970), distributed as 32 response patterns with frequencies; the
expansion below assigns user ids in pattern-table order.  Column totals of
correct answers are (924, 709, 553, 763, 870), so problem 3 (0-based item 2)
is the hardest at first sight.

The matrix stores 1 = answered correctly.  Estimation uses the negative
response ``X = 1 - correct``, so that larger estimates mean harder problems.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from . import _rng
from .model import ResponseData

__all__ = [
    "LSAT_TOTALS",
    "lsat_correct_matrix",
    "load_lsat",
    "export_csv",
    "subsample",
]

# (pattern over problems 1..5, count); patterns in binary ascending order.
_PATTERNS = (
    ("00000", 3), ("00001", 6), ("00010", 2), ("00011", 11),
    ("00100", 1), ("00101", 1), ("00110", 3), ("00111", 4),
    ("01000", 1), ("01001", 8), ("01010", 0), ("01011", 16),
    ("01100", 0), ("01101", 3), ("01110", 2), ("01111", 15),
    ("10000", 10), ("10001", 29), ("10010", 14), ("10011", 81),
    ("10100", 3), ("10101", 28), ("10110", 15), ("10111", 80),
    ("11000", 16), ("11001", 56), ("11010", 21), ("11011", 173),
    ("11100", 11), ("11101", 61), ("11110", 28), ("11111", 298),
)

LSAT_TOTALS = (924, 709, 553, 763, 870)

N_USERS = 1000
N_ITEMS = 5

# sha256 of the canonical long-form CSV written by `export_csv`
_CHECKSUM = "260e02802bc287a3ce4b696faea040347f79182189d49132ca4c8e57660c6158"


def lsat_correct_matrix() -> np.ndarray:
    """The 1000 x 5 matrix of correctness indicators, checksum-verified.

    The totals and the checksum are checked once per process for each
    expected checksum; every call returns a fresh copy.
    """
    return _verified_matrix(_CHECKSUM).copy()


@functools.cache
def _verified_matrix(checksum: str) -> np.ndarray:
    """The corpus matrix, read-only, after checking its totals and that its
    canonical CSV hashes to ``checksum``; an error is raised, not cached."""
    rows = []
    for pattern, count in _PATTERNS:
        row = [int(c) for c in pattern]
        rows.extend([row] * count)
    mat = np.asarray(rows, dtype=np.int64)
    if mat.shape != (N_USERS, N_ITEMS):
        raise RuntimeError(f"corpus expansion produced shape {mat.shape}")
    if tuple(mat.sum(axis=0).tolist()) != LSAT_TOTALS:
        raise RuntimeError("corpus column totals do not match the known values")
    digest = hashlib.sha256(_csv_bytes(mat)).hexdigest()
    if digest != checksum:
        raise RuntimeError(f"corpus checksum mismatch: {digest}")
    mat.setflags(write=False)
    return mat


def _csv_bytes(mat: np.ndarray) -> bytes:
    lines = ["user_id,item_id,correct"]
    # Python ints format several times faster than numpy scalars
    for t, row in enumerate(mat.tolist()):
        lines.extend(f"{t},{i},{x}" for i, x in enumerate(row))
    return ("\n".join(lines) + "\n").encode()


def load_lsat() -> ResponseData:
    """Corpus as `ResponseData` in the model's negative-response convention."""
    mat = lsat_correct_matrix()
    users, items = np.divmod(np.arange(N_USERS * N_ITEMS, dtype=np.int64), N_ITEMS)
    return ResponseData(N_USERS, N_ITEMS, users, items, 1 - mat.ravel())


def export_csv(path) -> None:
    """Write the corpus in long form with header ``user_id,item_id,correct``."""
    with open(path, "wb") as fh:
        fh.write(_csv_bytes(lsat_correct_matrix()))


def subsample(n_users: int, m_items: int, seed: int, trial: int = 0) -> ResponseData:
    """Random sub-corpus: ``n_users`` people, each keeping ``m_items`` of
    their five responses, drawn uniformly without replacement.

    Item ids keep their original meaning (0..4); user ids are renumbered
    0..n_users-1.  Deterministic in ``(seed, trial)``.
    """
    if not 1 <= n_users <= N_USERS:
        raise ValueError(f"n_users must be in [1, {N_USERS}]")
    if not 1 <= m_items <= N_ITEMS:
        raise ValueError(f"m_items must be in [1, {N_ITEMS}]")
    mat = lsat_correct_matrix()
    rng = _rng.substream(seed, _rng.SUBSAMPLE, trial)
    people = rng.choice(N_USERS, size=n_users, replace=False)
    users, items = _rng.row_subsets(rng, n_users, N_ITEMS, m_items)
    correct = mat[people[users], items]
    return ResponseData(n_users, N_ITEMS, users, items, 1 - correct)
