"""Built-in data: the eye/hair colour survey table and the shipped stop-word list."""

from __future__ import annotations

from importlib import resources

from .tables import ContingencyTable

# Caithness eye-colour x hair-colour survey (n = 5387).
FISHER_ROW_LABELS = ("blue", "light", "medium", "dark")
FISHER_COL_LABELS = ("fair", "red", "medium", "dark", "black")
FISHER_COUNTS = (
    (326, 38, 241, 110, 3),
    (688, 116, 584, 188, 4),
    (343, 84, 909, 412, 26),
    (98, 48, 403, 681, 85),
)


def fisher_table() -> ContingencyTable:
    """The eye-colour (rows) by hair-colour (columns) table."""
    return ContingencyTable(FISHER_COUNTS, FISHER_ROW_LABELS, FISHER_COL_LABELS)


def bundled_stopwords_path() -> str:
    """Filesystem path of the shipped English stop-word list."""
    return str(resources.files("cakit").joinpath("data", "stopwords_en.txt"))
