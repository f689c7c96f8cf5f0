"""Turn aligned rasters into tabular training data.

A sample row pairs the eleven predictor values at a cell with the target
elevation error there, plus an optional integer landscape label. Only cells
where every feature and the target are valid are eligible.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GeometryMismatch, GridRows, distinct_values
from .terrain import FeatureStack, row_blocks

__all__ = ["SampleTable", "EmptyTableError", "StrataLabelError", "extract_samples",
           "split_table"]

#: Stratum value for rows without a landscape label.
NO_STRATUM = -1


class EmptyTableError(ValueError):
    """No valid cells were available for sampling."""


class StrataLabelError(ValueError):
    """A strata grid holds a label that is not an integer; names the cell."""


#: What every data cell of a strata grid must hold, checked in this order.
_LABEL_RULES = ("integer labels", "non-negative labels")


def label_faults(values: np.ndarray, nodata: float, first_row: int, faults=None) -> list:
    """Per rule of ``_LABEL_RULES``, the first cell of a strata grid that
    breaks it, as ``(row, col, value)``, or None: ``faults`` as found in the
    rows above (None for none yet), then in ``values``, the grid's rows
    ``first_row`` onward."""
    ok = values != nodata
    rounded = np.rint(values)
    found = []
    for bad in (ok & (np.abs(values - rounded) > 1e-9), ok & (rounded < 0)):
        cell = np.argwhere(bad)[:1].tolist()
        found.append((first_row + cell[0][0], cell[0][1], float(values[cell[0][0], cell[0][1]]))
                     if cell else None)
    return found if faults is None else [old or new for old, new in zip(faults, found)]


def check_labels(faults) -> None:
    """Raise the fault :func:`label_faults` found for the first rule broken.

    Raises:
        StrataLabelError: names the cell and the value it holds.
    """
    for fault, rule in zip(faults, _LABEL_RULES):
        if fault is not None:
            i, j, value = fault
            raise StrataLabelError(f"strata grid must hold {rule}; cell ({i}, {j}) "
                                   f"holds {value!r}")


def label_values(values: np.ndarray, nodata: float) -> np.ndarray:
    """Strata values as int64 labels, ``NO_STRATUM`` at ``nodata``; a label
    is checked by :func:`label_faults`: a data cell must lie within 1e-9 of
    an integer that is not negative, or it would collide with
    ``NO_STRATUM``."""
    return np.where(values != nodata, np.rint(values), NO_STRATUM).astype(np.int64)


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Rows of (cell, feature vector, target, stratum).

    ``cells`` is (n, 2) int64 of (row, col); ``features`` is (n, k) float64;
    ``targets`` is (n,) float64; ``strata`` is (n,) int64 with -1 where no
    label applies, or None when no strata raster was supplied.
    """

    feature_names: tuple[str, ...]
    cells: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    strata: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.int64).reshape(-1, 2))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.float64).ravel())
        if self.strata is not None:
            object.__setattr__(self, "strata", np.asarray(self.strata, dtype=np.int64).ravel())
        n = len(self.targets)
        if self.features.shape != (n, len(self.feature_names)):
            raise ValueError(
                f"features shape {self.features.shape} does not match "
                f"{n} rows x {len(self.feature_names)} names"
            )
        if self.cells.shape[0] != n or (self.strata is not None and len(self.strata) != n):
            raise ValueError("cells, targets and strata must have the same length")
        if n and not np.isfinite(self.features).all():
            raise ValueError("feature values must all be finite")
        if n and not np.isfinite(self.targets).all():
            raise ValueError("target values must all be finite")

    def __len__(self) -> int:
        return len(self.targets)

    def subset(self, indices) -> "SampleTable":
        idx = np.asarray(indices, dtype=np.int64)
        return SampleTable(
            self.feature_names,
            self.cells[idx],
            self.features[idx],
            self.targets[idx],
            None if self.strata is None else self.strata[idx],
        )

    def select_features(self, names) -> "SampleTable":
        """Same rows, restricted to the named feature columns (in that order)."""
        cols = [self.feature_names.index(n) for n in names]
        return SampleTable(tuple(names), self.cells, self.features[:, cols],
                           self.targets, self.strata)

    def to_csv(self, out=None) -> str | None:
        """CSV with header ``row,col,stratum,<feature names...>,target``,
        written a row at a time into the text stream ``out``; with no
        stream, the text is returned."""
        buf = io.StringIO() if out is None else out
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", "col", "stratum", *self.feature_names, "target"])
        for i in range(len(self)):
            stratum = "" if self.strata is None or self.strata[i] == NO_STRATUM \
                else str(int(self.strata[i]))
            writer.writerow([
                int(self.cells[i, 0]), int(self.cells[i, 1]), stratum,
                *(repr(float(v)) for v in self.features[i]),
                repr(float(self.targets[i])),
            ])
        return buf.getvalue() if out is None else None


def extract_samples(
    stack: FeatureStack,
    target: GridRows,
    strata: GridRows | None = None,
    rate: float = 1.0,
    seed: int = 0,
) -> SampleTable:
    """Sample cells where every feature and the target are valid.

    Sampling is uniform without replacement at ``rate`` (rate 1.0 keeps
    every eligible cell), deterministic for a fixed seed. Row order follows
    row-major cell order after selection.

    Every grid is read twice, a block of ``terrain.BLOCK_ROWS`` rows at a
    time: once to count each block's eligible cells, which is all the draw
    needs, and once to gather the drawn cells. Beyond the table, a block of
    every grid and the draw are held, never a whole grid.

    Raises:
        GeometryMismatch: target or strata not on the stack geometry.
        EmptyTableError: no eligible cells.
        StrataLabelError: a strata label :func:`label_faults` refuses.
    """
    if not (0 < rate <= 1):
        raise ValueError("rate must be in (0, 1]")
    geo = stack.geometry
    if not target.geometry.matches(geo):
        raise GeometryMismatch("target grid is not on the stack geometry")
    if strata is not None and not strata.geometry.matches(geo):
        raise GeometryMismatch("strata grid is not on the stack geometry")

    def eligible(r0, r1):
        """The block's rows of every layer and of the target, and its cells
        valid in the target and every layer."""
        layers, targets = stack.rows(r0, r1), target.rows(r0, r1)
        valid = targets != target.nodata
        for values, nodata in zip(layers, stack.nodata):
            valid &= values != nodata
        return layers, targets, valid

    blocks = row_blocks(geo.nrows)
    counts, faults = [], None
    for r0, r1 in blocks:
        counts.append(np.count_nonzero(eligible(r0, r1)[2]))
        if strata is not None:
            faults = label_faults(strata.rows(r0, r1), strata.nodata, r0, faults)
    total = sum(counts)
    if total == 0:
        raise EmptyTableError("no cell has all features and the target valid")
    if strata is not None:
        check_labels(faults)

    # drawing ordinals among the eligible cells draws the same cells as
    # drawing from their flat indices, without listing those
    count = max(1, int(np.floor(rate * total + 0.5)))
    drawn = None
    if count < total:
        rng = np.random.default_rng(seed)
        drawn = np.sort(rng.choice(total, size=count, replace=False))

    ncols = geo.ncols
    cells = np.empty((count, 2), dtype=np.int64)
    features = np.empty((count, len(stack.names)))
    targets = np.empty(count)
    labels = None if strata is None else np.empty(count, dtype=np.int64)
    done = seen = 0
    for (r0, r1), n in zip(blocks, counts):
        lo, hi = (0, n) if drawn is None else np.searchsorted(drawn, (seen, seen + n))
        if hi > lo:
            layers, block, valid = eligible(r0, r1)
            picked = np.flatnonzero(valid)
            if drawn is not None:
                picked = picked[drawn[lo:hi] - seen]
            rows = slice(done, done + len(picked))
            done += len(picked)
            cells[rows, 0], cells[rows, 1] = np.divmod(picked, ncols)
            cells[rows, 0] += r0
            for j, values in enumerate(layers):
                features[rows, j] = values.reshape(-1)[picked]
            targets[rows] = block.reshape(-1)[picked]
            if labels is not None:
                labels[rows] = label_values(strata.rows(r0, r1).reshape(-1)[picked],
                                            strata.nodata)
            del layers, block, valid  # before the next block is read
        seen += n

    return SampleTable(stack.names, cells, features, targets, labels)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_table(
    table: SampleTable,
    train_fraction: float = 0.8,
    seed: int = 42,
    stratified: bool = False,
) -> tuple[SampleTable, SampleTable]:
    """Disjoint, exhaustive train/test partition.

    Unstratified, the train side holds round(n * train_fraction) rows.
    Stratified, per-stratum counts are assigned by largest remainder so
    each stratum stays within one row of its proportional share; strata
    with fewer than two rows go wholly to train with a warning.
    """
    if not (0 < train_fraction < 1):
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(table)
    if n == 0:
        raise EmptyTableError("cannot split an empty table")
    rng = np.random.default_rng(seed)

    if not stratified or table.strata is None:
        if stratified and table.strata is None:
            warnings.warn("stratified split requested but table carries no strata; "
                          "falling back to a plain split")
        order = rng.permutation(n)
        n_train = _round_half_up(n * train_fraction)
        train_idx = np.sort(order[:n_train])
        test_idx = np.sort(order[n_train:])
        return table.subset(train_idx), table.subset(test_idx)

    labels = distinct_values(table.strata)
    groups = {int(lab): np.flatnonzero(table.strata == lab) for lab in labels}
    eligible = [lab for lab, idx in groups.items() if len(idx) >= 2]
    forced = [lab for lab, idx in groups.items() if len(idx) < 2]
    for lab in forced:
        warnings.warn(f"stratum {lab} has fewer than 2 rows; assigning it to the train side")

    n_eligible = sum(len(groups[lab]) for lab in eligible)
    target_total = _round_half_up(n_eligible * train_fraction)
    ideals = {lab: len(groups[lab]) * train_fraction for lab in eligible}
    counts = {lab: int(np.floor(ideals[lab])) for lab in eligible}
    leftover = target_total - sum(counts.values())
    by_remainder = sorted(eligible, key=lambda lab: (-(ideals[lab] - counts[lab]), lab))
    for lab in by_remainder[:max(leftover, 0)]:
        counts[lab] += 1

    train_parts, test_parts = [], []
    for lab in sorted(groups):
        idx = groups[lab]
        if lab in forced:
            train_parts.append(idx)
            continue
        order = rng.permutation(len(idx))
        k = min(counts[lab], len(idx))
        train_parts.append(idx[order[:k]])
        test_parts.append(idx[order[k:]])

    train_idx = np.sort(np.concatenate(train_parts)) if train_parts else np.array([], dtype=np.int64)
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    return table.subset(train_idx), table.subset(test_idx)
