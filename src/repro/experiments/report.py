"""Plain-text reporting helpers shared by the experiment modules.

Every experiment returns structured data *and* can render the rows/series
the paper's table or figure reports, as aligned ASCII — the reproduction's
equivalent of regenerating the figure.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def format_value(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[format_value(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(x: np.ndarray, y: np.ndarray, x_name: str, y_name: str,
                  title: str | None = None, max_rows: int = 40) -> str:
    """Render an (x, y) series as a two-column table, thinning long series."""
    x = np.asarray(x)
    y = np.asarray(y)
    idx = np.arange(x.size)
    if x.size > max_rows:
        idx = np.unique(np.linspace(0, x.size - 1, max_rows).astype(int))
    rows = [{x_name: float(x[i]), y_name: float(y[i])} for i in idx]
    return format_table(rows, [x_name, y_name], title=title)


def ascii_loglog(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    width: int = 64,
    height: int = 18,
) -> str:
    """Render one or more (x, y) series as a log-log ASCII scatter.

    The workhorse for variance-time plots in examples: each series gets the
    first letter of its label as its glyph; later series overwrite earlier
    ones where they collide.
    """
    x = np.asarray(x, dtype=float)
    if not series:
        return "(no series)"
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    pos_x = x[x > 0]
    pos_y = all_y[all_y > 0]
    if pos_x.size < 2 or pos_y.size < 2:
        raise ValueError("log-log plot needs positive x and y values")
    lx0, lx1 = np.log10(pos_x.min()), np.log10(pos_x.max())
    ly0, ly1 = np.log10(pos_y.min()), np.log10(pos_y.max())
    if lx1 - lx0 < 1e-12 or ly1 - ly0 < 1e-12:
        raise ValueError("degenerate axis range")
    grid = [[" "] * width for _ in range(height)]
    used: dict[str, str] = {}
    for label in series:
        glyph = next(
            (c for c in (label or "?") if c not in used.values()), "?"
        )
        used[label] = glyph
    for label, y in series.items():
        glyph = used[label]
        yv = np.asarray(y, dtype=float)
        for xi, yi in zip(x, yv):
            if xi <= 0 or yi <= 0:
                continue
            col = int((np.log10(xi) - lx0) / (lx1 - lx0) * (width - 1))
            row = int((ly1 - np.log10(yi)) / (ly1 - ly0) * (height - 1))
            grid[row][col] = glyph
    lines = ["".join(r) for r in grid]
    legend = "  ".join(f"{used[label]}={label}" for label in series)
    axis = (f"x: 10^{lx0:.1f}..10^{lx1:.1f}   "
            f"y: 10^{ly0:.1f}..10^{ly1:.1f}   {legend}")
    return "\n".join(lines + [axis])


def ascii_sparkline(values: np.ndarray, width: int = 60) -> str:
    """One-line bar-glyph rendering of a nonnegative series."""
    glyphs = " .:-=+*#%@"
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return ""
    if v.size > width:
        chunks = np.array_split(v, width)
        v = np.array([c.mean() for c in chunks])
    top = v.max()
    if top <= 0:
        return " " * v.size
    scaled = np.clip((v / top) * (len(glyphs) - 1), 0, len(glyphs) - 1)
    return "".join(glyphs[int(round(s))] for s in scaled)
