"""Deterministic SVG rendering of grid heatmaps, region maps, and scatters.

Text-only output, no imaging dependency: identical inputs produce identical
bytes, so the figures can be golden-diffed. Heatmaps use a fixed 16-step
ramp over log10 of the values, region maps an 8-color palette cycling by
region id; masked cells are hatched.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridCell, HyperGrid

__all__ = ["heatmap_svg", "labels_svg", "scatter_svg", "format_log_tick"]

HEAT_RAMP = (
    "#440154", "#46085c", "#471669", "#472a79", "#433d84", "#3d4f8a",
    "#355f8d", "#2e6f8e", "#287e8e", "#228d8d", "#1f9c89", "#22ab81",
    "#35b779", "#58c765", "#89d548", "#fde725",
)
REGION_PALETTE = (
    "#4c78a8", "#f58518", "#54a24b", "#e45756",
    "#72b7b2", "#eeca3b", "#b279a2", "#9d755d",
)

CELL = 40  # px per grid cell
MARGIN_LEFT = 86
MARGIN_TOP = 34
MARGIN_BOTTOM = 56
MARGIN_RIGHT = 24


def format_log_tick(value: float) -> str:
    """Compact scientific label: 5e-05 renders as ``5e-5``, 1.0 as ``1e0``."""
    exp = math.floor(math.log10(value))
    mantissa = value / 10**exp
    mantissa = round(mantissa, 6)
    if mantissa == int(mantissa):
        mantissa_s = str(int(mantissa))
    else:
        mantissa_s = f"{mantissa:g}"
    return f"{mantissa_s}e{exp}"


def _f(x: float) -> str:
    return f"{x:.2f}"


def _svg_open(width: float, height: float, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        '<defs><pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse">'
        '<path d="M0,6 L6,0" stroke="#888888" stroke-width="1"/></pattern></defs>',
        f'<rect width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
        f'<text x="{_f(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]


def _axes(parts: list[str], grid: HyperGrid, n_rows: int, n_cols: int) -> None:
    height = MARGIN_TOP + n_rows * CELL
    for c, lr in enumerate(grid.lr_values):
        x = MARGIN_LEFT + (c + 0.5) * CELL
        parts.append(
            f'<text x="{_f(x)}" y="{_f(height + 16)}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{format_log_tick(lr)}</text>'
        )
    for r, wd in enumerate(grid.wd_values):
        y = MARGIN_TOP + (r + 0.5) * CELL + 3
        parts.append(
            f'<text x="{_f(MARGIN_LEFT - 6)}" y="{_f(y)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{format_log_tick(wd)}</text>'
        )
    parts.append(
        f'<text x="{_f(MARGIN_LEFT + n_cols * CELL / 2)}" y="{_f(height + 38)}" '
        f'text-anchor="middle" font-family="monospace" font-size="11">learning rate</text>'
    )
    y_mid = MARGIN_TOP + n_rows * CELL / 2
    parts.append(
        f'<text x="16" y="{_f(y_mid)}" text-anchor="middle" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 16 {_f(y_mid)})">weight decay</text>'
    )


def _cell_rect(r: int, c: int, fill: str, extra: str = "") -> str:
    x = MARGIN_LEFT + c * CELL
    y = MARGIN_TOP + r * CELL
    return (
        f'<rect x="{_f(x)}" y="{_f(y)}" width="{CELL}" height="{CELL}" '
        f'fill="{fill}" stroke="#ffffff" stroke-width="1"{extra}/>'
    )


def _outline(cell: GridCell) -> str:
    x = MARGIN_LEFT + cell.col * CELL
    y = MARGIN_TOP + cell.row * CELL
    return (
        f'<rect x="{_f(x + 1.5)}" y="{_f(y + 1.5)}" width="{CELL - 3}" height="{CELL - 3}" '
        f'fill="none" stroke="#ff2a2a" stroke-width="3"/>'
    )


def _grid_svg(shape: tuple[int, int], fill, grid: HyperGrid, title: str, selected: GridCell | None) -> str:
    """The grid figure: one rect per cell filled with ``fill(r, c)``, the selected cell's
    outline, and the axes."""
    n_rows, n_cols = shape
    width = MARGIN_LEFT + n_cols * CELL + MARGIN_RIGHT
    height = MARGIN_TOP + n_rows * CELL + MARGIN_BOTTOM
    parts = _svg_open(width, height, title)
    parts += [_cell_rect(r, c, fill(r, c)) for r in range(n_rows) for c in range(n_cols)]
    if selected is not None:
        parts.append(_outline(selected))
    _axes(parts, grid, n_rows, n_cols)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(
    values: np.ndarray,
    grid: HyperGrid,
    title: str,
    selected: GridCell | None = None,
) -> str:
    """Grid heatmap on a log10 color scale; cells that are not finite and positive are
    hatched; optional selected-cell outline."""
    positive = np.isfinite(values) & (values > 0)
    shade = np.log10(np.where(positive, values, 1.0))
    lo = float(np.min(shade[positive])) if np.any(positive) else 0.0
    hi = float(np.max(shade[positive])) if np.any(positive) else 1.0
    span = hi - lo

    def fill(r: int, c: int) -> str:
        if not positive[r, c]:
            return "url(#hatch)"
        t = 0.5 if span == 0 else (shade[r, c] - lo) / span
        return HEAT_RAMP[min(15, int(t * 16))]

    return _grid_svg(values.shape, fill, grid, title, selected)


def labels_svg(
    labels: np.ndarray,
    grid: HyperGrid,
    title: str,
    selected: GridCell | None = None,
) -> str:
    """Region map: one palette color per region id, masked (-1) cells hatched."""

    def fill(r: int, c: int) -> str:
        region = int(labels[r, c])
        return "url(#hatch)" if region < 0 else REGION_PALETTE[region % len(REGION_PALETTE)]

    return _grid_svg(labels.shape, fill, grid, title, selected)


def scatter_svg(
    norms: list[float],
    metrics: list[float],
    title: str,
    highlight: int | None = None,
) -> str:
    """Parameter norm vs test accuracy scatter for the selected region's cells."""
    if len(norms) != len(metrics):
        raise ValueError("norms and metrics must pair up")
    width, height = 420.0, 320.0
    px0, px1, py0, py1 = 70.0, width - 20.0, height - 50.0, 40.0
    parts = _svg_open(width, height, title)
    if norms:
        x_lo, x_hi = min(norms), max(norms)
        y_lo, y_hi = min(metrics), max(metrics)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        for i, (nx, my) in enumerate(zip(norms, metrics)):
            x = px0 + (nx - x_lo) / x_span * (px1 - px0)
            y = py0 - (my - y_lo) / y_span * (py0 - py1)
            fill = "#ff2a2a" if i == highlight else "#4c78a8"
            parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="4" fill="{fill}"/>')
        for value, x in ((x_lo, px0), (x_hi, px1)):
            parts.append(
                f'<text x="{_f(x)}" y="{_f(py0 + 16)}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{value:.3g}</text>'
            )
        parts.append(
            f'<text x="{_f(px0 - 8)}" y="{_f(py0)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{y_lo:.3g}</text>'
        )
        parts.append(
            f'<text x="{_f(px0 - 8)}" y="{_f(py1 + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{y_hi:.3g}</text>'
        )
    parts.append(
        f'<line x1="{_f(px0)}" y1="{_f(py0)}" x2="{_f(px1)}" y2="{_f(py0)}" stroke="#000000"/>'
    )
    parts.append(
        f'<line x1="{_f(px0)}" y1="{_f(py0)}" x2="{_f(px0)}" y2="{_f(py1)}" stroke="#000000"/>'
    )
    parts.append(
        f'<text x="{_f((px0 + px1) / 2)}" y="{_f(height - 12)}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">parameter norm</text>'
    )
    parts.append(
        f'<text x="18" y="{_f((py0 + py1) / 2)}" text-anchor="middle" font-family="monospace" '
        f'font-size="11" transform="rotate(-90 18 {_f((py0 + py1) / 2)})">test accuracy</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
