"""Deterministic SVG sketch of a fan: axes, cone wedges, boundary rays, and
Hilbert basis points.  All coordinates are exact integers and the styling is
fixed, so identical input yields identical bytes."""

from .fans import Fan
from .lattice import LatticePoint2

_SCALE = 40
_MARGIN = 30
_WEDGE_FILLS = ("#dbeafe", "#fde8c8")
_RAY_STROKE = "#1f2937"
_AXIS_STROKE = "#9ca3af"
_POINT_FILL = "#b91c1c"


def render_fan_svg(fan: Fan) -> str:
    # every ray ends a chain, so the distinct chain points bound the picture
    extent = max(6, *map(max, fan.degrees))
    size = extent * _SCALE + 2 * _MARGIN

    def x(v: int) -> int:
        return _MARGIN + v * _SCALE

    def y(v: int) -> int:
        return _MARGIN + (extent - v) * _SCALE

    def ray_end(ray: LatticePoint2) -> LatticePoint2:
        return ray.scaled(max(1, extent // max(ray)))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}"'
        f' viewBox="0 0 {size} {size}" data-format-version="1">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    wedges = [(i, ray_end(c.ray_low), ray_end(c.ray_high))
              for i, c in enumerate(fan.cones) if not c.is_degenerate]
    for i, low, high in wedges:
        fill = _WEDGE_FILLS[i % 2]
        lines.append(
            f'<polygon points="{x(0)},{y(0)} {x(low.r)},{y(low.s)}'
            f' {x(high.r)},{y(high.s)}" fill="{fill}" stroke="none"/>'
        )
    lines.append(
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(extent)}" y2="{y(0)}"'
        f' stroke="{_AXIS_STROKE}" stroke-width="1"/>'
    )
    lines.append(
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(0)}" y2="{y(extent)}"'
        f' stroke="{_AXIS_STROKE}" stroke-width="1"/>'
    )
    drawn: set[LatticePoint2] = set()
    for c in fan.cones:
        for ray in (c.ray_high, c.ray_low):
            if ray in drawn:
                continue
            drawn.add(ray)
            end = ray_end(ray)
            lines.append(
                f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(end.r)}" y2="{y(end.s)}"'
                f' stroke="{_RAY_STROKE}" stroke-width="2"/>'
            )
    for i, low, high in wedges:
        mx, my = (x(low.r) + x(high.r)) // 2, (y(low.s) + y(high.s)) // 2
        lines.append(
            f'<text x="{mx}" y="{my}" font-family="monospace" font-size="14"'
            f' fill="{_RAY_STROKE}">C{i}</text>'
        )
    for p in fan.degrees:
        lines.append(f'<circle cx="{x(p.r)}" cy="{y(p.s)}" r="4" fill="{_POINT_FILL}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
