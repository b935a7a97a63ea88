"""Minimal self-contained SVG line plots (no plotting dependency).

Plots are conveniences; the CSV files are the contract. Supports linear
and log axes, legends and dashed lines.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ["#000000", "#c02020", "#2050c0", "#108040", "#b07000", "#703090"]
WIDTH, HEIGHT = 720, 480  # px
N_TICKS = 6  # at most this many intervals between linear-axis ticks


def _widen(lo: float, hi: float):
    """(lo, hi), or (lo, lo + max(1, |lo|)) when the range has collapsed to
    the one value lo: lo + 1 would round back to lo once |lo| >= 2**53."""
    return (lo, hi) if hi > lo else (lo, lo + max(1.0, abs(lo)))


def _extent(v: np.ndarray):
    """(min, max) of an axis's plottable values; a log axis with no
    positive value collapses to 1, which _widen opens to a decade."""
    return (float(v.min()), float(v.max())) if v.size else (1.0, 1.0)


def _nice_ticks(lo: float, hi: float):
    lo, hi = _widen(lo, hi)
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / N_TICKS))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= N_TICKS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float):
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * 1.0001:
        if 10.0**d >= lo * 0.9999:
            ticks.append(10.0**d)
        d += 1
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if 1e-3 <= abs(v) < 1e4:
        s = f"{v:.4g}"
    else:
        s = f"{v:.1e}"
    return s


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi, scale):
        self.scale = scale
        if scale == "log":
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        self.lo, self.hi = _widen(self.lo, self.hi)
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v):
        """Pixel coordinates of the values v, each rounded as a Python
        float would be."""
        v = np.asarray(v, dtype=float)
        if self.scale == "log":
            # math.log10 per value: numpy's SIMD log10 can differ by an ulp,
            # which could flip a .2f rounding
            v = np.fromiter(map(math.log10, v.tolist()), float, v.size)
        f = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + f * (self.pix_hi - self.pix_lo)


def line_plot(series, xlabel="", ylabel="", title="", xscale="linear",
              yscale="linear") -> str:
    """Render series (dicts with x, y, label, optional dash) to an SVG string."""
    ml, mr, mt, mb = 70, 20, 30, 50
    xs = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s["y"], dtype=float) for s in series])
    if xscale == "log":
        xs = xs[xs > 0]
    if yscale == "log":
        ys = ys[ys > 0]
    x0, x1 = _extent(xs)
    y0, y1 = _extent(ys)
    if yscale == "linear":
        pad = 0.05 * (y1 - y0 or abs(y1) or 1.0)
        y0, y1 = y0 - pad, y1 + pad
    ax = _Axis(x0, x1, ml, WIDTH - mr, xscale)
    ay = _Axis(y0, y1, HEIGHT - mb, mt, yscale)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']

    xticks = _log_ticks(x0, x1) if xscale == "log" else _nice_ticks(x0, x1)
    yticks = _log_ticks(10**ay.lo, 10**ay.hi) if yscale == "log" else _nice_ticks(y0, y1)
    for v, px in zip(xticks, ax.to_pix(xticks).tolist()):
        out.append(f'<line x1="{px:.1f}" y1="{mt}" x2="{px:.1f}" y2="{HEIGHT-mb}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{px:.1f}" y="{HEIGHT-mb+16}" text-anchor="middle">{_fmt(v)}</text>')
    for v, py in zip(yticks, ay.to_pix(yticks).tolist()):
        out.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{WIDTH-mr}" y2="{py:.1f}" '
                   'stroke="#dddddd"/>')
        out.append(f'<text x="{ml-6}" y="{py+4:.1f}" text-anchor="end">{_fmt(v)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{WIDTH-ml-mr}" height="{HEIGHT-mt-mb}" '
               'fill="none" stroke="black"/>')

    legend = []
    for k, s in enumerate(series):
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        ok = np.ones(x.size, dtype=bool)
        if xscale == "log":
            ok &= x > 0
        if yscale == "log":
            ok &= y > 0
        # one % over the interleaved pixel pairs x0, y0, x1, y1, ...
        pix = np.stack((ax.to_pix(x[ok]), ay.to_pix(y[ok])), axis=1).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * (len(pix) // 2)) % tuple(pix)
        color = s.get("color", _COLORS[k % len(_COLORS)])
        dash = f' stroke-dasharray="{s["dash"]}"' if s.get("dash") else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        if s.get("label"):
            legend.append((s["label"], color, dash))

    ly = mt + 14
    for label, color, dash in legend:
        out.append(f'<line x1="{ml+10}" y1="{ly-4}" x2="{ml+40}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{ml+46}" y="{ly}">{label}</text>')
        ly += 16

    if title:
        out.append(f'<text x="{WIDTH/2:.0f}" y="18" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    out.append(f'<text x="{(ml+WIDTH-mr)/2:.0f}" y="{HEIGHT-12}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{(mt+HEIGHT-mb)/2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(mt+HEIGHT-mb)/2:.0f})">{ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
