"""Ablation: blending band width — overhead vs boundary smoothness.

Sec 4.1: blending renders boundary pixels twice (~25% of pixels in the
paper) to remove the visible seam between quality levels.  Sweeping the band
width trades double-render overhead for seam magnitude (the max colour jump
across a region boundary).
"""

import numpy as np
import pytest

from repro.foveation import RegionLayout, render_foveated, uniform_foveated_model

from _report import report

TRACE = "room"
BAND_WIDTHS = (0.0, 0.75, 1.5, 3.0)


def seam_magnitude(image: np.ndarray, maps) -> float:
    """Mean colour discontinuity across region-boundary pixel pairs."""
    level = maps.pixel_level
    diff_x = np.abs(np.diff(image, axis=1)).sum(axis=2)
    boundary_x = np.diff(level, axis=1) != 0
    diff_y = np.abs(np.diff(image, axis=0)).sum(axis=2)
    boundary_y = np.diff(level, axis=0) != 0
    values = np.concatenate([diff_x[boundary_x], diff_y[boundary_y]])
    return float(values.mean()) if values.size else 0.0


@pytest.fixture(scope="module")
def sweep(env):
    setup = env.setup(TRACE)
    l1 = env.l1_model(TRACE)
    rows = []
    for band in BAND_WIDTHS:
        layout = RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0), blend_band_deg=band)
        fm = uniform_foveated_model(l1, layout, (1.0, 0.45, 0.22, 0.1))
        result = render_foveated(fm, setup.eval_cameras[0])
        rows.append(
            dict(
                band=band,
                blend_pixels=result.stats.blend_pixels,
                raster=result.stats.total_raster_intersections,
                seam=seam_magnitude(result.image, result.maps),
            )
        )
    return rows


def test_blend_band_ablation(sweep, benchmark, env, quick):
    setup = env.setup(TRACE)
    l1 = env.l1_model(TRACE)
    layout = RegionLayout(boundaries_deg=(0.0, 12.0, 20.0, 28.0), blend_band_deg=1.5)
    fm = uniform_foveated_model(l1, layout, (1.0, 0.45, 0.22, 0.1))
    benchmark(lambda: render_foveated(fm, setup.eval_cameras[0]))

    lines = [f"{'band deg':>8} {'blend px':>9} {'raster ints':>12} {'seam':>8}"]
    for row in sweep:
        lines.append(
            f"{row['band']:8.2f} {row['blend_pixels']:9d} "
            f"{row['raster']:12.0f} {row['seam']:8.4f}"
        )
    report(f"Ablation blend band width{' [quick]' if quick else ''}", lines)

    by_band = {row["band"]: row for row in sweep}
    # No band → zero double-render overhead.
    assert by_band[0.0]["blend_pixels"] == 0
    # Wider bands blend more pixels and add raster work (monotone overhead).
    blend_counts = [r["blend_pixels"] for r in sweep]
    assert all(np.diff(blend_counts) >= 0)
    raster = [r["raster"] for r in sweep]
    assert all(np.diff(raster) >= 0)
    # A generous band smooths the boundary relative to the hard cut.  (The
    # narrow 0.75-degree band can *raise* the measured discontinuity at our
    # tile granularity — partial ramps end mid-tile — which is itself a
    # useful finding; the paper's 1.5-degree-class band is safe.)
    assert by_band[3.0]["seam"] <= by_band[0.0]["seam"]
