"""Bench: regenerate Figure 6 — the stress distribution for a hole
shape (plate with circular hole under uniaxial tension).

Prints field statistics, the ASCII shade map of von Mises stress, and
writes ``results/fig6_stress.pgm`` (beside the other figures) for viewing.
"""

from pathlib import Path

from repro.apps.mecheng import (
    HoleShape,
    boundary_points,
    build_ring_mesh,
    solve_plane_stress,
)
from repro.bench.ascii_render import ascii_field, rasterize_von_mises, write_pgm
from repro.bench.experiments import run_fig6_stress


def test_fig6_stress_distribution(once):
    table = once(run_fig6_stress)
    table.print()
    assert table.all_checks_pass


def test_fig6_render(benchmark, tmp_path):
    mesh = build_ring_mesh(boundary_points(HoleShape(), 64), n_rings=16, half_width=6.0)
    result = solve_plane_stress(mesh)
    raster = benchmark.pedantic(
        rasterize_von_mises, args=(result,), kwargs={"resolution": 48}, rounds=1, iterations=1
    )
    print()
    print("Figure 6 — von Mises stress (ASCII render, hole blank):")
    print(ascii_field(raster))
    out = Path(__file__).resolve().parents[1] / "results" / "fig6_stress.pgm"
    write_pgm(raster, out)
    print(f"(PGM image written to {out})")
    assert out.exists()
