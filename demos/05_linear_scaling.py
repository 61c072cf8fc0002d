"""Carve cost against graph size.

The expansion touches each face a bounded number of times, so wall time
should grow linearly in the vertex count.  Prisms scale cleanly, which
makes them the benchmark family: same structure at every size.
"""

from barnette.cli import bench_scaling

rows, exponent = bench_scaling([250, 2500, 25000], rounds=3)
print(f"{'k':>7} {'n':>8} {'status':<18} {'seconds':>9} {'us/vertex':>10}")
for r in rows:
    print(f"{r['k']:>7} {r['n']:>8} {r['status']:<18} "
          f"{r['seconds']:>9.4f} {r['per_vertex_us']:>10.2f}")

ratio = rows[-1]["per_vertex_us"] / rows[0]["per_vertex_us"]
print(f"\nper-vertex cost ratio, n=100000 vs n=1000: {ratio:.2f} "
      f"(2.0 is the acceptance bound)")
print(f"scaling exponent, median over rounds: {exponent:.2f}")
