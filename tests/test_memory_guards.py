"""Each memory guard against what its site allocates.

`errors.require_memory` stands in front of every input-sized allocation
with a hand-written byte count.  At two small sizes each site's
`tracemalloc` peak must lie between that count and twice it: below the
count the guard passes inputs that cannot fit, and beyond twice it the
count no longer says what the site holds.  `sew`'s site is checked the
same way in tests/test_sewing.py.

Every site is measured with no circulant route kept (`paths._sampling_route`
cleared), the case the fBm sampler's count describes: it includes the
embedding's eigenvalue FFT, which a kept route skips.  The sampler's sites
are then run again with their routes kept: a kept route allocates
nothing, so the warm call peaks no higher than the cold one.
"""

import tracemalloc

import pytest

from fbmlab import experiments, occupation, paths
from fbmlab.experiments import HEADLINE_CONFIG

WINDOWS = [(0.25, 0.5), (0.5, 1.0)]  # fbmlab verify's at horizon 1


def _solve(sigma, n_paths):
    cfg = {**HEADLINE_CONFIG, "sigma": sigma, "paths": n_paths}

    def run():
        for _ens in experiments.solve_scenario(*experiments.build_scenario(cfg)):
            pass

    return experiments, run


def _verify(sigma, n_paths):
    cfg = {**HEADLINE_CONFIG, "sigma": sigma, "paths": n_paths}

    def run():
        experiments.verify_scenario(*experiments.build_scenario(cfg, WINDOWS),
                                    cfg["m"], cfg["gamma0"], WINDOWS)

    return experiments, run


def _occupy(width):
    path = paths.generate_fbm(0.3, 1, paths.TimeGrid(1.0, 256), 1)
    box = occupation.SpatialGrid.cover(path.values.T, width)
    return occupation, lambda: occupation.local_time(path, box, 0.0, 1.0)


def _centers_mesh(bins, dimension):
    return occupation, occupation.SpatialGrid.from_box(-1.0, 1.0, bins,
                                                       dimension).centers_mesh


def _fbm_rows(hursts, dimension, steps, count, nodes=None):
    grid = paths.TimeGrid(1.0, steps)
    return paths, lambda: paths._fbm_rows(hursts, dimension, grid, 5, 0, count, nodes)


SITES = {
    **{f"check_memory-{command.__name__[1:]}-{sigma}-{n}":
       (command, sigma, n)
       for command in (_solve, _verify) for sigma in ("singular", "identity")
       for n in (200, 1000)},
    "occupy-1e-4": (_occupy, 1e-4),
    "occupy-1e-5": (_occupy, 1e-5),
    "centers_mesh-d1": (_centers_mesh, 100_000, 1),
    "centers_mesh-d2": (_centers_mesh, 300, 2),
    "fbm_rows-one-path": (_fbm_rows, (0.3,), 1, 4096, 1),
    "fbm_rows-d2-batch": (_fbm_rows, (0.3,), 2, 1024, 200),
    "fbm_rows-three-hursts": (_fbm_rows, (0.2, 0.5, 0.8), 1, 256, 500),
    "fbm_rows-nodes": (_fbm_rows, (0.3,), 1, 1024, 500, [0, 512, 1024]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_peak_memory_lies_between_the_guard_count_and_twice_that(site, monkeypatch):
    make, *args = SITES[site]
    module, run = make(*args)
    counted = []
    guard = module.require_memory

    def spy(needed, what):
        counted.append(needed)
        guard(needed, what)

    monkeypatch.setattr(module, "require_memory", spy)
    paths._sampling_route.cache_clear()
    peak = _peak(run)
    assert len(counted) == 1
    assert counted[0] <= peak <= 2 * counted[0]
    if module is paths:
        assert _peak(run) <= peak


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
