"""Golden hashes of seeded swarm runs: any engine rewrite must keep them.

Each case hashes the float64 bytes of (best_fitness, best_position,
best_fitness_per_iter) of every run it makes, so a change in a single bit of
a result, or in the order of the random draws, changes the hash.  The cases
cover the three public entry points on both paper datasets and cat-swarm
settings that take every seeking path: all dimensions mutated or only some,
with and without the kept position, one candidate per agent, dimensions
1 to 6, an empty tracing or seeking group, a box edge and an objective that is +inf on part of the box.  The
same objective walled by NaN or -inf must give the +inf run bit for bit.

The hashes depend on the platform's floating-point library.  To see the
current values, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from fracgrey import (
    WUHAN,
    ZHEJIANG,
    Bounds,
    PsoConfig,
    SwarmConfig,
    adcso_minimize,
    default_bounds,
    estimate,
    objective,
    order_search,
    pso_minimize,
    repeat_stats,
)

DATASETS = {"wuhan": WUHAN.series, "zhejiang": ZHEJIANG.series}


def _digest(traces, extra=()):
    h = hashlib.sha256()
    for t in traces:
        for part in (t.best_fitness, t.best_position, t.best_fitness_per_iter):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    for part in extra:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


def sphere(points):
    return np.sum(np.asarray(points, dtype=float) ** 2, axis=-1)


def corner(points):
    """Minimum at 4.9 in every coordinate, close to the box edge at 5."""
    return np.sum((np.asarray(points, dtype=float) - 4.9) ** 2, axis=-1)


def walled_by(value):
    """The sphere, but ``value`` wherever the first coordinate exceeds 1."""

    def walled(points):
        pts = np.asarray(points, dtype=float)
        return np.where(pts[:, 0] > 1.0, value, np.sum(pts ** 2, axis=-1))

    return walled


walled = walled_by(np.inf)


def box(dim):
    return Bounds(lower=[-5.0] * dim, upper=[5.0] * dim)


def _dataset_case(kind, name):
    series = DATASETS[name]
    if kind == "estimate":
        _, trace = estimate(series, 0.25, "adcso", swarm_cfg=SwarmConfig(seed=3))
        return _digest([trace])
    if kind == "repeat_stats":
        stats = repeat_stats(objective(series, 0.5), default_bounds(series),
                             SwarmConfig(iter_max=100, seed=7), repeats=3)
        return _digest(stats.traces, [stats.best_fitnesses])
    result = order_search(series, grid_step=0.1, estimator="adcso", repeats=2,
                          swarm_cfg=SwarmConfig(seed=1))
    return _digest([result.trace], [result.mean_fitness, [result.order]])


SPHERE_CASES = {
    # name: (objective, dim, SwarmConfig overrides)
    "dim1": (sphere, 1, dict(cdc=1)),
    "dim2-default": (sphere, 2, dict()),
    "dim2-cdc1": (sphere, 2, dict(cdc=1)),
    "dim2-no-spc": (sphere, 2, dict(spc=False)),
    "dim2-cdc1-no-spc": (sphere, 2, dict(cdc=1, spc=False)),
    "dim2-smp1": (sphere, 2, dict(smp=1)),
    "dim2-smp1-no-spc": (sphere, 2, dict(smp=1, spc=False)),
    "dim2-smp5": (sphere, 2, dict(smp=5)),
    "dim2-smp6": (sphere, 2, dict(smp=6)),
    "dim2-srd0": (sphere, 2, dict(srd=0.0)),
    # round(mr * 10) is 0 (no tracing group) or 10 (no seeking group)
    "dim2-no-tracing": (sphere, 2, dict(mr=0.04)),
    "dim2-cdc1-no-tracing": (sphere, 2, dict(cdc=1, mr=0.04)),
    "dim2-smp1-no-tracing": (sphere, 2, dict(smp=1, mr=0.04)),
    "dim2-no-seeking": (sphere, 2, dict(mr=0.96)),
    "dim3-cdc1": (sphere, 3, dict(cdc=1)),
    "dim3-cdc2": (sphere, 3, dict()),
    "dim3-cdc3": (sphere, 3, dict(cdc=3)),
    "dim3-cdc1-no-spc": (sphere, 3, dict(cdc=1, spc=False)),
    "dim4-cdc4": (sphere, 4, dict(cdc=4)),
    "dim6-cdc1": (sphere, 6, dict(cdc=1)),
    "dim6-cdc6": (sphere, 6, dict(cdc=6)),
    "corner-dim2": (corner, 2, dict()),
    "corner-dim3-cdc1": (corner, 3, dict(cdc=1)),
    "walled-dim2": (walled, 2, dict()),
    "walled-dim2-cdc1": (walled, 2, dict(cdc=1)),
    "walled-dim3-no-spc": (walled, 3, dict(cdc=3, spc=False)),
}


def _sphere_case(name):
    fn, dim, overrides = SPHERE_CASES[name]
    cfg = SwarmConfig(**{"n_agents": 10, "iter_max": 40, "seed": 4, **overrides})
    return _digest([adcso_minimize(fn, box(dim), cfg)])


def _wall_case(estimator, value):
    """Digest of a 2-D run on the sphere walled by ``value``; adcso as "walled-dim2"."""
    fn = walled_by(value)
    if estimator == "adcso":
        run = adcso_minimize(fn, box(2), SwarmConfig(n_agents=10, iter_max=40, seed=4))
    else:
        run = pso_minimize(fn, box(2), PsoConfig(n_particles=10, iter_max=40, seed=4))
    return _digest([run])


GOLDEN = {
    ("estimate", "wuhan"): "c606f9ecd19fee9576cd6f2f30ef7a231b4514a52e025772b8288ffd2acea1d3",
    ("estimate", "zhejiang"): "e84f95432064909f09b24bad0ec2055281f6b48a61520e4a7815122a620daed8",
    ("order_search", "wuhan"): "83e2518a65210bba9ba26a54dda97c9e3a67910230aa0a16c9a7bd7c57bda992",
    ("order_search", "zhejiang"): "aca9fc05ce27177c69f408d4ebfb05f9492f93293f28f9060fa7d62e5772d626",
    ("repeat_stats", "wuhan"): "89bd99619c1bcffc3f0707c23f49a29eaeba95381834337776ab84585a5325e2",
    ("repeat_stats", "zhejiang"): "b7280569d8b39ffaeaada43ef930387257a33e0929879ba97659cc2e153da113",
}

GOLDEN_SPHERE = {
    "corner-dim2": "49446a22610d7b3497dd83aef5847cdde4415bbe8d3f011bab6d43716fcdf55a",
    "corner-dim3-cdc1": "50e3f39eb0b0913e9992cf72e0f8be1b1d39fcc061d731a4e7917b62f82b7e73",
    "dim1": "6df6b356f8a57f61c26a2cbd5a7fa8ae277267195f6d916e8ef47bea686be018",
    "dim2-cdc1": "3e95aa9f5cabdbb3bebcf770403fcae03baf89e3486f620ec5da4e06d8a5f8e1",
    "dim2-cdc1-no-spc": "3be4de47581e548e8b7fbdf3f65fcc0e8a7ab8c4330af32975816fd4ee32b24a",
    "dim2-cdc1-no-tracing": "a37e81db93e5b3f6dadb548ef7fd3ea27e4d393d6243e655b7dfe8370243250c",
    "dim2-default": "bd263c224883890010979db9e52a47e5e7ce9b5a5e64c8fd42ad88d2895accdf",
    "dim2-no-seeking": "2f78436db79457012a9df72fad3d3a3d33f917667bc910b0ed2c95226fd58c79",
    "dim2-no-spc": "473c1d3713f3384b949b419fcf2db39757510ca220ab5e844a38d814d5f1ba30",
    "dim2-no-tracing": "f83cba14ce8c1442d709420cda9423f1a4879c1735d29e916b87765ee6df1e2c",
    "dim2-smp1": "ce5d8c868cb8e7ab8ff5505d8b1fb4635ca34468dd27781d09128c2855c43dba",
    "dim2-smp1-no-spc": "ab9e8ae9feff6239fa6ea997b4e38c385035fb31fdd7739ec762981d04b0cdc6",
    "dim2-smp1-no-tracing": "eb6a152d4a7c7ec2a6af594d3aed6ae4455220abdf9b701283229bfea271f166",
    "dim2-smp5": "e07a0b712039335b7a5618fa4c0b73c5a80c1e7a314da5b73e1627d168e18ada",
    "dim2-smp6": "800a2e9f318f72224ff88816a194fb7e4c85bedc9688f87b89e9e1dc371dbc19",
    "dim2-srd0": "38e9774ad9039cf45b80b1c9d3954d41130dbe28c0a6e838a9e3065ad9e73a1e",
    "dim3-cdc1": "0bc673b7aecdd4cb00edbfa20c5e0cc512b700e26d04d4a4661ff407c29d671b",
    "dim3-cdc1-no-spc": "e28aba5b077dadbbdf83f030cdcb1dc8aae2e507b297d61b4403df38cdd7b179",
    "dim3-cdc2": "1938469911303fa55d032cfbeb65b840006b6d7eb083f5887c6a0cd461c01d8d",
    "dim3-cdc3": "13cd086aede6d69e3143dbc18dfe4cef6f923411a2075bfaadbc129f25015fb4",
    "dim4-cdc4": "fe0ac6ccaaa46b605a9b162d112632e99f78da072476f89cd64a1d97bcaf7a3c",
    "dim6-cdc1": "b1d7c104efa25bbd66a060dcc16feb7f003da14e769d40e5bf2a74b1adbf5632",
    "dim6-cdc6": "a54f34d7285e9dffe34c8a24dccb1e093be8298bcb6f10426764cc630935ad61",
    "walled-dim2": "277be8d6b228b0b2d49f4f933f9de89d28012da55087ab85ebfa296a7fd3d3bf",
    "walled-dim2-cdc1": "7681b98708824d9c93bd8bf3a737a5fbadfbb723ec9faff028c2119376e0d05e",
    "walled-dim3-no-spc": "d791ec85eedf02e568ca74fb42e5f567f02abb2eb284c59f66af53a7d6471fff",
}


@pytest.mark.parametrize("kind,name", sorted(GOLDEN))
def test_dataset_runs_match_golden_hash(kind, name):
    assert _dataset_case(kind, name) == GOLDEN[kind, name]


@pytest.mark.parametrize("name", sorted(SPHERE_CASES))
def test_sphere_runs_match_golden_hash(name):
    assert _sphere_case(name) == GOLDEN_SPHERE[name]


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("estimator", ["adcso", "pso"])
def test_non_finite_wall_runs_as_the_inf_wall(estimator, value):
    expected = GOLDEN_SPHERE["walled-dim2"] if estimator == "adcso" else _wall_case("pso", np.inf)
    assert _wall_case(estimator, value) == expected


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in sorted(GOLDEN):
        print(f'    ("{key[0]}", "{key[1]}"): "{_dataset_case(*key)}",')
    print("}\n\nGOLDEN_SPHERE = {")
    for name in sorted(SPHERE_CASES):
        print(f'    "{name}": "{_sphere_case(name)}",')
    print("}")
