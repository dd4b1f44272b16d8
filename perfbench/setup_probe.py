"""Set-up probe, run in a fresh interpreter for every set-up sample.

Times ``import rdlab.cli`` (numpy and scipy included), then builds the
operators of each given config by calling the library directly:
``parse_config``, ``build_network``, ``build_generator``,
``propagator(dt/2)`` and ``steady_state``, once per mass scale for a sweep,
as the CLI does.

    python3 setup_probe.py <src dir> <config> [<config> ...]

Prints one JSON object: ``{"import_s": ..., "build_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path


def build(cfg) -> None:
    """Build what the CLI builds for ``cfg`` before its first step."""
    import numpy as np
    from rdlab.config import compile_expression
    from rdlab.diffusion import build_generator, propagator
    from rdlab.network import build_network, steady_state

    psi = compile_expression(cfg.potential)
    a = compile_expression(cfg.diffusivity)
    if cfg.kind == "spectral_gap":
        build_generator(cfg.n_cells, cfg.domain_length, potential=psi,
                        diffusivity=a)
        return
    if cfg.kind == "ode":
        network = build_network(cfg.reactants, cfg.products,
                                cfg.rate_forward, cfg.rate_backward)
        steady_state(network, [float(compile_expression(t)(0.0))
                               for t in cfg.initial])
        return
    for scale in (cfg.sweep_values if cfg.kind == "sweep" else (1.0,)):
        network = build_network(cfg.reactants, cfg.products,
                                cfg.rate_forward, cfg.rate_backward)
        diff = build_generator(cfg.n_cells, cfg.domain_length, potential=psi,
                               diffusivity=a)
        propagator(diff, 0.5 * cfg.dt)
        v0 = scale * np.array([compile_expression(t)(diff.cell_centers)
                               for t in cfg.initial])
        steady_state(network, v0 @ diff.weights)


def main(src: str, configs: list) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import rdlab.cli  # noqa: F401
    import_s = time.perf_counter() - start

    from rdlab.config import parse_config
    start = time.perf_counter()
    for path in configs:
        build(parse_config(Path(path).read_text()))
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
