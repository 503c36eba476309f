"""The traced benchmark run patches package functions by name: every name it
patches must exist, and leaving the tracer must restore each one."""

import importlib.util
from pathlib import Path

from dgmono import detector, solve, stabilization

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_patches_and_restores():
    tracing = load_tracing()
    owners = (detector, solve, stabilization,
              stabilization.StabilizedProblem)
    before = [dict(vars(owner)) for owner in owners]
    # a patched name missing from the package raises KeyError on entry
    with tracing.instrument(tracing.Tracer()):
        changed = {(owner.__name__, name)
                   for owner, saved in zip(owners, before)
                   for name, value in vars(owner).items()
                   if saved.get(name) is not value}
    assert ("dgmono.solve", "picard") in changed
    assert ("StabilizedProblem", "residual_steady") in changed
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        for name, value in saved.items():
            assert after[name] is value, (owner.__name__, name)
