"""The benchmark's hooks into the package.

The traced run patches package functions by name: every name it patches
must exist, and leaving the tracer must restore each one.  The untraced run
builds, solves and checks each workload through the package's public
calls: every one of them must still exist and give a checked result."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dgmono import detector, solve, stabilization

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as the module perfbench_<name>.  It is registered
    in sys.modules first: its dataclasses look their module up there."""
    module_name = f"perfbench_{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def test_instrument_patches_and_restores():
    tracing = load_perfbench("tracing")
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


# Sparse LU factorizations per operation on the warm inputs.  The sharp
# layer keeps the first iterate's LU as GMRES's preconditioner for every
# later solve; every solve of the three-body step meets its tolerance by
# GMRES preconditioned by its own matrix's cell blocks, and factors nothing.
WARM_FACTORIZATIONS = {"sharp-layer-picard": [1], "sharp-layer-hybrid": [1],
                       "three-body-be-hybrid": [0]}


@pytest.mark.parametrize("name", sorted(WARM_FACTORIZATIONS))
def test_untraced_workload_on_warm_inputs(name):
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    w = workloads.WORKLOADS[name]
    setup = w.setup(w.warm_inputs, tracing.NullTracer())
    ops = w.solve(setup)
    assert ops
    for op in ops:
        assert op.trace.converged
        assert w.check(setup, op) == []
    assert [sum(op.trace.factorizations) for op in ops] \
        == WARM_FACTORIZATIONS[name]
