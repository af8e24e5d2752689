"""The benchmark's layer tracer (perfbench/tracing.py) finds every function it
times: a renamed layer function would otherwise break only traced runs."""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import kmse.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # compiled from the source text, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def kmse_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "kmse" or name.startswith("kmse.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_install_wraps_every_layer_and_uninstall_restores():
    tracing = load_tracing()
    before = kmse_bindings()
    targets = [target for group in tracing.LAYERS.values() for target in group]
    originals = {}
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        originals[target] = getattr(importlib.import_module(module_name), attr, None)
        assert callable(originals[target]), f"{target} does not resolve"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            module_name, attr = target.rsplit(".", 1)
            wrapped = getattr(sys.modules[module_name], attr)
            assert getattr(wrapped, "__wrapped__", None) is original, target
    finally:
        tracer.uninstall()
    after = kmse_bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


@pytest.mark.parametrize(
    "flags,spans",
    [
        (["--filter", "tikhonov", "--select", "loocv"],
         {"risk.fit.tikhonov", "selection.loocv", "estimators.apply", "linalg.eigh"}),
        (["--filter", "nu", "--select", "loocv", "--iters", "5"],
         {"risk.fit.nu", "selection.loocv", "estimators.apply"}),
        (["--filter", "tsvd", "--select", "gcv"],
         {"risk.fit.tsvd", "selection.gcv", "estimators.apply", "linalg.eigh"}),
        (["--filter", "itik"], {"risk.fit.itik", "estimators.apply", "linalg.spd"}),
        (["--filter", "skmse", "--select", "loocv"],
         {"risk.fit.skmse", "selection.loocv", "estimators.apply"}),
        (["--filter", "itik", "--select", "loocv"],
         {"risk.fit.itik", "selection.loocv", "estimators.apply", "linalg.eigh"}),
        (["--filter", "landweber", "--select", "loocv"],
         {"risk.fit.landweber", "selection.loocv", "estimators.apply"}),
        ([], {"risk.fit.tikhonov", "estimators.apply", "linalg.spd"}),
    ],
)
def test_fits_are_seen_by_their_layers(tmp_path, flags, spans):
    data = tmp_path / "data.csv"
    rows = np.random.default_rng(3).standard_normal((12, 2))
    data.write_text("\n".join(",".join(f"{v:.8f}" for v in row) for row in rows) + "\n")
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["estimate", "--input", str(data), "--output", str(tmp_path / "w.json"), *flags]
        assert tracer.root("op", kmse.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert spans <= set(tracer.calls)
