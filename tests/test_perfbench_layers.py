"""The traced benchmark run's layer wrappers find all their targets.

``perfbench/layers.py`` wraps simulator functions by name from outside
the program (``python3 perfbench/run.py --trace 1``). Renaming one of
them (``FaultHandler.fast_access``, ``FaultHandler.access``,
``StoredFile.read``, ...) would otherwise break only the traced run;
here it fails the test suite.
"""

import importlib.util
import inspect
from pathlib import Path

from repro.host.fault import FaultHandler
from repro.storage.filestore import StoredFile

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _home(owner, attr):
    """The namespace ``install`` patches: the class in ``owner``'s MRO
    that defines ``attr``, or the module itself."""
    if inspect.isclass(owner):
        return next((c for c in owner.__mro__ if attr in vars(c)), None)
    return owner if attr in vars(owner) else None


def test_install_wraps_every_target_and_uninstall_restores_it():
    from multiprocessing.connection import Connection

    layers = _load_layers()
    originals = {}
    for layer, owner, attr in layers._targets("all"):
        home = _home(owner, attr)
        assert home is not None, f"{layer}: {owner!r} has no {attr!r}"
        originals[(home, attr)] = vars(home)[attr]
    for attr in ("_send_bytes", "_recv_bytes"):
        if attr in vars(Connection):
            originals[(Connection, attr)] = vars(Connection)[attr]

    uninstall = layers.install(layers.LayerClock())
    try:
        for (home, attr), original in originals.items():
            assert vars(home)[attr] is not original, f"{attr} not wrapped"
    finally:
        uninstall()
    for (home, attr), original in originals.items():
        assert vars(home)[attr] is original, f"{attr} not restored"


def test_fault_and_read_targets_keep_their_call_shapes():
    # The traced run times generator functions per resumption and plain
    # functions per call, chosen by inspecting the original.
    layers = _load_layers()
    named = {(owner, attr) for _, owner, attr in layers._targets("all")}
    assert (FaultHandler, "fast_access") in named
    assert (FaultHandler, "access") in named
    assert (StoredFile, "read") in named
    assert not inspect.isgeneratorfunction(FaultHandler.fast_access)
    assert inspect.isgeneratorfunction(FaultHandler.access)
    assert inspect.isgeneratorfunction(StoredFile.read)
