"""The names the benchmark harness binds in ``qcmt`` still resolve.

``perfbench/tracer.py`` wraps qcmt functions and methods by name and
``perfbench/checks.py`` imports others; a rename in ``src/`` would break
``perfbench/run.py --trace 1`` without failing any other test.  Nothing
under ``perfbench/`` is edited: its directory is only put on ``sys.path``.
"""

from pathlib import Path

from qcmt import fields

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks  # noqa: F401  (the import binds its qcmt names)
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        patches = list(t._patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
        # the notes on the field kernels read Wavepacket.key and len(packets)
        f = fields.Wavepacket.gaussian(wavevector=(0.5, 0.3))
        spec = fields.FieldKernelSpec(mass=1.0)
        fields.vacuum_kernel(spec, f, f)
        fields.kernel_as_gaussian(spec, [f])
    finally:
        t.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
    names = {name for _, name, *_ in t.spans}
    assert {"fields.vacuum_kernel", "fields.kernel_as_gaussian"} <= names
