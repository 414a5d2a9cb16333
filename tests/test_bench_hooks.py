"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
the names their callers look up. Installing it raises KeyError as soon as
one of those names is gone, so a rename that would break
`perfbench/run.py --trace 1` fails here first."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [(owner, attr, owner.__dict__.get(attr))
                 for owner, attr, _, _ in tracing._WRAPPED]
    with tracing.Tracer().installed():
        pass
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
