"""The benchmark's tracer wraps library functions by name.

A refactor that renames or removes one of those functions would leave its
per-layer metric silently at zero; this test makes it fail loudly instead.
"""

from perfbench.tracer import Tracer


def test_every_traced_name_resolves():
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
