"""Build a hardware exit the way ``VCpu.execute`` does, for tests that
route or dispatch one by hand."""

from repro.hv.vm import _exit_reason
from repro.hw.ops import Exit


def make_exit(vcpu, op, info):
    """The exit ``vcpu`` takes for ``op`` with ``info``."""
    return Exit(_exit_reason(op, info), op, vcpu.level, info, vcpu)
