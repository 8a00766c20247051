"""Dispatch parity: exit counts per configuration are frozen.

The registry-based dispatch core (``repro.hv.dispatch``) replaced the
hand-routed ``KvmHypervisor`` trap path.  Routing decisions and exit
multiplication are *observable simulation results*, so they must not
change for ANY configuration: this test drives a fixed deterministic
workload through every stack in :mod:`repro.bench.configs` (every
Table-3 / Figure-7/8/9/10 cell), plus L4/L5 super-nesting stacks, the
RISC-V ``hs`` and ARM profiles and OoH-granted stacks, and compares the
resulting exits/forwards/L0-handled/DVH-handled counters (and the OoH
granted/forwarded split, where grants are configured) against goldens
captured from the pre-refactor dispatcher.

Regenerate the goldens **only** when deliberately changing simulated
behavior:

    PYTHONPATH=src python tests/hv/test_dispatch_parity.py --regen
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.bench.configs import FIGURES, TABLE3_CONFIGS
from repro.core.features import DvhFeatures
from repro.hv.stack import StackConfig, build_stack
from repro.ooh.grants import GrantSet
from repro.workloads.microbench import run_microbenchmark

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_dispatch_parity.json")


def _super_nesting_configs() -> List[Tuple[str, StackConfig]]:
    """L4/L5 stacks: beyond the paper's testbed, exercising recursive
    forwarding chains (plain) and recursive DVH (full)."""
    out = []
    for levels in (4, 5):
        out.append((f"super:L{levels}", StackConfig(levels=levels, io_model="virtio")))
        out.append(
            (
                f"super:L{levels}+dvh",
                StackConfig(levels=levels, io_model="vp", dvh=DvhFeatures.full()),
            )
        )
    return out


def _arch_and_grant_configs() -> List[Tuple[str, StackConfig]]:
    """The other guest-hypervisor profiles (RISC-V ``hs`` with trap
    delegation, ARM) and the OoH grant gates that route ahead of the DVH
    ownership claims."""
    return [
        ("riscv:L2", StackConfig(levels=2, arch="riscv")),
        ("riscv:L3", StackConfig(levels=3, arch="riscv")),
        ("arm:L2", StackConfig(levels=2, arch="arm")),
        ("ooh:L2+full", StackConfig(levels=2, io_model="virtio", ooh=GrantSet.full())),
        (
            "ooh:L2+dvh+migration",
            StackConfig(
                levels=2,
                io_model="vp",
                dvh=DvhFeatures.full(),
                ooh=GrantSet.migration(),
            ),
        ),
    ]


def parity_configs() -> List[Tuple[str, StackConfig]]:
    """Every benchmark configuration, labeled ``set:name``."""
    out: List[Tuple[str, StackConfig]] = []
    config_sets = {"table3": TABLE3_CONFIGS}
    config_sets.update((number, configs) for number, (_t, configs) in FIGURES.items())
    for set_name, configs in sorted(config_sets.items()):
        for label, factory in configs:
            out.append((f"{set_name}:{label}", factory()))
    out.extend(_super_nesting_configs())
    out.extend(_arch_and_grant_configs())
    return out


def exit_counters(config: StackConfig) -> Dict[str, Dict[str, int]]:
    """Build the stack, drive the standard op mix, return its counters."""
    stack = build_stack(config)
    stack.settle()
    if config.levels >= 5:
        # L5 exit multiplication makes every op astronomically expensive
        # (that is the point); one op per reason keeps the test fast while
        # still pinning the whole forwarding chain.
        run_microbenchmark(stack, "Hypercall", 1)
        run_microbenchmark(stack, "ProgramTimer", 1)
    else:
        run_microbenchmark(stack, "Hypercall", 5)
        run_microbenchmark(stack, "ProgramTimer", 5)
        if getattr(stack.net, "device", None) is not None:
            run_microbenchmark(stack, "DevNotify", 3)
        run_microbenchmark(stack, "SendIPI", 2)
    m = stack.metrics
    out = {
        "exits": {f"{lvl}|{r}": n for (lvl, r), n in sorted(m.exits.items())},
        "forwards": {
            f"{lvl}|{r}|{o}": n for (lvl, r, o), n in sorted(m.forwards.items())
        },
        "l0_handled": {r: n for r, n in sorted(m.l0_handled.items())},
        "dvh_handled": {r: n for r, n in sorted(m.dvh_handled.items())},
    }
    if config.ooh is not None:
        out["ooh"] = {f"{f}|{mode}": n for (f, mode), n in sorted(m.ooh.items())}
    return out


def _load_goldens() -> Dict[str, Dict]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


_GOLDENS = _load_goldens() if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize(
    "label,config", parity_configs(), ids=[l for l, _ in parity_configs()]
)
def test_dispatch_parity(label: str, config: StackConfig) -> None:
    assert _GOLDENS, f"missing goldens: regenerate via {__file__} --regen"
    golden = _GOLDENS.get(label)
    assert golden is not None, f"no golden for {label!r}: regenerate goldens"
    assert exit_counters(config) == golden


def test_goldens_cover_every_config() -> None:
    """A config added to repro.bench.configs must get a golden too."""
    assert _GOLDENS, f"missing goldens: regenerate via {__file__} --regen"
    missing = [l for l, _ in parity_configs() if l not in _GOLDENS]
    assert not missing, f"configs without parity goldens: {missing}"


def _regen() -> None:
    goldens = {label: exit_counters(config) for label, config in parity_configs()}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} configs)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
