"""Property tests for EPT page tables and shadow composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.ept import EptViolation, PageTable, Perm, compose

pfns = st.integers(min_value=0, max_value=(1 << 36) - 1)
perms = st.sampled_from([Perm.R, Perm.RW, Perm.RWX, Perm.R | Perm.X])


def mapped_pages(table):
    """Pages ``table`` maps (not extents)."""
    return sum(npages for _pfn, npages, _target, _perm in table.extents())


#: Overlapping multi-page runs ``(pfn, npages, target_pfn, perm)`` in a
#: small pfn window, so later runs split and trim earlier ones and
#: targets land on other runs.
window = st.integers(0, 255)
run_lists = st.lists(
    st.tuples(window, st.integers(1, 40), window, perms), max_size=20
)


@given(st.dictionaries(pfns, pfns, max_size=50), run_lists)
def test_map_translate_roundtrip(mapping, runs):
    """Single pages, then overlapping runs, against a per-page model:
    translations, violation reasons and the page count all agree."""
    table = PageTable()
    model = {}
    for k, v in mapping.items():
        table.map(k, v, Perm.RWX)
        model[k] = (v, Perm.RWX)
    for pfn, npages, target, perm in runs:
        table.map(pfn, target, perm, npages)
        for i in range(npages):
            model[pfn + i] = (target + i, perm)
    assert mapped_pages(table) == len(model)
    # Every mapped page, plus the page on each side of every run.
    probes = set(model) | {p + d for p, n, *_ in runs for d in (-1, n)}
    for pfn in probes:
        for access in (Perm.R, Perm.W, Perm.X, Perm.RWX):
            entry = model.get(pfn)
            try:
                got = table.translate(pfn, access)
            except EptViolation as exc:
                if entry is None:
                    assert exc.reason == "not mapped"
                else:
                    assert access & ~entry[1]
                    assert exc.reason.startswith("permission")
                continue
            assert entry is not None and not access & ~entry[1]
            assert got == entry[0]


@given(
    st.dictionaries(pfns, st.tuples(pfns, perms), max_size=30),
    st.dictionaries(pfns, st.tuples(pfns, perms), max_size=30),
    run_lists,
    run_lists,
)
def test_compose_equals_sequential_translation(
    inner_map, outer_map, inner_runs, outer_runs
):
    """compose(outer, inner) must agree with translating through inner
    then outer, including permission intersection — the §3.5 shadow-table
    correctness property.  Multi-page runs mapped over the single pages
    make inner runs straddle outer extents and gaps."""
    inner, outer = PageTable(), PageTable()
    inner_model, outer_model = dict(inner_map), dict(outer_map)
    for table, model, runs in (
        (inner, inner_model, inner_runs),
        (outer, outer_model, outer_runs),
    ):
        for k, (v, p) in model.items():
            table.map(k, v, p)
        for pfn, npages, target, perm in runs:
            table.map(pfn, target, perm, npages)
            model.update((pfn + i, (target + i, perm)) for i in range(npages))
    shadow = compose(outer, inner)
    for k, (v, p_in) in inner_model.items():
        entry = outer_model.get(v)
        if entry is None:
            assert shadow.lookup(k) is None
            continue
        target, p_out = entry
        joint = p_in & p_out
        if joint == Perm.NONE:
            assert shadow.lookup(k) is None
            continue
        assert shadow.translate(k, Perm.NONE | joint) == target
        # And a permission outside the intersection must fault.
        for bit in (Perm.R, Perm.W, Perm.X):
            if bit & ~joint:
                try:
                    shadow.translate(k, bit)
                    assert False, "expected violation"
                except EptViolation:
                    pass
    # The runs compose in input order, and the first inner target the
    # outer table lacks is the one reported.
    composed, missing = outer.compose_runs(inner.extents())
    in_order = sorted(inner_model.items())
    assert missing == next(
        (v for _k, (v, _p) in in_order if v not in outer_model), None
    )
    pages = [(pfn + i, target + i) for pfn, n, target, _p in composed for i in range(n)]
    assert pages == [
        (k, outer_model[v][0]) for k, (v, _p) in in_order if v in outer_model
    ]


@given(st.lists(pfns, min_size=1, max_size=40, unique=True))
def test_entries_iteration_complete_and_sorted(keys):
    table = PageTable()
    for k in keys:
        table.map(k, k ^ 0xABC)
    listed = [pfn for pfn, _n, _target, _perm in table.extents()]
    assert listed == sorted(keys)

