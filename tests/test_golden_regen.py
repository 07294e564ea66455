"""Meta-test: the golden regeneration recipe matches the checked-in files.

If this fails, either a behavior change forgot ``make regen-golden`` or
the recipe in ``tests/golden/__init__.py`` drifted from what CI
replays — both are byte-determinism regressions worth a red build.
"""

from __future__ import annotations

from tests.golden import GOLDEN_DIR, regenerate, write_goldens


def test_regeneration_is_a_noop_on_a_clean_tree():
    fresh = regenerate()
    assert set(fresh) == {
        "default_runs.json", "hooked_runs.json", "roi_table.txt",
        "two_container_trace.json",
    }
    for name, content in fresh.items():
        on_disk = (GOLDEN_DIR / name).read_text()
        assert content == on_disk, (
            f"{name} drifted from its regeneration recipe; "
            f"run `make regen-golden` (and review the diff)"
        )


def test_write_goldens_targets_the_requested_directory(tmp_path):
    written = write_goldens(tmp_path)
    assert sorted(p.name for p in written) == [
        "default_runs.json", "hooked_runs.json", "roi_table.txt",
        "two_container_trace.json",
    ]
    for path in written:
        assert path.parent == tmp_path
        assert path.read_text() == (GOLDEN_DIR / path.name).read_text()
