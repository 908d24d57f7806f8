"""scripts/traffic.py: each config kind and key is set by a shipped config or kept for a reason."""

import os
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_every_config_name_no_shipped_config_sets_is_kept_for_a_reason(monkeypatch):
    # a new kind or key ships in a config (and its digest), or is deleted,
    # or goes into traffic.KEPT with the reason it stays
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # importing the script pins BLAS
    import traffic

    assert traffic.unset_config_names() == list(traffic.KEPT)
    assert all(traffic.KEPT.values())
