"""The package's public names."""

import mirrorint


def test_every_export_resolves():
    missing = [name for name in mirrorint.__all__
               if getattr(mirrorint, name, None) is None]
    assert missing == []
