import pytest


@pytest.fixture
def tiny_tiles(monkeypatch):
    """Run every level of more than ``_TILE_VALUES`` values in tiles of that
    many, and the band of such levels in band tiles, in the Picard step and
    the walks alike, as only large levels and deep trees do by default;
    returns, for every Picard step, the number of its band tiles."""
    import impact_bsde.bsde as bsde_mod

    def tiles(values):
        monkeypatch.setattr(bsde_mod, "_TILE_VALUES", values)
        seen = []
        step = bsde_mod._PicardKernel.step

        def spy(self, points, pair):
            seen.append(len(self.plans[1]))
            return step(self, points, pair)

        monkeypatch.setattr(bsde_mod._PicardKernel, "step", spy)
        return seen

    return tiles
