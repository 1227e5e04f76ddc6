import pytest


@pytest.fixture
def tiny_tiles(monkeypatch):
    """Run every level of more than ``_TILE_VALUES`` values in tiles of that
    many, the band of such levels in band tiles, and both root subtrees on
    their own thread, in the Picard step and the walks alike, as only large
    levels and deep trees do by default; returns, for every root subtree
    the Picard step runs, its part, the number of parts and the number of
    its band tiles."""
    import impact_bsde.bsde as bsde_mod

    def tiles(values):
        monkeypatch.setattr(bsde_mod, "_TILE_VALUES", values)
        monkeypatch.setattr(bsde_mod, "_SPLIT_VALUES", 1)
        monkeypatch.setattr(bsde_mod, "_usable_cpus", lambda: 2)
        seen = []
        subtree = bsde_mod._PicardKernel.subtree

        def spy(self, job, w):
            seen.append((w, self.cut.parts, len(self.plans[w][1])))
            return subtree(self, job, w)

        monkeypatch.setattr(bsde_mod._PicardKernel, "subtree", spy)
        return seen

    return tiles
