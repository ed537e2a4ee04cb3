"""Backscatter node models: tags, reader front end, energy, populations.

These are the simulation stand-ins for the paper's hardware (§7): UMass Moo
computational RFIDs, Alien Squiggle commercial tags, and the USRP reader.
Tags hold identity, message, channel and clock; the energy model prices
their transmission records; the reader front end turns per-slot transmit
decisions into noisy received symbols and makes occupied/empty calls;
populations bundle a deployment draw.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.nodes.energy": (
            "EnergyProfile",
            "MOO_ENERGY_PROFILE",
            "TransmissionCost",
        ),
        "repro.nodes.population": ("TagPopulation", "make_population"),
        "repro.nodes.reader": ("ReaderFrontEnd",),
        "repro.nodes.tag": ("BackscatterTag",),
    },
)
