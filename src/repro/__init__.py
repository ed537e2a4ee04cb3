"""repro — a signal-level reproduction of Buzz (SIGCOMM 2012).

Wang, Hassanieh, Katabi, Indyk: *Efficient and Reliable Low-Power
Backscatter Networks*. The package implements the paper's two protocols —
compressive-sensing node identification and distributed rateless rate
adaptation — together with every substrate they stand on (backscatter PHY,
EPC Gen-2 link layer, sparse-recovery solvers, TDMA/CDMA baselines) and an
experiment harness that regenerates each figure and table of the paper's
evaluation.

Entry points:

* ``python -m repro`` — the CLI (``repro.__main__``): figures by name, plus
  the ``worker`` and ``cache`` subcommands;
* :func:`repro.engine.run_campaign` over a :class:`repro.engine.CampaignSpec`
  — every campaign figure's one entry point;
* the single-system tour:

>>> from repro.core import BuzzSystem
>>> from repro.network.scenarios import default_uplink_scenario
>>> from repro.nodes import ReaderFrontEnd

The packages import their submodules only when a name is first used, so
building a campaign spec loads no decoder.

See README.md for a tour, its "Architecture" section for the design and
its "Performance" section for the measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
