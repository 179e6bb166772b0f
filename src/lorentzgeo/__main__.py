"""`python -m lorentzgeo`: the command-line front end of lorentzgeo.cli."""

from .cli import main

raise SystemExit(main())
