"""``python -m risklab ...`` runs the risklab command line."""

from .cli import main

if __name__ == "__main__":
    main()
