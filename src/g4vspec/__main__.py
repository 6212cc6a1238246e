"""``python -m g4vspec``: the g4vspec command-line interface."""
from .cli import main

if __name__ == "__main__":
    main()
