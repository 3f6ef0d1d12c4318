"""``python -m moboga``: the same command line as the ``moboga`` script."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
