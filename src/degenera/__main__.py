"""`python -m degenera`: the same command line tool as `degenera`."""

from .cli import run

if __name__ == "__main__":
    run()
