"""python -m hypball: the hypball command line."""
from .cli import main

main()
