#!/bin/sh
# Prints each given Rust file's non-test code, as `file:line: text`: every
# line above the file's first line-initial `#[cfg(test)]`. The CI guards grep
# this and the size report counts it.
exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{print FILENAME":"FNR": "$0}' "$@"
