#!/bin/sh
# A campaign run merges its rows into the catalogue it writes to: run
# one small cell (rep5 at slots 1) on a copy of the committed
# catalogue, then check that every committed row survives unchanged
# and in order, with the one new row appended after them.
# usage: catalogue_merge.sh ULDMA_CLI
set -eu
cli=$1
# _results/ is invisible to dune, so walk up from the build directory
dir=$PWD
while [ ! -f "$dir/_results/collusion_catalogue.csv" ]; do
  if [ "$dir" = / ]; then
    echo "catalogue_merge: no _results/collusion_catalogue.csv above $PWD" >&2
    exit 1
  fi
  dir=$(dirname "$dir")
done
committed=$dir/_results/collusion_catalogue.csv
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$committed" "$tmp/catalogue.csv"
"$cli" campaign --slots 1 --mechs rep5 --out "$tmp/catalogue.csv" > /dev/null
n=$(wc -l < "$committed")
if ! head -n "$n" "$tmp/catalogue.csv" | cmp -s - "$committed"; then
  echo "catalogue_merge: the committed rows changed" >&2
  exit 1
fi
if [ "$(wc -l < "$tmp/catalogue.csv")" -ne $((n + 1)) ] \
  || ! tail -n 1 "$tmp/catalogue.csv" | grep -q '^rep5,null,1,'; then
  echo "catalogue_merge: expected one appended rep5,null,1 row" >&2
  exit 1
fi
