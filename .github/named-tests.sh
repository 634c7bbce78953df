#!/usr/bin/env bash
# Runs exactly the named top-level tests of one package, after checking that
# `go test -list` finds every one of them. A -run pattern that matches
# nothing passes, so without the check a renamed or deleted test would leave
# a CI step silently running nothing.
#
#   .github/named-tests.sh PKG 'TestA TestB ...' [go test flags...]
#
# A build tag must be given as -tags=NAME; it is passed to the listing too.
set -euo pipefail
pkg=$1 names=$2
shift 2
pattern="^($(echo $names | tr ' ' '|'))\$"
listflags=()
for f in "$@"; do
	if [[ $f == -tags=* ]]; then listflags+=("$f"); fi
done
listed=$(go test "${listflags[@]}" -list "$pattern" "$pkg")
missing=0
for n in $names; do
	if ! grep -qx "$n" <<<"$listed"; then
		echo "named-tests: $pkg has no test $n" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then exit 1; fi
exec go test "$@" -run "$pattern" "$pkg"
