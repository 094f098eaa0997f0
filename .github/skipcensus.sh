#!/bin/sh
# Reads `go test -json` events on stdin, prints the tests' output, and
# fails when a package or test failed, or was skipped without a line in
# the allow list named by $1. A line there is "package[ test]: reason",
# so a test that stops running fails CI instead of passing unseen.
#
#	go test -json ./... | sh .github/skipcensus.sh testdata/skips.txt
set -eu
events=$(mktemp)
allowed=$(mktemp)
trap 'rm -f "$events" "$allowed"' EXIT
tee "$events" | jq -j 'select(.Action == "output") | .Output'
sed -n 's/^\([^#][^:]*\): ..*$/\1/p' "$1" >"$allowed"
unlisted=$(jq -r 'select(.Action == "skip") | .Package + (if .Test then " " + .Test else "" end)' "$events" |
	sort -u | grep -vxF -f "$allowed" || true)
if [ -n "$unlisted" ]; then
	printf 'skipped, and not listed with a reason in %s:\n%s\n' "$1" "$unlisted" >&2
	exit 1
fi
if jq -e -n '[inputs | select(.Action == "fail")] | length > 0' "$events" >/dev/null; then
	echo 'go test reported a failure' >&2
	exit 1
fi
