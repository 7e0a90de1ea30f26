#!/usr/bin/env bash
# loc.sh — prints the size figures CHANGES.md's simplicity table
# compares, for the Go module rooted at DIR (default: this repository):
#
#   - non-test Go lines, counted by ROADMAP's command;
#   - code-only lines: the same files without blank lines and without
#     lines that hold only a // comment;
#   - per package, the exported symbols `go doc -short` lists and the
#     exported methods `go doc -all` lists, with their totals.
#
# It only prints; it gates nothing. Run it on the parent checkout and on
# the change, and take the table's before/after figures from the two:
#
#   scripts/loc.sh               # this tree
#   scripts/loc.sh ../parent     # another checkout of the module
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

gofiles() { find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*'; }
echo "non-test Go lines: $(gofiles | xargs cat | wc -l)"
echo "code-only lines:   $(gofiles | xargs cat | grep -cvE '^[[:space:]]*(//.*)?$')"
echo

printf '%-40s %8s %8s\n' package symbols methods
symbols=0
methods=0
for pkg in $(go list ./...); do
	s=$(go doc -short "$pkg" 2>/dev/null | grep -c . || true)
	m=$(go doc -all "$pkg" 2>/dev/null | grep -cE '^[[:space:]]*func \([^)]*\) [A-Z]' || true)
	printf '%-40s %8d %8d\n' "$pkg" "$s" "$m"
	symbols=$((symbols + s))
	methods=$((methods + m))
done
printf '%-40s %8d %8d\n' total "$symbols" "$methods"
