#!/usr/bin/env bash
# loc.sh — prints the size figures CHANGES.md's simplicity table
# compares, for the Go module rooted at DIR (default: this repository):
#
#   - non-test Go lines, counted by ROADMAP's command;
#   - code-only lines: the same files without blank lines and without
#     lines that hold only a // comment;
#   - per package, the exported symbols `go doc -short` lists, and the
#     exported methods and exported struct fields `go doc -all` lists,
#     with their totals. A field is one settable value (the simplicity
#     table's knob count): each name of a struct's top-level field lines
#     counts, fields of nested anonymous structs do not.
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

# fields counts the exported field names declared one tab deep inside
# the `type T struct {` blocks of a `go doc -all` listing; `A, B int`
# is two.
fields() {
	awk '/^type [^ ]+ struct \{$/ { body = 1; next }
		body && /^}/ { body = 0; next }
		body && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z0-9_]+)*/) {
			names = substr($0, RSTART, RLENGTH)
			n += gsub(/,/, ",", names) + 1
		}
		END { print n + 0 }'
}

printf '%-40s %8s %8s %8s\n' package symbols methods fields
symbols=0
methods=0
nfields=0
for pkg in $(go list ./...); do
	all=$(go doc -all "$pkg" 2>/dev/null || true)
	s=$(go doc -short "$pkg" 2>/dev/null | grep -c . || true)
	m=$(grep -cE '^[[:space:]]*func \([^)]*\) [A-Z]' <<<"$all" || true)
	f=$(fields <<<"$all")
	printf '%-40s %8d %8d %8d\n' "$pkg" "$s" "$m" "$f"
	symbols=$((symbols + s))
	methods=$((methods + m))
	nfields=$((nfields + f))
done
printf '%-40s %8d %8d %8d\n' total "$symbols" "$methods" "$nfields"
