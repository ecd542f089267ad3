#!/usr/bin/env bash
# Reachability census of internal/sim and internal/network. It runs the
# whole-machine tests with coverage over every simulator layer, prints
# how many statements of the two packages no test reached and the
# functions they sit in, and fails if such a function is missing from
# scripts/census-allowlist.txt, or if an entry there names no function
# with an unreached statement (fully reached, or gone).
#
#	bash scripts/census.sh
#
# An allowlist line is a function's census key and then its reason. The
# key is the package, the receiver's type for a method, and the name,
# joined by dots: sim.Engine.Step, sim.badPost.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/census-allowlist.txt
census='^chats/internal/(sim|network)/'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

layers=chats/internal/sim,chats/internal/network,chats/internal/coherence,chats/internal/machine
layers+=,chats/internal/htm,chats/internal/core,chats/internal/cache
if ! go test -count=1 -coverpkg="$layers" -coverprofile="$tmp/cover.out" \
	./internal/machine ./internal/experiments ./internal/difftest ./internal/workloads ./internal/invariant \
	> "$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi

# Statements per package. The profile lists a block once per test
# binary; it counts once, as reached if any binary reached it.
awk -v re="$census" 'NR > 1 && $1 ~ re { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
END {
	for (b in n) {
		d = b; sub(/\/[^\/]*$/, "", d); sub(/^chats\//, "", d)
		total[d] += n[b]
		if (!(b in hit)) unreached[d] += n[b]
	}
	for (d in total) printf "%s: %d of %d statements unreached\n", d, unreached[d], total[d]
}' "$tmp/cover.out" | sort

# Every function not fully reached, as "key coverage".
recv='^func \(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)'
go tool cover -func="$tmp/cover.out" | grep -E "$census" | awk '$NF != "100.0%"' |
	while read -r loc name pct; do
		src=${loc#chats/}
		src=${src%%:*}
		line=${loc#*.go:}
		decl=$(sed -n "${line%:}p" "$src")
		key=$(basename "$(dirname "$src")")
		if [[ $decl =~ $recv ]]; then key+=.${BASH_REMATCH[2]}; fi
		echo "$key.$name $pct"
	done > "$tmp/partial.txt"

status=0
grep -vE '^[[:space:]]*(#|$)' "$allow" > "$tmp/allow.txt" || true
while read -r key pct; do
	reason=$(awk -v k="$key" '$1 == k { $1 = ""; sub(/^ +/, ""); print; exit }' "$tmp/allow.txt")
	if [ -z "$reason" ]; then
		reason="NOT ALLOWED"
		status=1
	fi
	printf '  %-32s %6s  %s\n' "$key" "$pct" "$reason"
done < "$tmp/partial.txt"
while read -r key reason; do
	if [ -z "$reason" ]; then
		echo "census: allowlist entry $key gives no reason"
		status=1
	elif ! grep -q "^$key " "$tmp/partial.txt"; then
		echo "census: allowlist entry $key names no function with an unreached statement; delete it"
		status=1
	fi
done < "$tmp/allow.txt"
if [ "$status" != 0 ]; then
	echo "census: failed; a new unreached statement needs a test, a panic that states its invariant, deletion, or an allowlist entry with its reason"
fi
exit "$status"
