#!/usr/bin/env bash
# Reachability census of the simulator layers: internal/sim, network,
# coherence, machine, htm, core and cache. It runs the whole-machine
# tests and the front ends' tests (./cmd/chatsim and the root package)
# with coverage over those seven packages, prints per package how many
# statements no test reached and lists the functions they sit in, and
# fails if such a function is missing from scripts/census-allowlist.txt,
# or if an entry there names no function with an unreached statement
# (fully reached, or gone).
#
#	bash scripts/census.sh
#
# A statement is unreached when its block in the coverage profile holds
# statements and no test binary reached it, so a function with no
# statements (an empty hook) is never listed.
#
# An allowlist line is a function's census key and then its reason. The
# key is the package, the receiver's type for a method, and the name,
# joined by dots: sim.Engine.Step, sim.badPost.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/census-allowlist.txt
census='^chats/internal/(sim|network|coherence|machine|htm|core|cache)/'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

layers=chats/internal/sim,chats/internal/network,chats/internal/coherence,chats/internal/machine
layers+=,chats/internal/htm,chats/internal/core,chats/internal/cache
if ! go test -count=1 -coverpkg="$layers" -coverprofile="$tmp/cover.out" \
	./internal/machine ./internal/experiments ./internal/difftest ./internal/workloads ./internal/invariant \
	./cmd/chatsim . > "$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi

# Unreached blocks as "file line statements", and statements per
# package. The profile lists a block once per test binary; it counts
# once, as reached if any binary reached it.
awk -v re="$census" 'NR > 1 && $1 ~ re { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
END {
	for (b in n) {
		if (b in hit || n[b] == 0) continue
		split(b, p, ":"); split(p[2], q, ".")
		print p[1], q[1], n[b]
	}
}' "$tmp/cover.out" > "$tmp/blocks.txt"
awk -v re="$census" 'NR > 1 && $1 ~ re { n[$1] = $2 }
END {
	for (b in n) { d = b; sub(/\/[^\/]*$/, "", d); total[d] += n[b] }
	while ((getline < blocks) > 0) { d = $1; sub(/\/[^\/]*$/, "", d); unreached[d] += $3 }
	for (d in total) { k = d; sub(/^chats\//, "", k); printf "%s: %d of %d statements unreached\n", k, unreached[d], total[d] }
}' blocks="$tmp/blocks.txt" "$tmp/cover.out" | sort

# Every function as "file line key coverage"; then every function that
# holds an unreached block: the last one in the block's file that starts
# at or above it.
recv='^func \(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)'
go tool cover -func="$tmp/cover.out" | grep -E "$census" |
	while read -r loc name pct; do
		src=${loc#chats/}
		src=${src%%:*}
		line=${loc#*.go:}
		line=${line%:}
		decl=$(sed -n "${line}p" "$src")
		key=$(basename "$(dirname "$src")")
		if [[ $decl =~ $recv ]]; then key+=.${BASH_REMATCH[2]}; fi
		echo "${loc%%:*} $line $key.$name $pct"
	done > "$tmp/funcs.txt"
awk 'NR == FNR { f[$1, ++nf[$1]] = $2; k[$1, nf[$1]] = $3; pct[$3] = $4; next }
{
	best = ""; top = 0
	for (i = 1; i <= nf[$1]; i++) if (f[$1, i] <= $2 && f[$1, i] > top) { top = f[$1, i]; best = k[$1, i] }
	if (best != "" && !(best in seen)) { seen[best] = 1; print best, pct[best] }
}' "$tmp/funcs.txt" "$tmp/blocks.txt" | sort > "$tmp/partial.txt"

status=0
grep -vE '^[[:space:]]*(#|$)' "$allow" > "$tmp/allow.txt" || true
while read -r key pct; do
	reason=$(awk -v k="$key" '$1 == k { $1 = ""; sub(/^ +/, ""); print; exit }' "$tmp/allow.txt")
	if [ -z "$reason" ]; then
		reason="NOT ALLOWED"
		status=1
	fi
	printf '  %-40s %6s  %s\n' "$key" "$pct" "$reason"
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
