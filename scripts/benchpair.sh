#!/usr/bin/env bash
# Paired benchmark runs of two versions of this repository:
#
#   scripts/benchpair.sh BASE HEAD WORKLOAD [-seed N] [-pairs N] [-- run.sh flags]
#
# BASE and HEAD are commits (anything `git archive` accepts) or
# directories holding a checkout (`.` is the working tree, uncommitted
# changes included). Each side is copied into its own temporary directory
# and only ever runs `bash benchmark/run.sh -workload WORKLOAD` there, so
# each builds from its own source. A pair is one run of each side; pairs
# alternate which side goes first, because the host drifts for minutes at
# a time (benchmark/README.md). For every end-to-end metric of
# BENCHMARK.json the script prints each side's median [q1, q3], the ratio
# of the medians and the pairs HEAD won (ties count for neither).
# BASE == HEAD is the A/A control: it shows the spread a real difference
# has to exceed. A run that reports failures aborts the comparison.
set -euo pipefail

usage() { sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 3 ] || usage
base=$1 head=$2 workload=$3
shift 3
pairs=10
seed=1
extra=()
while [ $# -gt 0 ]; do
	case $1 in
	-seed) seed=$2; shift 2 ;;
	-pairs) pairs=$2; shift 2 ;;
	--) shift; extra=("$@"); break ;;
	*) usage ;;
	esac
done

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# checkout SIDE REF: REF's files under $tmp/SIDE.
checkout() {
	mkdir -p "$tmp/$1"
	if [ -d "$2" ]; then
		git -C "$2" ls-files -z --cached --others --exclude-standard |
			(cd "$2" && tar --null --files-from=- --ignore-failed-read -cf - 2>/dev/null) | tar -xf - -C "$tmp/$1"
	else
		git -C "$repo" archive "$2" | tar -xf - -C "$tmp/$1"
	fi
	# The Go build cache is content-addressed: seeding it from this
	# repository's own benchmark build saves each side a cold build.
	if [ -d "$repo/.bench_build/gocache" ]; then
		mkdir -p "$tmp/$1/.bench_build"
		cp -r "$repo/.bench_build/gocache" "$tmp/$1/.bench_build/gocache"
	fi
}
checkout base "$base"
checkout head "$head"

# run SIDE: one benchmark run; appends "metric value" lines to $tmp/SIDE.txt.
run() {
	local out
	out=$(cd "$tmp/$1" && bash benchmark/run.sh -workload "$workload" -seed "$seed" ${extra[@]+"${extra[@]}"} 2>&1) || {
		echo "$out" >&2
		echo "benchpair: $1 run failed" >&2
		exit 1
	}
	local json
	json=$(echo "$out" | grep '^{"correct"' | tail -1)
	case $json in
	'{"correct":true,'*'"failed":0,'*) ;;
	*) echo "$out" >&2; echo "benchpair: $1 run reported failures" >&2; exit 1 ;;
	esac
	echo "$json" | grep -o '"[a-z0-9_.]*":{"value":[^,}]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' >>"$tmp/$1.txt"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		echo "pair $i/$pairs: $side" >&2
		run "$side"
	done
done

echo "$workload seed $seed, $pairs pairs: base=$base head=$head"
# Metric names and directions come from BENCHMARK.json's end_to_end list.
awk '
	FNR == 1 { file++ }
	file == 1 {
		if ($0 ~ /"end_to_end"/) in_e2e = 1
		else if ($0 ~ /"per_layer"/) in_e2e = 0
		if (in_e2e && match($0, /"name": *"[^"]*"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); order[++n] = name }
		if (in_e2e && match($0, /"better": *"[^"]*"/)) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b }
		next
	}
	file == 2 { base[$1, ++nb[$1]] = $2; next }
	file == 3 { head[$1, ++nh[$1]] = $2; next }
	function quantile(arr, m, k, q,    i, j, t, v, pos, lo) {
		for (i = 1; i <= k; i++) v[i] = arr[m, i]
		for (i = 2; i <= k; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
		pos = 1 + q * (k - 1); lo = int(pos)
		return lo >= k ? v[k] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
	}
	END {
		printf "%-20s %-34s %-34s %7s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "ratio", "head won"
		for (i = 1; i <= n; i++) {
			m = order[i]; k = nb[m]
			if (!k || nh[m] != k) continue
			won = 0; tied = 0
			for (p = 1; p <= k; p++) {
				d = head[m, p] - base[m, p]
				if (d == 0) tied++
				else if ((d < 0) == (better[m] == "lower")) won++
			}
			bm = quantile(base, m, k, 0.5); hm = quantile(head, m, k, 0.5)
			printf "%-20s %-34s %-34s %7.3f %d/%d%s\n", m,
				sprintf("%.6g [%.6g, %.6g]", bm, quantile(base, m, k, 0.25), quantile(base, m, k, 0.75)),
				sprintf("%.6g [%.6g, %.6g]", hm, quantile(head, m, k, 0.25), quantile(head, m, k, 0.75)),
				bm ? hm / bm : 0, won, k, tied ? sprintf(" (%d tied)", tied) : ""
		}
	}
' "$repo/BENCHMARK.json" "$tmp/base.txt" "$tmp/head.txt"
