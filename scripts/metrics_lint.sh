#!/bin/sh
# Metrics-catalogue lint: every metric family registered in non-test
# source must have a row in DESIGN.md §12's catalogue table, and that
# row's Type column must name the kind the source registers: counter,
# gauge or histogram, with "(func)" for a func-backed series. New
# instruments land with documentation or CI fails here — the catalogue
# is the contract dashboards are built on.
set -eu

DESIGN=${DESIGN:-DESIGN.md}
if [ ! -f "$DESIGN" ]; then
    echo "metrics lint: $DESIGN not found" >&2
    exit 1
fi

# "<family> <kind>" for every registration call site: any
# Counter*/Gauge*/Histogram* registrar (CounterVec, GaugeFuncVec, …)
# called with a "seer_" literal — not every string mentioning a series,
# so derived _sum/_count/_bucket references don't count. The kind is
# the registrar's instrument, plus "(func)" for a Func registrar.
registered=$(grep -rhoE \
    '(Counter|Gauge|Histogram)[A-Za-z]*\("seer_[a-z_]+"' \
    --include='*.go' --exclude='*_test.go' cmd/ internal/ \
    | sed -E 's/^([A-Za-z]+)\("(seer_[a-z_]+)"/\2 \1/' \
    | awk '{ kind = tolower($2); sub(/vec$/, "", kind)
             if (sub(/func$/, "", kind)) kind = kind " (func)"
             print $1, kind }' \
    | sort -u)

if [ -z "$registered" ]; then
    echo "metrics lint: no registered families found (regex rot?)" >&2
    exit 1
fi

# "<family> <type>" for every family named in the first column of §12's
# table.
documented=$(awk -F'|' '
    /^## 12\./ { in12 = 1; next }
    /^## / { in12 = 0 }
    in12 && $2 ~ /`seer_/ {
        kind = $3; gsub(/^ +| +$/, "", kind)
        s = $2
        while (match(s, /seer_[a-z_]+/)) {
            print substr(s, RSTART, RLENGTH), kind
            s = substr(s, RSTART + RLENGTH)
        }
    }' "$DESIGN")

status=0
count=0
# The here-document keeps the loop in this shell, so status survives;
# read leaves the rest of the line, "(func)" included, in kind.
while read -r family kind; do
    count=$((count + 1))
    doc=$(echo "$documented" | awk -v f="$family" '$1 == f { sub(/^[^ ]+ /, ""); print; exit }')
    if [ -z "$doc" ]; then
        echo "UNDOCUMENTED metric family: $family (add a row to $DESIGN §12's table)" >&2
        status=1
    elif [ "$doc" != "$kind" ]; then
        echo "WRONG TYPE for $family: registered as $kind, $DESIGN §12 says $doc" >&2
        status=1
    fi
done <<EOF
$registered
EOF

if [ $status -ne 0 ]; then
    exit $status
fi
echo "metrics lint: all $count registered families documented in $DESIGN §12 with their types"
