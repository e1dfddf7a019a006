#!/usr/bin/env bash
# Every value a library interface exports has a caller outside test/.
#
# Usage: surface.sh ROOT ALLOWLIST
#
# For each `val NAME` in ROOT/lib/*/*.mli (module M, named after the
# file), a caller is either
#   - the qualified name `M.NAME` in any .ml under ROOT/lib, ROOT/bin,
#     ROOT/benchmark or ROOT/examples, or
#   - the bare NAME in M's own .ml, on a line other than the `let`/`and`
#     line that defines it, and not as a field (`x.NAME`) or a label.
#     This rule does not apply to an experiment (lib/study/exp_*.mli):
#     an experiment exports its report and what another module calls, so
#     a value only its own report uses stays private.
# Comments and string literals are stripped first.  Qualified names are
# enough outside the defining module because no file under lib/, bin/,
# benchmark/ or examples/ opens a project module (bin/ opens only
# Cmdliner), so a use through `open` cannot hide.
#
# ALLOWLIST holds `M.NAME  reason` lines (blank lines and `#` comments
# are skipped): values kept for tests or for a planned consumer.  The
# check fails, naming each offender, when a value has no caller and is
# not allowlisted, when an allowlisted value has gained a caller, and
# when an allowlisted name is no longer exported.
#
# ALLOWLIST also pins the number of optional arguments (`?name:`) that
# ROOT/lib/*/*.mli declare outside comments, in an `optional-arguments N`
# line.  The check fails, printing both numbers, when the count differs,
# so adding an option, or removing one, comes with an edit of that line.
set -euo pipefail

root=${1:?usage: surface.sh ROOT ALLOWLIST}
allow=${2:?usage: surface.sh ROOT ALLOWLIST}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Drop (nested) comments and string contents, keeping every newline so
# line structure survives.
strip() {
  perl -0777 -ne '
    my ($out, $depth) = ("", 0);
    while (/\G( [^(*"\x27{]+ | \(\* | \*\) | "(?:[^"\\]|\\.)*"
              | \x27(?:[^\x27\\]|\\(?:\d{3}|x[0-9a-fA-F]{2}|.))\x27
              | \{\|.*?\|\} | . )/gsx) {
      my $t = $1;
      if ($t eq "(*") { $depth++; next }
      if ($t eq "*)" && $depth) { $depth--; next }
      my $nl = "\n" x ($t =~ tr/\n//);
      if ($depth) { $out .= $nl; next }
      $out .= ($t =~ /^["{]/ && length $t > 1) ? "\"\"$nl" : $t;
    }
    print $out' "$1"
}

for dir in lib bin benchmark examples; do
  [ -d "$root/$dir" ] || continue
  while IFS= read -r f; do
    mkdir -p "$tmp/src/$(dirname "$f")"
    strip "$root/$f" > "$tmp/src/$f"
  done < <(cd "$root" && find "$dir" -name '*.ml' -not -path '*/_build/*')
done

grep -rhoE "\b[A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_']*" "$tmp/src" | sort -u > "$tmp/qualified"
awk '!/^[[:space:]]*(#|$)/ && $1 != "optional-arguments" { print $1 }' "$allow" \
  | sort -u > "$tmp/allowed"

id="[A-Za-z0-9_']"
fail=0
: > "$tmp/exported"
for mli in "$root"/lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  m="$(tr '[:lower:]' '[:upper:]' <<< "${base:0:1}")${base:1}"
  ml="$tmp/src/lib/$(basename "$(dirname "$mli")")/$base.ml"
  for v in $(sed -nE "s/^val ([a-z_]$id*).*/\1/p" "$mli"); do
    echo "$m.$v" >> "$tmp/exported"
    called=no
    if grep -qxF "$m.$v" "$tmp/qualified"; then
      called=yes
    elif [ -f "$ml" ] && [[ "$base" != exp_* ]]; then
      grep -vE "^[[:space:]]*(let|and)(\[@[^]]*\])?([[:space:]]+rec)?[[:space:]]+$v($|[^A-Za-z0-9_'])" "$ml" > "$tmp/body" || true
      if grep -qE "(^|[^.~?A-Za-z0-9_'])$v($|[^:A-Za-z0-9_'])" "$tmp/body"; then called=yes; fi
    fi
    if grep -qxF "$m.$v" "$tmp/allowed"; then
      if [ "$called" = yes ]; then
        echo "surface: $m.$v is allowlisted but now has a caller; drop it from $(basename "$allow")"
        fail=1
      fi
    elif [ "$called" = no ]; then
      echo "surface: $m.$v is exported but has no caller outside test/"
      fail=1
    fi
  done
done

while IFS= read -r a; do
  if ! grep -qxF "$a" "$tmp/exported"; then
    echo "surface: $a is allowlisted but no library interface exports it"
    fail=1
  fi
done < "$tmp/allowed"

pinned=$(awk '$1 == "optional-arguments" { print $2 }' "$allow")
options=$(perl -0777 -pe 's/\(\*.*?\*\)//gs' "$root"/lib/*/*.mli | { grep -oE '\?[a-z_]+:' || true; } | wc -l | tr -d ' ')
if [ "$options" != "$pinned" ]; then
  echo "surface: lib/*/*.mli declare $options optional arguments; $(basename "$allow") pins ${pinned:-none}"
  fail=1
fi

exit $fail
