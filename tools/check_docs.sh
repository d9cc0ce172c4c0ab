#!/usr/bin/env bash
# Documentation checks (CI "docs" job and the docs/check ctest):
#   1. Every relative markdown link in README.md, ROADMAP.md, and docs/*.md
#      resolves to an existing file.
#   2. docs/REPRODUCE.md mentions every bench target registered in
#      bench/CMakeLists.txt, so a new bench cannot land undocumented.
#   3. Every backticked `src/...` path in README.md and docs/*.md exists
#      (one {a,b} brace group is expanded; globs such as `x.*` must match).
# Usage: tools/check_docs.sh [repo-root]   (defaults to the script's parent)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
fail=0

# --- 1. dead relative links -------------------------------------------------
docs=("$root/README.md" "$root/ROADMAP.md")
for f in "$root"/docs/*.md; do
  [ -e "$f" ] && docs+=("$f")
done

for f in "${docs[@]}"; do
  [ -f "$f" ] || { echo "MISSING DOC: $f"; fail=1; continue; }
  dir=$(dirname "$f")
  # Markdown inline links: capture the (target) part, strip anchors/titles.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*|"") continue ;;
    esac
    target="${target%%#*}"          # drop in-page anchors
    target="${target%% *}"          # drop optional "title" part
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "DEAD LINK: $f -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. REPRODUCE.md covers every bench target ------------------------------
reproduce="$root/docs/REPRODUCE.md"
if [ ! -f "$reproduce" ]; then
  echo "MISSING: docs/REPRODUCE.md"
  fail=1
else
  while IFS= read -r bench; do
    # Word-anchored so e.g. a new target "bench_fig13" is not satisfied by the
    # existing "bench_fig13_slo" row ("_" counts as a word character).
    if ! grep -qE "\b${bench}\b" "$reproduce"; then
      echo "UNDOCUMENTED BENCH: $bench missing from docs/REPRODUCE.md"
      fail=1
    fi
  done < <(grep -oE 'bench_[a-z0-9_]+' "$root/bench/CMakeLists.txt" | sort -u)
fi

# --- 3. backticked src/ paths exist ----------------------------------------
for f in "${docs[@]}"; do
  [ "$f" = "$root/ROADMAP.md" ] && continue  # names planned files too
  [ -f "$f" ] || continue
  while IFS= read -r path; do
    expanded=("$path")
    if [[ "$path" =~ ^(.*)\{([^}]*)\}(.*)$ ]]; then
      expanded=()
      IFS=, read -ra alts <<< "${BASH_REMATCH[2]}"
      for alt in "${alts[@]}"; do
        expanded+=("${BASH_REMATCH[1]}${alt}${BASH_REMATCH[3]}")
      done
    fi
    for p in "${expanded[@]}"; do
      if ! compgen -G "$root/$p" > /dev/null; then
        echo "DEAD SRC PATH: $f -> $p"
        fail=1
      fi
    done
  done < <(grep -oE '`src/[^`]*`' "$f" | tr -d '`' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK (${#docs[@]} files, all links and src/ paths resolve, all benches documented)"
