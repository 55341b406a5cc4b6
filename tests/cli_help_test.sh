#!/usr/bin/env bash
# Help-text audit for janus_cli: the usage screen and the parser must
# name exactly the same flag set, in both directions —
#
#   * every --flag the help text documents must appear as a string
#     literal in the parser/whitelists (tools/janus_cli.cpp), so the
#     docs cannot advertise a flag the binary rejects;
#   * every --flag the source parses must appear in the help text, so a
#     new flag cannot ship undocumented.
#
# Plus the frontier subcommand's contract: `help`/`--help` exit 0 and
# document `frontier`; frontier without its required --step exits 2 with
# a one-line error naming the flag; an unknown flag exits 2.
#
# Plus the exit-code contract, one table row per case: usage errors exit
# 2, malformed or out-of-range values exit 1, help exits 0, and every
# rejection is exactly one stderr line naming the flag involved.  A write
# that fails (a full device, directly or through a symlink) exits 1.
#
# usage: cli_help_test.sh /path/to/janus_cli
set -u

cli="${1:?usage: cli_help_test.sh /path/to/janus_cli}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
src="$repo/tools/janus_cli.cpp"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# ---- help exits 0, under both spellings -------------------------------
help_text=$("$cli" help 2>&1) || fail "'janus_cli help' exited nonzero"
"$cli" --help >/dev/null 2>&1 || fail "'janus_cli --help' exited nonzero"
case "$help_text" in
  *"janus_cli frontier"*) ;;
  *) fail "help text does not document the frontier subcommand" ;;
esac

# ---- documented vs parsed flag sets, both directions ------------------
documented=$(printf '%s\n' "$help_text" | grep -oE -- '--[a-z0-9-]+' \
             | sort -u)
parsed=$(grep -oE '"--[a-z0-9-]+"' "$src" | tr -d '"' | sort -u)
[ -n "$documented" ] || fail "no flags found in help text"
[ -n "$parsed" ] || fail "no flag literals found in $src"

for flag in $documented; do
  printf '%s\n' "$parsed" | grep -qx -- "$flag" \
    || fail "help documents $flag but the source never parses it"
done
for flag in $parsed; do
  printf '%s\n' "$documented" | grep -qx -- "$flag" \
    || fail "source parses $flag but the help text never documents it"
done

# ---- frontier flag contract -------------------------------------------
err=$("$cli" frontier 2>&1 >/dev/null)
code=$?
[ "$code" -eq 2 ] || fail "frontier without --step exited $code, want 2"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
  || fail "missing --step error is not one line: $err"
case "$err" in
  *"--step"*) ;;
  *) fail "missing --step error does not name the flag: $err" ;;
esac

"$cli" frontier --step 10 --no-such-flag >/dev/null 2>&1
[ $? -eq 2 ] || fail "frontier with an unknown flag did not exit 2"

# ---- exit-code contract ----------------------------------------------
# Each row: expected exit, the text the error must name ('-' = none), argv.
while read -r want names args; do
  err=$("$cli" $args 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq "$want" ] || fail "'$args' exited $code, want $want"
  if [ "$want" -eq 0 ]; then
    [ -z "$err" ] || fail "'$args' wrote to stderr: $err"
    continue
  fi
  [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] && [ -n "$err" ] \
    || fail "'$args' error is not one line: $err"
  if [ "$names" != "-" ]; then
    case "$err" in
      *"$names"*) ;;
      *) fail "'$args' error does not name $names: $err" ;;
    esac
  fi
done <<'ROWS'
2 --no-such-flag   fleet --no-such-flag
2 --slo-target     fleet --slo-target 0.9
2 --tenants        serve ia --tenants 3
2 no-such-command  no-such-command
2 --step           frontier
2 usage:           serve
2 usage:           fleet extra
1 --tenants        fleet --tenants 1e3
1 --epoch-s        fleet --epoch-s nan
1 --rate           fleet --rate inf
1 --rate           fleet --rate inf --arrivals poisson
1 --contention-alpha fleet --contention-alpha inf
1 --flash          fleet --flash 1:2:inf
1 --seed           fleet --seed 99999999999999999999999
1 --tenants        fleet --tenants 0
1 --shards         fleet --shards 1025
1 --obs-sample     fleet --obs-sample 0
1 --step           frontier --step 0
1 --tenants        fleet --tenants
1 [requests]       serve ia 10abc
1 [requests]       serve ia 7.9
1 [weight]         synthesize ia out 1.5x
1 <budget-ms>      lookup hints.csv 12q
0 -                help
0 -                --help
0 -                fleet --help
ROWS

# ---- a failed write fails the run -------------------------------------
if [ -w /dev/full ]; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  ln -s /dev/full "$tmp/x.json"
  small="--tenants 2 --requests 5"
  for args in \
      "fleet $small --shard-slice 0:2 --result-bin /dev/full" \
      "fleet $small --trace-out $tmp/x.json" \
      "frontier $small --step 5 --stop 5 --bisect 0 --json-out /dev/full"; do
    err=$("$cli" $args 2>&1 >/dev/null)
    code=$?
    [ "$code" -eq 1 ] || fail "'$args' exited $code, want 1"
    [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
      || fail "'$args' write error is not one line: $err"
    case "$err" in
      *"cannot write"*) ;;
      *) fail "'$args' error does not report the failed write: $err" ;;
    esac
  done
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_help_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_help_test: OK"
