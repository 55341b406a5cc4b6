#!/usr/bin/env bash
# CLI contract for `janus_cli fleet --policy`:
#
#   * unknown names are rejected with a ONE-line error that lists the
#     valid policies and exits 2 (a distinct usage-class code: 1 is a
#     runtime failure) — never a silent fallback to fixed;
#   * an empty --policy value is an error, not "no flag";
#   * a valid mixed-policy set actually runs end to end and reports the
#     per-tenant policy column;
#   * a --shards count above the cap (1024) is a range failure: exit 1
#     with a one-line error, before any shard thread starts.
#
# usage: cli_fleet_policy_test.sh /path/to/janus_cli
set -u

cli="${1:?usage: cli_fleet_policy_test.sh /path/to/janus_cli}"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# ---- unknown policy: exit 2, one line, lists the valid set ------------
err=$("$cli" fleet --policy nope 2>&1 >/dev/null)
code=$?
[ "$code" -eq 2 ] || fail "unknown policy exited $code, want 2"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
  || fail "unknown policy error is not one line: $err"
case "$err" in
  *"unknown policy 'nope'"*) ;;
  *) fail "error does not name the bad policy: $err" ;;
esac
for name in fixed janus janus- janus+ orion grandslam grandslam+ \
            mean_based optimal; do
  case "$err" in
    *"$name"*) ;;
    *) fail "error does not list valid policy $name: $err" ;;
  esac
done

# ---- one bad name inside an otherwise valid list still fails ----------
"$cli" fleet --policy janus,bogus,orion >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "mixed list with bad name exited $code, want 2"

# ---- empty value is an error, not an accidental default ---------------
"$cli" fleet --policy "" >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "empty --policy exited $code, want 2"

# ---- trailing/interior empty segments are errors too ------------------
for bad in "janus," ",janus" "janus,,orion"; do
  "$cli" fleet --policy "$bad" >/dev/null 2>&1
  code=$?
  [ "$code" -eq 2 ] || fail "--policy '$bad' exited $code, want 2"
done

# ---- valid mix runs end to end and reports the policy column ----------
out=$("$cli" fleet --policy janus,orion,mean_based --tenants 3 \
      --requests 40 --shards 2 --epoch-s 30 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "valid mixed-policy fleet exited $code: $out"
for name in janus orion mean_based; do
  case "$out" in
    *"$name"*) ;;
    *) fail "fleet table does not show policy $name: $out" ;;
  esac
done

# ---- and the same mix in --json carries per-tenant policy fields ------
out=$("$cli" fleet --policy janus,orion --tenants 2 --requests 40 \
      --json 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "json mixed-policy fleet exited $code: $out"
case "$out" in
  *'"policy": "janus"'*) ;;
  *) fail "json output lacks the tenant policy field: $out" ;;
esac

# ---- --shards above the cap: exit 1, one line, names the cap ----------
err=$("$cli" fleet --tenants 2 --requests 5 --shards 1025 2>&1 >/dev/null)
code=$?
[ "$code" -eq 1 ] || fail "--shards 1025 exited $code, want 1"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
  || fail "--shards cap error is not one line: $err"
case "$err" in
  *"1024"*) ;;
  *) fail "--shards cap error does not name the cap: $err" ;;
esac

if [ "$failures" -gt 0 ]; then
  echo "cli_fleet_policy_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_fleet_policy_test: all checks passed"
