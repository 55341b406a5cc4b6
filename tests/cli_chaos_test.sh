#!/usr/bin/env bash
# CLI contract for `janus_cli fleet --chaos` / `--chaos-seed` / `--flash`:
#
#   * an unknown chaos family is rejected with a ONE-line error that lists
#     the valid set and exits 2 (the --policy usage-class contract) —
#     never a silent calm run;
#   * knob dependencies fail up front (--chaos-seed needs --chaos; barrier
#     families need a finite --epoch-s; --flash conflicts with chaos
#     flash), before any simulation work;
#   * a valid chaos run prints the chaos summary line, carries the chaos
#     section in --json, and reports the SAME injection counts at any
#     shard count and with the streaming merge (--stream).
#
# usage: cli_chaos_test.sh /path/to/janus_cli
set -u

cli="${1:?usage: cli_chaos_test.sh /path/to/janus_cli}"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# ---- unknown family: exit 2, one line, lists the valid set ------------
err=$("$cli" fleet --chaos bogus 2>&1 >/dev/null)
code=$?
[ "$code" -eq 2 ] || fail "unknown chaos family exited $code, want 2"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
  || fail "unknown chaos error is not one line: $err"
case "$err" in
  *"unknown --chaos 'bogus'"*) ;;
  *) fail "error does not name the bad spec: $err" ;;
esac
for name in failures preemption storms flash all none; do
  case "$err" in
    *"$name"*) ;;
    *) fail "error does not list chaos family $name: $err" ;;
  esac
done

# ---- one bad family inside an otherwise valid list still fails --------
"$cli" fleet --chaos failures,bogus --epoch-s 20 >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "mixed list with bad family exited $code, want 2"

# ---- empty value is an error, not an accidental calm run --------------
"$cli" fleet --chaos "" >/dev/null 2>&1
code=$?
[ "$code" -eq 2 ] || fail "empty --chaos exited $code, want 2"

# ---- --chaos-seed without --chaos is a hard error ---------------------
err=$("$cli" fleet --chaos-seed 9 2>&1 >/dev/null)
code=$?
[ "$code" -ne 0 ] || fail "--chaos-seed without --chaos exited 0"
case "$err" in
  *"--chaos-seed needs --chaos"*) ;;
  *) fail "dangling --chaos-seed error unclear: $err" ;;
esac

# ---- barrier families without a finite --epoch-s fail up front --------
err=$("$cli" fleet --chaos failures 2>&1 >/dev/null)
code=$?
[ "$code" -ne 0 ] || fail "--chaos failures without --epoch-s exited 0"
case "$err" in
  *"--epoch-s"*) ;;
  *) fail "barrier-family error does not mention --epoch-s: $err" ;;
esac
# ...but flash alone works on the static path (no --epoch-s needed).
"$cli" fleet --chaos flash --tenants 2 --requests 30 >/dev/null 2>&1
code=$?
[ "$code" -eq 0 ] || fail "--chaos flash on the static path exited $code"

# ---- a NaN epoch length is rejected, not read as "no barriers" -------
err=$("$cli" fleet --epoch-s nan 2>&1 >/dev/null)
code=$?
[ "$code" -ne 0 ] || fail "--epoch-s nan exited 0"
case "$err" in
  *"--epoch-s"*) ;;
  *) fail "NaN epoch error does not name --epoch-s: $err" ;;
esac

# ---- --flash: malformed windows and the chaos-flash conflict ----------
for bad in "10:20" "a:b:c" "10:20:2:9"; do
  "$cli" fleet --flash "$bad" >/dev/null 2>&1
  code=$?
  [ "$code" -ne 0 ] || fail "malformed --flash '$bad' exited 0"
done
err=$("$cli" fleet --chaos all --epoch-s 20 --flash 10:20:2 2>&1 >/dev/null)
code=$?
[ "$code" -ne 0 ] || fail "--flash combined with --chaos flash exited 0"
case "$err" in
  *"--flash"*) ;;
  *) fail "flash-conflict error unclear: $err" ;;
esac
"$cli" fleet --flash 10:20:2 --tenants 2 --requests 30 >/dev/null 2>&1
code=$?
[ "$code" -eq 0 ] || fail "valid --flash window exited $code"

# ---- a valid chaos run prints the summary line ------------------------
out=$("$cli" fleet --tenants 3 --requests 60 --shards 2 --epoch-s 20 \
      --chaos all --chaos-seed 3 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "valid chaos fleet exited $code: $out"
case "$out" in
  *"chaos: "*"node failures"*"flash windows"*) ;;
  *) fail "chaos summary line missing: $out" ;;
esac

# ---- --chaos none is calm: no chaos line, exit 0 ----------------------
out=$("$cli" fleet --tenants 2 --requests 30 --chaos none 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "--chaos none exited $code: $out"
case "$out" in
  *"chaos: "*) fail "--chaos none still printed a chaos line: $out" ;;
esac

# ---- --json carries the chaos section ---------------------------------
out=$("$cli" fleet --tenants 2 --requests 30 --epoch-s 20 --chaos all \
      --json 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "json chaos fleet exited $code: $out"
for key in '"chaos"' '"node_failures"' '"flash_windows"' '"events"'; do
  case "$out" in
    *"$key"*) ;;
    *) fail "json output lacks $key: $out" ;;
  esac
done

# ---- the injection counts are shard-invariant -------------------------
line1=$("$cli" fleet --tenants 3 --requests 60 --shards 1 --epoch-s 20 \
        --chaos all --chaos-seed 3 2>/dev/null | grep '^chaos:')
line4=$("$cli" fleet --tenants 3 --requests 60 --shards 4 --epoch-s 20 \
        --chaos all --chaos-seed 3 2>/dev/null | grep '^chaos:')
[ -n "$line1" ] || fail "shard-1 run printed no chaos line"
[ "$line1" = "$line4" ] \
  || fail "chaos summary differs across shard counts: '$line1' vs '$line4'"

# ---- the streaming merge reports the same chaos line as the dense run --
dense=$("$cli" fleet --tenants 3 --requests 60 --epoch-s 20 --chaos all \
        --chaos-seed 3 2>/dev/null | grep '^chaos:')
out=$("$cli" fleet --tenants 3 --requests 60 --epoch-s 20 --chaos all \
      --chaos-seed 3 --stream 2>&1)
code=$?
[ "$code" -eq 0 ] || fail "streamed chaos fleet exited $code: $out"
streamed=$(printf '%s\n' "$out" | grep '^chaos:')
[ -n "$streamed" ] || fail "streamed chaos run printed no chaos line"
[ "$streamed" = "$dense" ] \
  || fail "chaos summary differs when streamed: '$streamed' vs '$dense'"

if [ "$failures" -gt 0 ]; then
  echo "cli_chaos_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_chaos_test: all checks passed"
