#!/usr/bin/env bash
# Regression test for the lint gate's exit-code handling: a parva_audit
# usage/IO error (exit 2) must fail scripts/lint.sh, never read as a clean
# pass, and findings (exit 1) must fail it too.
#
# Usage: lint_exit_codes_test.sh <parva_audit_binary> <repo_root>
set -u

AUDIT_BIN="$1"
REPO_ROOT="$2"
FAILURES=0

expect_rc() {
  local want="$1" got="$2" what="$3"
  if [[ "${got}" -eq "${want}" ]]; then
    echo "ok: ${what} (exit ${got})"
  else
    echo "FAIL: ${what}: expected exit ${want}, got ${got}"
    FAILURES=$((FAILURES + 1))
  fi
}

expect_nonzero() {
  local got="$1" what="$2"
  if [[ "${got}" -ne 0 ]]; then
    echo "ok: ${what} (exit ${got})"
  else
    echo "FAIL: ${what}: expected nonzero exit, got 0"
    FAILURES=$((FAILURES + 1))
  fi
}

# --- parva_audit's own exit-code contract ---------------------------------

"${AUDIT_BIN}" --no-such-flag >/dev/null 2>&1
expect_rc 2 $? "parva_audit rejects an unknown flag with exit 2"

"${AUDIT_BIN}" >/dev/null 2>&1
expect_rc 2 $? "parva_audit with no paths is a usage error (exit 2)"

"${AUDIT_BIN}" --format bogus src >/dev/null 2>&1
expect_rc 2 $? "parva_audit rejects an unknown --format with exit 2"

"${AUDIT_BIN}" --format json "${REPO_ROOT}/src" >/dev/null 2>&1
expect_rc 2 $? "parva_audit has no json format (text and sarif only)"

"${AUDIT_BIN}" --baseline /dev/null "${REPO_ROOT}/src" >/dev/null 2>&1
expect_rc 2 $? "parva_audit has no --baseline (allow() is the one suppression)"

"${AUDIT_BIN}" /nonexistent/path/parva >/dev/null 2>&1
expect_rc 2 $? "parva_audit reports an unreadable path with exit 2"

# --- lint.sh must propagate both failure modes ----------------------------

STUB_DIR="$(mktemp -d)"
trap 'rm -rf "${STUB_DIR}"' EXIT

cat > "${STUB_DIR}/audit_exit2" <<'EOF'
#!/usr/bin/env bash
exit 2
EOF
cat > "${STUB_DIR}/audit_exit1" <<'EOF'
#!/usr/bin/env bash
exit 1
EOF
chmod +x "${STUB_DIR}/audit_exit2" "${STUB_DIR}/audit_exit1"

(cd "${REPO_ROOT}" && PARVA_AUDIT_BIN="${STUB_DIR}/audit_exit2" \
    ./scripts/lint.sh --audit-only >/dev/null 2>&1)
expect_nonzero $? "lint.sh fails when parva_audit exits 2 (usage/IO error)"

(cd "${REPO_ROOT}" && PARVA_AUDIT_BIN="${STUB_DIR}/audit_exit1" \
    ./scripts/lint.sh --audit-only >/dev/null 2>&1)
expect_rc 1 $? "lint.sh fails when parva_audit exits 1 (findings)"

(cd "${REPO_ROOT}" && PARVA_AUDIT_BIN="${STUB_DIR}/missing" \
    ./scripts/lint.sh --audit-only >/dev/null 2>&1)
expect_rc 2 $? "lint.sh rejects a non-executable PARVA_AUDIT_BIN"

(cd "${REPO_ROOT}" && ./scripts/lint.sh --bogus-flag >/dev/null 2>&1)
expect_rc 2 $? "lint.sh rejects an unknown flag with exit 2"

# --- and the real binary still passes the gate ----------------------------

(cd "${REPO_ROOT}" && PARVA_AUDIT_BIN="${AUDIT_BIN}" \
    ./scripts/lint.sh --audit-only >/dev/null 2>&1)
expect_rc 0 $? "lint.sh passes with the real parva_audit on a clean tree"

if [[ "${FAILURES}" -ne 0 ]]; then
  echo "lint_exit_codes_test: ${FAILURES} failure(s)"
  exit 1
fi
echo "lint_exit_codes_test: all checks passed"
