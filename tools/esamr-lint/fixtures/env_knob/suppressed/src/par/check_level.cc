// Fixture: a process-wide switch kept on purpose, with its reason stated.
#include <cstdlib>

int default_check_level() {
  // esamr-lint: allow(env-knob) — arms the checker for whole-binary test reruns
  const char* v = std::getenv("ESAMR_CHECK");
  return v != nullptr ? v[0] - '0' : 0;
}
