// Fixture: a runtime knob that swaps the algorithm behind the caller's back.
#include <cstdlib>

bool use_fast_path() {
  const char* v = std::getenv("ESAMR_FAST_PATH");  // FINDING env-knob (line 5)
  return v != nullptr && v[0] == '1';
}
