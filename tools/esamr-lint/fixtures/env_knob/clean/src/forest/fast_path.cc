// Fixture: the choice is an argument, not std::getenv("...") — mentions of
// getenv in comments and string literals must not fire the rule.
struct Config {
  bool fast_path = true;
};

bool use_fast_path(const Config& cfg) { return cfg.fast_path; }

const char* knob_hint() { return "never call getenv() in library code"; }
