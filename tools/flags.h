// Command-line flag parsing shared by the dspot tools.

#ifndef DSPOT_TOOLS_FLAGS_H_
#define DSPOT_TOOLS_FLAGS_H_

#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace dspot {

/// Minimal flag parser: --key value and --key=value from argv[first] on.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc;) {
      std::string key = argv[i];
      // "--key=value" carries its value in the same token.
      const size_t eq = key.find('=');
      if (key.rfind("--", 0) == 0 && eq != std::string::npos) {
        const std::string value = key.substr(eq + 1);
        key = key.substr(0, eq);
        present_.push_back(key);
        values_[key] = value;
        i += 1;
        continue;
      }
      present_.push_back(key);
      // "--key value" pairs consume two tokens; a flag followed by another
      // flag (or nothing) is boolean.
      if (key.rfind("--", 0) == 0 && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[i + 1];
        i += 2;
      } else {
        i += 1;
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool HasValue(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  bool Has(const std::string& key) const {
    for (const std::string& p : present_) {
      if (p == key) return true;
    }
    return false;
  }

  /// Every token seen on the command line (flags and positionals alike),
  /// for strict unknown-flag rejection.
  const std::vector<std::string>& Present() const { return present_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> present_;
};

/// A typo'd or removed flag must fail fast, not be silently ignored while
/// the user believes it took effect. Checks every token against `known`:
/// the first stray one prints "<tool>: unknown flag '--x'<hint>" (or
/// "<tool>: unexpected argument 'x'" for a non-flag) and returns false.
inline bool RejectUnknownFlags(const Flags& flags, const char* tool,
                               const char* hint,
                               std::initializer_list<const char*> known) {
  for (const std::string& token : flags.Present()) {
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", tool,
                   token.c_str());
      return false;
    }
    bool is_known = false;
    for (const char* k : known) {
      if (token == k) {
        is_known = true;
        break;
      }
    }
    if (!is_known) {
      std::fprintf(stderr, "%s: unknown flag '%s'%s\n", tool, token.c_str(),
                   hint);
      return false;
    }
  }
  return true;
}

}  // namespace dspot

#endif  // DSPOT_TOOLS_FLAGS_H_
