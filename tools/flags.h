// Command-line flags of the drli and drli_client tools: --key[=value]
// arguments and strict readers for their values. A value a reader
// rejects -- trailing characters, a non-finite number, a negative or
// out-of-range count -- exits 2 and names the flag, so a typo never
// runs a different query than the one asked for.

#ifndef DRLI_TOOLS_FLAGS_H_
#define DRLI_TOOLS_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/point.h"
#include "scenarios/scenario_box.h"

namespace drli::cli {

using Flags = std::map<std::string, std::string>;

// Parses the --key[=value] arguments argv[first..]; a bare --key is
// "true". A flag outside `accepted` exits 2 naming it, so a mistyped
// or retired flag is never silently ignored.
inline Flags ParseFlags(int argc, char** argv, int first,
                        const char* command,
                        const std::vector<std::string>& accepted) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      std::fprintf(stderr, "unknown flag for %s: --%s\n", command,
                   key.c_str());
      std::exit(2);
    }
    flags[key] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
  return flags;
}

inline std::string GetFlag(const Flags& flags, const std::string& key,
                           const std::string& fallback = "") {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

[[noreturn]] inline void Reject(const std::string& key,
                                const std::string& value,
                                const char* expected) {
  std::fprintf(stderr, "--%s=%s: expected %s\n", key.c_str(), value.c_str(),
               expected);
  std::exit(2);
}

// `text` as a finite number with no trailing characters. Exits 2
// naming --`key` otherwise.
inline double ParseDouble(const std::string& key, const std::string& text) {
  double parsed = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || error != std::errc() || stop != end ||
      !std::isfinite(parsed)) {
    Reject(key, text, "a finite number");
  }
  return parsed;
}

// --key as a whole number -- no sign, no trailing characters, at most
// `max` -- or `fallback` when absent.
inline std::size_t GetSizeFlag(
    const Flags& flags, const std::string& key, std::size_t fallback,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  std::size_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || error != std::errc() || stop != end || parsed > max) {
    Reject(key, text,
           max == std::numeric_limits<std::size_t>::max()
               ? "a non-negative integer"
               : ("an integer in [0, " + std::to_string(max) + "]").c_str());
  }
  return parsed;
}

// --key as a finite non-negative number; `fallback` when absent.
inline double GetDoubleFlag(const Flags& flags, const std::string& key,
                            double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const double parsed = ParseDouble(key, it->second);
  if (parsed < 0.0) Reject(key, it->second, "a non-negative number");
  return parsed;
}

// The comma-separated parts of `value`, empty parts dropped.
inline std::vector<std::string> SplitComma(const std::string& value) {
  std::vector<std::string> parts;
  std::stringstream ss(value);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// --weights=w1,w2,...: one finite number per attribute (the library
// validates signs).
inline Point GetWeightsFlag(const Flags& flags) {
  Point weights;
  for (const std::string& part : SplitComma(GetFlag(flags, "weights"))) {
    weights.push_back(ParseDouble("weights", part));
  }
  return weights;
}

// --box=lo:hi,lo:hi,... -- one inclusive range per attribute; an empty
// side is unbounded, a bare ":" leaves the attribute unconstrained.
inline AttributeBox GetBoxFlag(const Flags& flags) {
  const std::string value = GetFlag(flags, "box");
  const std::vector<std::string> parts = SplitComma(value);
  AttributeBox box = AttributeBox::All(parts.size());
  for (std::size_t a = 0; a < parts.size(); ++a) {
    const std::size_t colon = parts[a].find(':');
    if (colon == std::string::npos) Reject("box", value, "lo:hi components");
    const std::string lo = parts[a].substr(0, colon);
    const std::string hi = parts[a].substr(colon + 1);
    if (!lo.empty()) box.lo[a] = ParseDouble("box", lo);
    if (!hi.empty()) box.hi[a] = ParseDouble("box", hi);
  }
  return box;
}

}  // namespace drli::cli

#endif  // DRLI_TOOLS_FLAGS_H_
