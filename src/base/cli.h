// The command-line front door shared by every swcaffe_* tool and bench: a
// typed flag table, a --help generated from it, and one exit-code contract.
// Dependency-free by design (no CLI library), like the rest of the repo.
//
//   int tool(int argc, char** argv) {
//     cli::Parser("usage: tool [flags]\n",
//                 {cli::flag("--threads", &threads, 1, 256, "threads")})
//         .parse(argc, argv);
//     ...
//   }
//   int main(int argc, char** argv) { return cli::run(argc, argv, tool); }
//
// A flag takes `--name value` or `--name=value`. Numbers must parse as a
// whole string, be finite and lie in the declared range: the ranges live on
// the declarations, where the outside input arrives, while the library
// SWC_CHECKs stay internal invariants.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "base/log.h"

namespace swcaffe::base::cli {

/// The exit codes of every CLI (README.md, "Exit codes").
enum ExitCode : int {
  kExitOk = 0,         ///< success
  kExitVerdict = 1,    ///< the tool's own verdict failed
  kExitUsage = 2,      ///< unknown flag, missing or bad value
  kExitInput = 3,      ///< an input file is unreadable or unparsable
  kExitInternal = 70,  ///< an escaped CheckError or std::exception
};

/// A bad command line; run() exits with kExitUsage.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An unreadable or unparsable input file; run() exits with kExitInput.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by Parser::parse after it printed --help; run() exits kExitOk.
struct HelpShown {};

/// Upper bound of every --threads flag.
inline constexpr int kMaxThreads = 256;
/// Upper bound of a node count that is only priced: the full TaihuLight.
inline constexpr int kMaxNodes = 40960;
/// Upper bound of a count of functional replicas, each of which holds a
/// full tensor copy of the net (swcaffe_train --nodes).
inline constexpr int kMaxReplicas = 64;

/// One row of a flag table.
struct Flag {
  std::string name;     ///< "--iterations"
  std::string metavar;  ///< "N"; empty for a switch
  std::string help;     ///< one line, with the range and default
  /// The value may only be attached as --name=value; bare --name is a
  /// switch (swcaffe_check --timeline).
  bool optional_value = false;
  /// Stores a value ("" for a switch); throws UsageError on a bad one.
  std::function<void(const std::string&)> set;
};

namespace detail {
template <typename T>
std::string interval(T lo, T hi, bool lo_open) {
  std::ostringstream os;
  os << (lo_open ? '(' : '[') << lo << ", " << hi << ']';
  return os.str();
}
}  // namespace detail

/// Parses `text` as a whole T (int, int64, uint64 or double): no leading
/// space or '+', no trailing garbage ("1x", "12abc"), no overflow, finite,
/// and in [lo, hi] — (lo, hi] with `lo_open`. `what` names it in the
/// UsageError.
template <typename T>
T parse_number(const std::string& text, std::type_identity_t<T> lo,
               std::type_identity_t<T> hi, const std::string& what,
               bool lo_open = false) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError(what + " expects a number, got '" + text + "'");
  }
  if (!std::isfinite(static_cast<double>(v))) {
    throw UsageError(what + " must be finite, got '" + text + "'");
  }
  if (v < lo || (lo_open && v == lo) || v > hi) {
    throw UsageError(what + " must be in " +
                     detail::interval(lo, hi, lo_open) + ", got " + text);
  }
  return v;
}

/// A number flag (int, int64, uint64 or double) with its range.
template <typename T>
Flag flag(const char* name, T* out, std::type_identity_t<T> lo,
          std::type_identity_t<T> hi, const char* help, bool lo_open = false) {
  std::ostringstream text;
  text << help << ", " << detail::interval(lo, hi, lo_open) << " (default "
       << *out << ")";
  const std::string n = name;
  return {n, std::is_floating_point_v<T> ? "X" : "N", text.str(), false,
          [=](const std::string& v) {
            *out = parse_number<T>(v, lo, hi, n, lo_open);
          }};
}

/// Any uint64 (seeds).
inline Flag flag(const char* name, std::uint64_t* out, const char* help) {
  Flag f = flag<std::uint64_t>(
      name, out, 0, std::numeric_limits<std::uint64_t>::max(), help);
  f.help = std::string(help) + " (default " + std::to_string(*out) + ")";
  return f;
}
Flag flag(const char* name, std::string* out, const char* metavar,
          const char* help);
/// A switch: sets *out to true.
Flag toggle(const char* name, bool* out, const char* help);
/// A switch that may also carry a value, as --name=value only.
Flag optional(const char* name, bool* on, std::string* value,
              const char* metavar, const char* help);

/// An enum flag through the repo's `bool x_from_name(const char*, T*)`, or
/// through a throwing `T parse_x(const std::string&)` whose CheckError on a
/// bad value becomes a UsageError.
template <typename T, typename Parse>
Flag choice(const char* name, T* out, Parse parse, const char* names,
            const char* help) {
  const std::string n = name;
  return {n, names, help, false, [=](const std::string& v) {
            bool known = true;
            if constexpr (std::is_invocable_r_v<bool, Parse, const char*, T*>) {
              known = parse(v.c_str(), out);
            } else {
              try {
                *out = parse(v);
              } catch (const CheckError& e) {
                throw UsageError("bad " + n + " '" + v + "': " + e.what());
              }
            }
            if (!known) {
              throw UsageError("unknown " + n + " '" + v + "' (" + names + ")");
            }
          }};
}

class Parser {
 public:
  /// `usage` opens --help: the synopsis and what the tool does. At most
  /// `max_positional` non-flag arguments are accepted.
  Parser(std::string usage, std::vector<Flag> flags,
         std::size_t max_positional = 0);

  /// Applies every flag of argv[1..] in order and returns the positional
  /// arguments. Throws UsageError; prints help() and throws HelpShown on
  /// --help or -h.
  std::vector<std::string> parse(int argc, char** argv);

  /// parse() for mains that do not run under run(): a usage error or
  /// --help ends the process here with the shared exit code.
  std::vector<std::string> parse_or_exit(int argc, char** argv);

  /// Applies flag `name` to `value` as if it came as --name=value: how a
  /// legacy positional argument reuses its flag's type and range.
  void set(const std::string& name, const std::string& value) const;

  /// Whether the last parse() set flag `name`.
  bool seen(const std::string& name) const;

  /// The usage text, one line per flag, and the shared exit-code footer.
  std::string help() const;

 private:
  const Flag& find(const std::string& name) const;

  std::string usage_;
  std::vector<Flag> flags_;
  std::size_t max_positional_;
  std::vector<std::string> seen_;
};

/// The shared top level of every CLI main. Runs tool(argc, argv) and maps
/// what escapes it onto the exit codes above, so that no CLI ends on a
/// signal: UsageError 2, InputError 3, any other exception 70.
int run(int argc, char** argv, int (*tool)(int, char**));

/// Calls `load(path)`; a CheckError it throws (file missing or malformed)
/// becomes an InputError, exit code 3.
template <typename Load>
auto read_input(const std::string& path, Load&& load) -> decltype(load(path)) {
  try {
    return load(path);
  } catch (const CheckError& e) {
    throw InputError("cannot read " + path + ": " + e.what());
  }
}

}  // namespace swcaffe::base::cli
