#include "base/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace swcaffe::base::cli {
namespace {

std::string program_name(int argc, char** argv) {
  const std::string path = argc > 0 ? argv[0] : "swcaffe";
  return path.substr(path.find_last_of('/') + 1);
}

/// The handler behind run() and Parser::parse_or_exit().
int guarded(const std::string& program, const std::function<int()>& body) {
  try {
    return body();
  } catch (const HelpShown&) {
    return kExitOk;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s (see --help)\n", program.c_str(), e.what());
    return kExitUsage;
  } catch (const InputError& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    return kExitInput;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: internal error: %s\n", program.c_str(),
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "%s: internal error\n", program.c_str());
  }
  return kExitInternal;
}

}  // namespace

Flag flag(const char* name, std::string* out, const char* metavar,
          const char* help) {
  std::string text = help;
  if (!out->empty()) text += " (default " + *out + ")";
  return {name, metavar, text, false,
          [=](const std::string& v) { *out = v; }};
}

Flag toggle(const char* name, bool* out, const char* help) {
  return {name, "", help, false, [=](const std::string&) { *out = true; }};
}

Flag optional(const char* name, bool* on, std::string* value,
              const char* metavar, const char* help) {
  return {name, metavar, help, true, [=](const std::string& v) {
            *on = true;
            *value = v;
          }};
}

Parser::Parser(std::string usage, std::vector<Flag> flags,
               std::size_t max_positional)
    : usage_(std::move(usage)),
      flags_(std::move(flags)),
      max_positional_(max_positional) {}

std::vector<std::string> Parser::parse(int argc, char** argv) {
  seen_.clear();
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      throw HelpShown{};
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (positional.size() == max_positional_) {
        throw UsageError("unexpected argument '" + arg + "'");
      }
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag& f = find(name);
    if (eq != std::string::npos) {
      set(name, arg.substr(eq + 1));
    } else if (f.metavar.empty() || f.optional_value) {
      f.set("");
    } else if (i + 1 < argc) {
      f.set(argv[++i]);
    } else {
      throw UsageError("missing value for " + name);
    }
    seen_.push_back(name);
  }
  return positional;
}

std::vector<std::string> Parser::parse_or_exit(int argc, char** argv) {
  std::vector<std::string> positional;
  const int code = guarded(program_name(argc, argv), [&] {
    positional = parse(argc, argv);
    return -1;
  });
  if (code != -1) std::exit(code);
  return positional;
}

void Parser::set(const std::string& name, const std::string& value) const {
  const Flag& f = find(name);
  if (f.metavar.empty()) throw UsageError(name + " takes no value");
  f.set(value);
}

const Flag& Parser::find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return f;
  }
  throw UsageError("unknown flag " + name);
}

bool Parser::seen(const std::string& name) const {
  return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
}

std::string Parser::help() const {
  std::string out = usage_ + "\nflags:\n";
  // Names in a 26-column gutter; a longer name puts its text below.
  const auto row = [&out](std::string head, const std::string& text) {
    head = "  " + head;
    head += head.size() <= 26 ? std::string(26 - head.size(), ' ')
                              : "\n" + std::string(26, ' ');
    out += head + " " + text + "\n";
  };
  for (const Flag& f : flags_) {
    const std::string value = f.optional_value ? "[=" + f.metavar + "]"
                              : f.metavar.empty() ? ""
                                                  : " " + f.metavar;
    row(f.name + value, f.help);
  }
  row("--help, -h", "print this help and exit");
  return out +
         "\nexit codes:\n"
         "  0   success\n"
         "  1   the tool's own verdict failed (see above)\n"
         "  2   usage error: unknown flag, missing or bad value\n"
         "  3   input file unreadable or unparsable\n"
         "  70  internal error: a failed check escaped\n";
}

int run(int argc, char** argv, int (*tool)(int, char**)) {
  return guarded(program_name(argc, argv), [&] { return tool(argc, argv); });
}

}  // namespace swcaffe::base::cli
