// Tests for the shared command-line front door (base/cli): both value
// forms, whole-string finite range-checked numbers, the --timeline
// optional-value form, the generated help, the exit-code handler, and a
// seeded property test in the json_fuzz_test style — random argv mutations
// against a declared table either parse to values inside the declared
// ranges or throw UsageError, and never anything else.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cli.h"
#include "base/log.h"
#include "proptest.h"

namespace swcaffe::base {
namespace {

using proptest::for_all;
using proptest::Rng;

enum class Mode { kFast, kSlow };

bool mode_from_name(const char* name, Mode* out) {
  if (std::string(name) == "fast") {
    *out = Mode::kFast;
  } else if (std::string(name) == "slow") {
    *out = Mode::kSlow;
  } else {
    return false;
  }
  return true;
}

/// A throwing parser like sched::parse_policy or fault::parse_fault_spec.
int parse_level(const std::string& name) {
  SWC_CHECK_MSG(name == "low" || name == "high", "unknown level " << name);
  return name == "low" ? 1 : 2;
}

/// A declared table with one flag of every kind, bound to its own members.
struct Table {
  int threads = 1;
  std::int64_t quantum = 25;
  std::uint64_t seed = 1;
  double rate = 1.0;
  double delay = 2.0;
  std::string model = "alexnet";
  bool tune = false;
  bool timeline = false;
  std::string timeline_file;
  Mode mode = Mode::kFast;
  int level = 0;
  cli::Parser parser{
      "usage: table [flags] [model]\n",
      {
          cli::flag("--threads", &threads, 1, cli::kMaxThreads, "threads"),
          cli::flag("--quantum", &quantum, 1, 1000000, "quantum"),
          cli::flag("--seed", &seed, "seed"),
          cli::flag("--rate", &rate, 0.0, 1000.0, "rate", true),
          cli::flag("--delay", &delay, 0.0, 10.0, "delay"),
          cli::flag("--model", &model, "M", "model"),
          cli::toggle("--tune", &tune, "tune"),
          cli::optional("--timeline", &timeline, &timeline_file, "FILE",
                        "timeline"),
          cli::choice("--mode", &mode, mode_from_name, "fast|slow", "mode"),
          cli::choice("--level", &level, parse_level, "low|high", "level"),
      },
      1};

  std::vector<std::string> parse(std::vector<std::string> args) {
    args.insert(args.begin(), "table");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(CliTest, SpaceAndEqualsFormsAreTheSame) {
  Table a, b;
  a.parse({"--threads", "8", "--rate", "2.5", "--model", "vgg16", "--seed",
           "18446744073709551615", "--mode", "slow", "--level", "high"});
  b.parse({"--threads=8", "--rate=2.5", "--model=vgg16",
           "--seed=18446744073709551615", "--mode=slow", "--level=high"});
  for (const Table* t : {&a, &b}) {
    EXPECT_EQ(t->threads, 8);
    EXPECT_EQ(t->rate, 2.5);
    EXPECT_EQ(t->model, "vgg16");
    EXPECT_EQ(t->seed, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(t->mode, Mode::kSlow);
    EXPECT_EQ(t->level, 2);
  }
  EXPECT_TRUE(a.parser.seen("--rate"));
  EXPECT_FALSE(a.parser.seen("--delay"));
}

TEST(CliTest, DefaultsStayWithoutFlags) {
  Table t;
  EXPECT_TRUE(t.parse({}).empty());
  EXPECT_EQ(t.threads, 1);
  EXPECT_EQ(t.model, "alexnet");
  EXPECT_FALSE(t.tune);
}

TEST(CliTest, MissingValueUnknownFlagAndExtraPositionalAreUsageErrors) {
  EXPECT_THROW(Table().parse({"--threads"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"--model"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"--bogus"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"--bogus=1"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"-x"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"--tune=1"}), cli::UsageError);
  EXPECT_THROW(Table().parse({"a", "b"}), cli::UsageError);
  EXPECT_EQ(Table().parse({"a"}), std::vector<std::string>{"a"});
}

TEST(CliTest, NumbersMustParseAsAWholeString) {
  for (const char* bad : {"1x", "12abc", "abc", "", " 5", "5 ", "+3", "0x10",
                          "1.5", "-", "1e3"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Table().parse({"--threads", bad}), cli::UsageError);
    EXPECT_THROW(Table().parse({"--quantum", bad}), cli::UsageError);
  }
  for (const char* bad : {"1x", "2.5.1", "abc", "", "-1", "+1", " 1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Table().parse({"--seed", bad}), cli::UsageError);
  }
  for (const char* bad : {"1x", "2.5abc", "abc", "", "0x1p3 "}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Table().parse({"--rate", bad}), cli::UsageError);
  }
}

TEST(CliTest, NonFiniteOverflowAndOutOfRangeAreRejected) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e400",
                          "-5", "0", "1000.5"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Table().parse({"--rate", bad}), cli::UsageError);
  }
  for (const char* bad : {"99999999999999999999", "2147483648", "0", "-3",
                          "257"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(Table().parse({"--threads", bad}), cli::UsageError);
  }
  EXPECT_THROW(Table().parse({"--seed", "18446744073709551616"}),
               cli::UsageError);
  EXPECT_THROW(Table().parse({"--quantum", "9223372036854775808"}),
               cli::UsageError);
  // Closed lower bound of --delay, open one of --rate.
  Table t;
  t.parse({"--delay", "0", "--rate", "1e-9", "--threads", "256"});
  EXPECT_EQ(t.delay, 0.0);
  EXPECT_EQ(t.rate, 1e-9);
  EXPECT_EQ(t.threads, cli::kMaxThreads);
}

TEST(CliTest, EnumFlagsRejectUnknownNames) {
  EXPECT_THROW(Table().parse({"--mode", "medium"}), cli::UsageError);
  // The throwing parser's CheckError surfaces as a UsageError.
  EXPECT_THROW(Table().parse({"--level", "max"}), cli::UsageError);
}

TEST(CliTest, OptionalValueOnlyAttachesWithEquals) {
  Table bare;
  EXPECT_TRUE(bare.parse({"--timeline"}).empty());
  EXPECT_TRUE(bare.timeline);
  EXPECT_EQ(bare.timeline_file, "");

  Table attached;
  attached.parse({"--timeline=sched.json"});
  EXPECT_TRUE(attached.timeline);
  EXPECT_EQ(attached.timeline_file, "sched.json");

  // `--timeline FILE` is a switch followed by a positional argument.
  Table spaced;
  EXPECT_EQ(spaced.parse({"--timeline", "vgg16"}),
            std::vector<std::string>{"vgg16"});
  EXPECT_TRUE(spaced.timeline);
  EXPECT_EQ(spaced.timeline_file, "");
}

TEST(CliTest, SetAppliesAFlagsTypeAndRange) {
  Table t;
  t.parser.set("--threads", "16");
  EXPECT_EQ(t.threads, 16);
  EXPECT_THROW(t.parser.set("--threads", "1x"), cli::UsageError);
  EXPECT_THROW(t.parser.set("--tune", "1"), cli::UsageError);
}

TEST(CliTest, HelpStatesEveryFlagRangeDefaultAndTheExitCodes) {
  Table t;
  const std::string help = t.parser.help();
  EXPECT_EQ(help.rfind("usage: table", 0), 0u);
  for (const char* name : {"--threads N", "--quantum N", "--seed N",
                           "--rate X", "--delay X", "--model M", "--tune",
                           "--timeline[=FILE]", "--mode fast|slow",
                           "--help, -h"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
  // Count flags state their upper bound; ranges use interval notation.
  EXPECT_NE(help.find("threads, [1, 256] (default 1)"), std::string::npos);
  EXPECT_NE(help.find("rate, (0, 1000] (default 1)"), std::string::npos);
  EXPECT_NE(help.find("model (default alexnet)"), std::string::npos);
  for (const char* code : {"  0   ", "  1   ", "  2   ", "  3   ", "  70  "}) {
    EXPECT_NE(help.find(code), std::string::npos) << code;
  }

  testing::internal::CaptureStdout();
  EXPECT_THROW(Table().parse({"--threads", "3", "--help"}), cli::HelpShown);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), help);
  testing::internal::CaptureStdout();
  EXPECT_THROW(Table().parse({"-h"}), cli::HelpShown);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), help);
}

int tool_ok(int, char**) { return 0; }
int tool_verdict(int, char**) { return cli::kExitVerdict; }
int tool_usage(int, char**) { throw cli::UsageError("bad flag"); }
int tool_input(int, char**) { throw cli::InputError("bad file"); }
int tool_check(int, char**) {
  SWC_CHECK_GT(0, 1);
  return 0;
}
int tool_exception(int, char**) { throw std::runtime_error("boom"); }
int tool_other(int, char**) { throw 42; }
int tool_help(int argc, char** argv) {
  Table().parser.parse(argc, argv);
  return 5;
}

TEST(CliTest, RunMapsEveryOutcomeOntoTheExitCodes) {
  std::string prog = "/bin/tool", help = "--help";
  char* argv[] = {prog.data(), help.data()};
  testing::internal::CaptureStderr();
  testing::internal::CaptureStdout();
  EXPECT_EQ(cli::run(1, argv, tool_ok), 0);
  EXPECT_EQ(cli::run(1, argv, tool_verdict), 1);
  EXPECT_EQ(cli::run(1, argv, tool_usage), 2);
  EXPECT_EQ(cli::run(1, argv, tool_input), 3);
  EXPECT_EQ(cli::run(1, argv, tool_check), 70);
  EXPECT_EQ(cli::run(1, argv, tool_exception), 70);
  EXPECT_EQ(cli::run(1, argv, tool_other), 70);
  EXPECT_EQ(cli::run(1, argv, tool_help), 5);
  EXPECT_EQ(cli::run(2, argv, tool_help), 0);
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tool: bad flag (see --help)"), std::string::npos);
  EXPECT_NE(err.find("tool: bad file"), std::string::npos);
  EXPECT_NE(err.find("tool: internal error: boom"), std::string::npos);
}

TEST(CliTest, ReadInputTurnsACheckErrorIntoAnInputError) {
  const auto load = [](const std::string& path) -> int {
    SWC_CHECK_MSG(path == "good", "cannot open " << path);
    return 7;
  };
  EXPECT_EQ(cli::read_input(std::string("good"), load), 7);
  EXPECT_THROW(cli::read_input(std::string("missing"), load),
               cli::InputError);
}

/// A random value string: in range, at the edges, out of range, or junk.
std::string random_value(Rng& rng) {
  static const char* kJunk[] = {
      "",      "1x",   "12abc", "nan",  "inf",    "-inf",   "1e400",
      "-1",    "0",    "256",   "257",  "1000",   "1000.5", "0.0",
      "1e-9",  "+3",   " 5",    "0x10", "fast",   "slow",   "low",
      "high",  "=",    "--",    "-",    "--help=", "99999999999999999999",
      "18446744073709551615",   "9223372036854775807"};
  switch (rng.next_below(4)) {
    case 0:
      return std::to_string(rng.next_int(-5, 300));
    case 1:
      return std::to_string(rng.next_double() * 2000.0 - 500.0);
    case 2:
      return kJunk[rng.next_below(std::size(kJunk))];
    default: {
      // Random bytes, but never "-h": a standalone one would print help.
      std::string bytes(rng.next_below(6), ' ');
      for (char& c : bytes) c = static_cast<char>(1 + rng.next_below(255));
      if (!bytes.empty() && bytes[0] == '-') bytes[0] = 'x';
      return bytes;
    }
  }
}

TEST(CliTest, RandomArgvEitherParsesInRangeOrIsAUsageError) {
  static const char* kNames[] = {
      "--threads", "--quantum", "--seed",  "--rate",     "--delay",
      "--model",   "--tune",    "--mode",  "--level",    "--timeline",
      "--bogus",   "-t",        "--thread", "--threads2", "model"};
  int accepted = 0, rejected = 0;
  for_all(0xC11ULL, 2000, [&](Rng& rng, int) {
    std::vector<std::string> args;
    const int n = static_cast<int>(rng.next_below(6));
    for (int k = 0; k < n; ++k) {
      const std::string name = kNames[rng.next_below(std::size(kNames))];
      switch (rng.next_below(3)) {
        case 0:
          args.push_back(name);
          break;
        case 1:
          args.push_back(name);
          args.push_back(random_value(rng));
          break;
        default:
          args.push_back(name + "=" + random_value(rng));
      }
    }
    Table t;
    try {
      t.parse(args);
      ++accepted;
      EXPECT_GE(t.threads, 1);
      EXPECT_LE(t.threads, cli::kMaxThreads);
      EXPECT_GE(t.quantum, 1);
      EXPECT_LE(t.quantum, 1000000);
      EXPECT_GT(t.rate, 0.0);
      EXPECT_LE(t.rate, 1000.0);
      EXPECT_GE(t.delay, 0.0);
      EXPECT_LE(t.delay, 10.0);
      EXPECT_TRUE(t.level == 0 || t.level == 1 || t.level == 2);
    } catch (const cli::UsageError&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "argv parse threw something other than UsageError";
    }
  });
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace swcaffe::base
