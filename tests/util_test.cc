#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/table.h"

namespace wrbpg {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 3), 0);
  EXPECT_EQ(CeilDiv(1, 3), 1);
  EXPECT_EQ(CeilDiv(3, 3), 1);
  EXPECT_EQ(CeilDiv(4, 3), 2);
  EXPECT_EQ(CeilDiv(96, 96), 1);
  EXPECT_EQ(CeilDiv(97, 96), 2);
}

TEST(MathUtil, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(-4));
  EXPECT_FALSE(IsPowerOfTwo(4095));
}

TEST(MathUtil, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(2), 2);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(160), 256);   // Table 1: DWT Equal optimum
  EXPECT_EQ(NextPowerOfTwo(288), 512);   // Table 1: DWT DA optimum
  EXPECT_EQ(NextPowerOfTwo(1584), 2048); // Table 1: MVM Equal tiling
  EXPECT_EQ(NextPowerOfTwo(4624), 8192); // Table 1: MVM DA IOOpt
}

TEST(MathUtil, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(3), 1);
  EXPECT_EQ(FloorLog2(256), 8);
  EXPECT_EQ(FloorLog2(257), 8);
}

TEST(MathUtil, TwoAdicValuation) {
  EXPECT_EQ(TwoAdicValuation(1), 0);
  EXPECT_EQ(TwoAdicValuation(2), 1);
  EXPECT_EQ(TwoAdicValuation(12), 2);
  EXPECT_EQ(TwoAdicValuation(256), 8);
  EXPECT_EQ(TwoAdicValuation(96), 5);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  std::vector<std::uint64_t> va, vb, vc;
  for (int i = 0; i < 100; ++i) {
    va.push_back(a.Next());
    vb.push_back(b.Next());
    vc.push_back(c.Next());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(9, 9), 9);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// ThreadPool, TaskGroup, and ParallelFor are covered in
// thread_pool_test.cc together with the parallel-search contract tests.

TEST(Csv, PlainRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, NumericFields) {
  EXPECT_EQ(CsvWriter::Field(std::int64_t{-42}), "-42");
  EXPECT_EQ(CsvWriter::Field(2.5), "2.5");
}

// Regression: Field(double) must round-trip exactly. The old ostream
// default truncated to 6 significant digits, so benchmark ratios like
// speedups and time_ms values came back corrupted from the CSVs.
TEST(Csv, DoubleFieldsRoundTripExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           80.604142,     // a real elapsed_ms sample
                           0.1 + 0.2,     // classic non-representable sum
                           1e-300,
                           -1.7976931348623157e308,  // lowest finite double
                           123456.789012345,
                           9007199254740993.0};      // > 2^53
  for (const double v : values) {
    const std::string field = CsvWriter::Field(v);
    EXPECT_EQ(std::stod(field), v) << "field was '" << field << "'";
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "v"});
  t.AddRow({"x", "10"});
  t.AddRow({"longer", "7"});
  std::ostringstream out;
  t.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 7  |"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: a bare `--flag` followed by a non-flag token consumes it as the
  // flag's value, so boolean flags go last or use `--flag=true`.
  const char* argv[] = {"prog", "--alpha=3", "--name", "dwt",
                        "pos1", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_TRUE(args.error().empty());
  EXPECT_EQ(args.GetInt("alpha", 0), 3);
  EXPECT_EQ(args.GetString("name", ""), "dwt");
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetInt("missing", 99), 99);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, DoubleAndBoolParsing) {
  const char* argv[] = {"prog", "--ratio=0.5", "--flag=no"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0.0), 0.5);
  EXPECT_FALSE(args.GetBool("flag", true));
}

TEST(Cli, RejectsEmptyNumericValues) {
  // `--budget=` is a typo for `--budget=N`; coercing it to the fallback
  // would silently schedule under the wrong memory size.
  const char* argv[] = {"prog", "--budget="};
  CliArgs args(2, argv);
  EXPECT_EQ(args.GetInt("budget", 64), 64);  // fallback returned...
  EXPECT_FALSE(args.error().empty());        // ...but the error is recorded
  EXPECT_NE(args.error().find("budget"), std::string::npos);
}

TEST(Cli, RejectsEmptyDoubleValues) {
  const char* argv[] = {"prog", "--deadline-ms="};
  CliArgs args(2, argv);
  EXPECT_DOUBLE_EQ(args.GetDouble("deadline-ms", 1.5), 1.5);
  EXPECT_FALSE(args.error().empty());
}

TEST(Cli, DetectsDuplicateFlags) {
  const char* argv[] = {"prog", "--budget=3", "--budget=7"};
  CliArgs args(3, argv);
  EXPECT_FALSE(args.error().empty());
  EXPECT_NE(args.error().find("duplicate"), std::string::npos);
  EXPECT_NE(args.error().find("budget"), std::string::npos);
}

TEST(Cli, DetectsDuplicateAcrossSyntaxes) {
  const char* argv[] = {"prog", "--algo=belady", "--algo", "greedy"};
  CliArgs args(4, argv);
  EXPECT_FALSE(args.error().empty());
  EXPECT_NE(args.error().find("duplicate"), std::string::npos);
}

TEST(Cli, ReportsIntOverflow) {
  const char* argv[] = {"prog", "--budget=99999999999999999999"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.GetInt("budget", -1), -1);
  EXPECT_FALSE(args.error().empty());
  EXPECT_NE(args.error().find("overflow"), std::string::npos);
}

TEST(Cli, ReportsTrailingJunkOnNumbers) {
  const char* argv[] = {"prog", "--budget=64kb"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.GetInt("budget", -1), -1);
  EXPECT_FALSE(args.error().empty());
}

TEST(Cli, FirstErrorWins) {
  const char* argv[] = {"prog", "--a=x", "--b=y"};
  CliArgs args(3, argv);
  args.GetInt("a", 0);
  const std::string first = args.error();
  args.GetInt("b", 0);
  EXPECT_EQ(args.error(), first);
  EXPECT_NE(first.find("a"), std::string::npos);
}

// The per-verb flag registry used by CheckVerbFlags tests.
const std::vector<VerbFlags> kTable = {
    {"info", {}},
    {"schedule", {"budget", "engine", "deadline-ms"}},
    {"serve", {"cache-mb", "deadline-ms"}},
};
const std::vector<std::string> kGlobal = {"threads", "metrics-json"};

TEST(Cli, CheckVerbFlagsAcceptsOwnAndGlobalFlags) {
  const char* argv[] = {"prog", "schedule", "--budget=64", "--threads=2"};
  const CliArgs args(4, argv);
  EXPECT_TRUE(args.CheckVerbFlags("schedule", kTable, kGlobal));
  EXPECT_TRUE(args.error().empty());
}

TEST(Cli, CheckVerbFlagsNamesTheOwningVerb) {
  // The regression this guards: a flag passed to the wrong verb must be
  // rejected with a consistent error that names the verb that owns it,
  // not silently ignored or reported as merely unknown.
  const char* argv[] = {"prog", "info", "--engine=bb"};
  const CliArgs args(3, argv);
  EXPECT_FALSE(args.CheckVerbFlags("info", kTable, kGlobal));
  EXPECT_EQ(args.error(),
            "flag '--engine' belongs to verb 'schedule', not 'info'");
}

TEST(Cli, CheckVerbFlagsNamesEveryOwningVerb) {
  const char* argv[] = {"prog", "info", "--deadline-ms=5"};
  const CliArgs args(3, argv);
  EXPECT_FALSE(args.CheckVerbFlags("info", kTable, kGlobal));
  EXPECT_EQ(args.error(),
            "flag '--deadline-ms' belongs to verb 'schedule'/'serve', "
            "not 'info'");
}

TEST(Cli, CheckVerbFlagsReportsTrulyUnknownFlags) {
  const char* argv[] = {"prog", "info", "--bogus=1"};
  const CliArgs args(3, argv);
  EXPECT_FALSE(args.CheckVerbFlags("info", kTable, kGlobal));
  EXPECT_EQ(args.error(), "unknown flag '--bogus' for verb 'info'");
}

TEST(Cli, CheckVerbFlagsUnknownVerbStillChecksGlobals) {
  // A verb absent from the table accepts only global flags.
  const char* argv[] = {"prog", "mystery", "--threads=2"};
  const CliArgs args(3, argv);
  EXPECT_TRUE(args.CheckVerbFlags("mystery", kTable, kGlobal));
  const char* argv2[] = {"prog", "mystery", "--budget=64"};
  const CliArgs args2(3, argv2);
  EXPECT_FALSE(args2.CheckVerbFlags("mystery", kTable, kGlobal));
  EXPECT_NE(args2.error().find("belongs to verb"), std::string::npos);
}

// Positional counts after the verb, for CheckVerbArity tests.
const std::vector<VerbFlags> kArityTable = {
    {"schedule", {"budget"}, 1, 1},
    {"lint", {}, 1, 2},
    {"serve", {}, 0, 1},
};

TEST(Cli, CheckVerbArityNamesTheStrayArgument) {
  const char* argv[] = {"prog", "schedule", "dwt:8,2", "extra", "junk",
                        "--budget=64"};
  const CliArgs args(6, argv);
  EXPECT_FALSE(args.CheckVerbArity("schedule", kArityTable));
  EXPECT_EQ(args.error(),
            "unexpected argument 'extra' for verb 'schedule' (takes 1)");

  const char* lint[] = {"prog", "lint", "g.txt", "s.txt", "more"};
  const CliArgs lint_args(5, lint);
  EXPECT_FALSE(lint_args.CheckVerbArity("lint", kArityTable));
  EXPECT_EQ(lint_args.error(),
            "unexpected argument 'more' for verb 'lint' (takes 1 to 2)");
}

TEST(Cli, CheckVerbArityReportsMissingArguments) {
  const char* argv[] = {"prog", "schedule", "--budget=64"};
  const CliArgs args(3, argv);
  EXPECT_FALSE(args.CheckVerbArity("schedule", kArityTable));
  EXPECT_EQ(args.error(), "verb 'schedule' takes 1 argument, got 0");
}

TEST(Cli, CheckVerbArityAcceptsTheDeclaredRange) {
  for (const int argc : {2, 3, 4}) {
    const char* argv[] = {"prog", "lint", "g.txt", "s.txt"};
    const CliArgs args(argc, argv);
    EXPECT_EQ(args.CheckVerbArity("lint", kArityTable), argc > 2) << argc;
  }
  const char* serve[] = {"prog", "serve"};
  EXPECT_TRUE(CliArgs(2, serve).CheckVerbArity("serve", kArityTable));
  // A verb absent from the table is not checked.
  const char* other[] = {"prog", "mystery", "a", "b"};
  EXPECT_TRUE(CliArgs(4, other).CheckVerbArity("mystery", kArityTable));
}

}  // namespace
}  // namespace wrbpg
