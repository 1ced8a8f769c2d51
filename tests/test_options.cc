/**
 * @file
 * The strict option parser (common/options.hh).
 *
 * What every tool and every HELIOS_* variable relies on: a count is
 * decimal or 0x hex within its range, and a sign, a suffix, junk,
 * overflow or an empty value is an error; a number is finite and
 * non-negative; a name error names the flag; output paths are probed
 * up front without truncating; every error names the flag and quotes
 * the value; and an Options table turns each usage error into exit 2.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/options.hh"

using namespace helios;

namespace
{

/** The FatalError message @a parse throws; "" when it throws none. */
template <class F>
std::string
errorOf(F &&parse)
{
    try {
        parse();
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

/** A scratch path private to the running test. */
std::string
scratchPath(const char *name)
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string dir = ::testing::TempDir() + "options_" +
                            test->name() + "/";
    std::filesystem::create_directories(dir);
    return dir + name;
}

/** argv for Options::parse, owning its strings. */
struct Argv
{
    explicit Argv(std::vector<std::string> list) : words(std::move(list))
    {
        for (std::string &word : words)
            pointers.push_back(word.data());
    }

    int argc() const { return int(pointers.size()); }
    char **argv() { return pointers.data(); }

    std::vector<std::string> words;
    std::vector<char *> pointers;
};

} // namespace

TEST(Options, CountAcceptsDecimalAndHex)
{
    EXPECT_EQ(parseCount("N", "42"), 42u);
    EXPECT_EQ(parseCount("N", "0x100"), 256u);
    EXPECT_EQ(parseCount("N", "0X1f"), 31u);
    EXPECT_EQ(parseCount("N", "010"), 10u); // decimal, not octal
    EXPECT_EQ(parseCount("N", "18446744073709551615"), UINT64_MAX);
}

TEST(Options, CountRejectsSignSuffixJunkOverflowAndEmpty)
{
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "2k", "1e3", "1.5", "abc", "0x",
          "0xg", "0x-1", "18446744073709551616", "0x10000000000000000"})
        EXPECT_THROW(parseCount("N", bad), FatalError) << "'" << bad << "'";
}

TEST(Options, CountEnforcesItsRange)
{
    EXPECT_THROW(parseCount("N", "0"), FatalError); // positive by default
    EXPECT_EQ(parseCount("N", "0", 0), 0u);
    EXPECT_EQ(parseCount("--jobs", "1", 1, 1024), 1u);
    EXPECT_EQ(parseCount("--jobs", "1024", 1, 1024), 1024u);
    EXPECT_THROW(parseCount("--jobs", "1025", 1, 1024), FatalError);
    EXPECT_THROW(parseCount("--jobs", "0", 1, 1024), FatalError);
}

TEST(Options, ErrorsNameTheFlagAndQuoteTheValue)
{
    EXPECT_EQ(errorOf([] { parseCount("--max-insts", "2k"); }),
              "--max-insts needs a positive integer (got '2k')");
    EXPECT_EQ(errorOf([] { parseCount("--window", "-1", 0); }),
              "--window needs a non-negative integer (got '-1')");
    EXPECT_EQ(errorOf([] { parseCount("HELIOS_JOBS", "0", 1, 1024); }),
              "HELIOS_JOBS needs an integer from 1 to 1024 (got '0')");
    EXPECT_EQ(errorOf([] { parseNumber("--tolerance", "2x"); }),
              "--tolerance needs a non-negative number (got '2x')");
    EXPECT_EQ(errorOf([] {
                  parseName("--log-level", "loud", logLevelFromName);
              }),
              "--log-level: unknown log level 'loud' "
              "(trace|debug|info|warn|error|off)");
}

TEST(Options, NumberIsFiniteAndNonNegative)
{
    EXPECT_DOUBLE_EQ(parseNumber("X", "2"), 2.0);
    EXPECT_DOUBLE_EQ(parseNumber("X", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseNumber("X", "1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseNumber("X", "0"), 0.0);
    for (const char *bad :
         {"", "abc", "2x", "-5", "-0.1", "+1", " 1", "inf", "nan", "1e999"})
        EXPECT_THROW(parseNumber("X", bad), FatalError) << "'" << bad << "'";
}

TEST(Options, NameParsesThroughTheGivenLookup)
{
    EXPECT_EQ(parseName("--log-level", "DEBUG", logLevelFromName),
              LogLevel::Debug);
    EXPECT_THROW(parseName("--log-level", "", logLevelFromName),
                 FatalError);
}

TEST(Options, OutputPathsAreProbedWithoutTruncating)
{
    const std::string file = scratchPath("kept.txt");
    std::ofstream(file) << "earlier results";
    EXPECT_EQ(parseOutputFile("--report", file), file);
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "earlier results");

    const std::string dir = scratchPath("made/by/probe");
    EXPECT_EQ(parseOutputDir("--ledger", dir), dir);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_TRUE(std::filesystem::is_empty(dir)); // the probe is removed

    // Nothing can be created under /dev/null, which is not a directory.
    EXPECT_EQ(errorOf([] { parseOutputFile("--trace", "/dev/null/t"); }),
              "--trace: cannot open '/dev/null/t' for writing");
    EXPECT_EQ(errorOf([] { parseOutputDir("--ledger", "/dev/null/d"); }),
              "--ledger: cannot write to '/dev/null/d'");
    EXPECT_THROW(parseOutputFile("--trace", ""), FatalError);
    EXPECT_THROW(parseOutputDir("--ledger", ""), FatalError);
}

TEST(Options, EmptyOutputVariableLeavesTheSinkOff)
{
    const char *name = "HELIOS_OPTIONS_TEST_PATH";
    ::unsetenv(name);
    EXPECT_EQ(outputFileFromEnv(name), "");
    ::setenv(name, "", 1);
    EXPECT_EQ(outputFileFromEnv(name), "");
    EXPECT_EQ(outputDirFromEnv(name), "");
    ::setenv(name, "/dev/null/x", 1);
    EXPECT_THROW(outputFileFromEnv(name), FatalError);
    EXPECT_THROW(outputDirFromEnv(name), FatalError);
    ::unsetenv(name);
}

TEST(Options, ParseFillsTheTableAndCollectsOperands)
{
    bool verbose = false, quiet = false;
    unsigned jobs = 0;
    double tolerance = 2.0;
    std::string name;
    std::vector<std::string> rest;
    Options options("tool", "<in> [out]");
    options.flag("--verbose", verbose)
        .flag("--quiet", quiet)
        .count("--jobs", "N", jobs, 1, 8)
        .number("--tolerance", "PCT", tolerance)
        .text("--name", "NAME", name)
        .rest("--argv", "ARG...", rest);
    Argv args({"tool", "in.s", "--jobs", "0x4", "--verbose", "-7",
               "--name", "-x", "--argv", "--jobs", "a"});
    const std::vector<std::string> operands =
        options.parse(args.argc(), args.argv(), 1, 2);

    // A negative number is an operand; a value may start with '-'.
    EXPECT_EQ(operands, (std::vector<std::string>{"in.s", "-7"}));
    EXPECT_EQ(jobs, 4u);
    EXPECT_TRUE(verbose);
    EXPECT_FALSE(quiet);
    EXPECT_DOUBLE_EQ(tolerance, 2.0);
    EXPECT_EQ(name, "-x");
    EXPECT_EQ(rest, (std::vector<std::string>{"--jobs", "a"}));
    EXPECT_TRUE(options.given("--jobs"));
    EXPECT_FALSE(options.given("--tolerance"));
}

TEST(Options, UsageLineComesFromTheTable)
{
    bool verbose = false;
    uint64_t budget = 0;
    std::string out, name;
    Options options("tool", "<in> [out]");
    options.flag("--verbose", verbose)
        .count("--max-insts", "N", budget)
        .outputFile("--report", out)
        .text("--a-rather-long-option-name", "NAME", name)
        .text("--another-rather-long-option", "NAME", name);
    const std::string usage = options.usage();
    EXPECT_EQ(usage.rfind("usage: tool <in> [out] [--verbose]", 0), 0u)
        << usage;
    for (const char *entry :
         {"[--max-insts N]", "[--report FILE]",
          "[--a-rather-long-option-name NAME]",
          "[--another-rather-long-option NAME]"})
        EXPECT_NE(usage.find(entry), std::string::npos) << usage;
    // Wrapped under the tool name, within 78 columns.
    std::istringstream lines(usage);
    size_t count = 0;
    for (std::string line; std::getline(lines, line); ++count) {
        EXPECT_LE(line.size(), 78u) << line;
        if (count > 0) {
            EXPECT_EQ(line.rfind("            [", 0), 0u) << line;
        }
    }
    EXPECT_GT(count, 1u) << usage;
}

TEST(Options, UsageErrorsExitTwo)
{
    const auto parse = [](std::vector<std::string> words) {
        unsigned jobs = 0;
        Options options("tool", "<in>");
        options.count("--jobs", "N", jobs, 1, 8);
        words.insert(words.begin(), "tool");
        Argv args(std::move(words));
        options.parse(args.argc(), args.argv(), 1, 1);
        std::exit(0);
    };
    EXPECT_EXIT(parse({"in", "--bogus"}), ::testing::ExitedWithCode(2),
                "tool: unknown option '--bogus'\nusage: tool <in>");
    EXPECT_EXIT(parse({"in", "--jobs"}), ::testing::ExitedWithCode(2),
                "tool: --jobs needs an argument");
    EXPECT_EXIT(parse({"in", "--jobs", "9"}),
                ::testing::ExitedWithCode(2),
                "tool: --jobs needs an integer from 1 to 8 \\(got '9'\\)");
    EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                "tool: missing operand");
    EXPECT_EXIT(parse({"in", "out"}), ::testing::ExitedWithCode(2),
                "tool: unexpected operand 'out'");
    EXPECT_EXIT(parse({"in", "--jobs", "8"}), ::testing::ExitedWithCode(0),
                "");
}

TEST(Options, CheckTurnsAFatalErrorIntoExitTwo)
{
    const Options options("tool", "");
    EXPECT_EQ(options.check([] { return 5; }), 5);
    EXPECT_EXIT(options.check([] { fatal("bad spec"); }),
                ::testing::ExitedWithCode(2), "tool: bad spec\nusage: tool");
}
