/**
 * @file
 * One strict parser for command-line options and HELIOS_* variables.
 *
 * Four value parsers decide what a valid count, number, name or
 * output path is. Each throws FatalError naming the flag, variable or
 * operand and quoting the value, so `--jobs 2k` and `HELIOS_JOBS=2k`
 * fail the same way and neither is ever read as 2.
 *
 * An Options table declares a tool's flags once. parse() walks argv,
 * hands each value to its parser, collects the operands, and turns
 * every usage error into `tool: <reason>`, a usage line built from
 * the same table, and exit status 2. There is no `--flag=value` form
 * and there are no short aliases.
 */

#ifndef COMMON_OPTIONS_HH
#define COMMON_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace helios
{

/**
 * A count in [@a min, @a max]: decimal, or hex after `0x`. A sign, a
 * suffix such as `2k`, trailing junk, an empty value or overflow is
 * rejected.
 */
uint64_t parseCount(const std::string &name, const std::string &text,
                    uint64_t min = 1, uint64_t max = UINT64_MAX);

/** A finite, non-negative number (a tolerance, a speedup, seconds). */
double parseNumber(const std::string &name, const std::string &text);

/** What @a fromName (fusionModeFromName, logLevelFromName,
 *  findWorkload) maps @a text to; its error gains the @a name. */
template <class T>
T
parseName(const std::string &name, const std::string &text,
          T (*fromName)(const std::string &))
{
    try {
        return fromName(text);
    } catch (const FatalError &error) {
        fatal("%s: %s", name.c_str(), error.what());
    }
}

/**
 * An output file, checked before any work so a long run never ends
 * by losing its results. The probe opens in append mode: it may
 * create the file but never truncates it.
 */
std::string parseOutputFile(const std::string &name,
                            const std::string &path);

/** An output directory, created if absent and probed for writing. */
std::string parseOutputDir(const std::string &name,
                           const std::string &dir);

/** Output-file variable @a name: "" when unset or empty (that sink
 *  stays off), else checked as parseOutputFile() checks a flag. */
std::string outputFileFromEnv(const char *name);

/** The same for an output directory (HELIOS_LEDGER). */
std::string outputDirFromEnv(const char *name);

/** One tool's flags, declared once as a table. */
class Options
{
  public:
    /** @a tool prefixes every error; @a operands is the operand
     *  synopsis the usage line shows. */
    Options(std::string tool, std::string operands);

    /** A flag without a value: sets @a on. */
    Options &flag(const char *name, bool &on);

    /** A value handed to @a apply, which throws FatalError on a bad
     *  one. @a meta is the value's placeholder in the usage line. */
    Options &value(const char *name, const char *meta,
                   std::function<void(const std::string &)> apply);

    /** A free-form value: an input path, a name matched later. */
    Options &text(const char *name, const char *meta, std::string &out);

    template <class T>
    Options &
    count(const char *name, const char *meta, T &out, uint64_t min = 1,
          uint64_t max = std::numeric_limits<T>::max())
    {
        return value(name, meta, [name, &out, min, max](const auto &v) {
            out = T(parseCount(name, v, min, max));
        });
    }

    Options &number(const char *name, const char *meta, double &out);

    template <class T>
    Options &
    oneOf(const char *name, const char *meta, T &out,
          T (*fromName)(const std::string &))
    {
        return value(name, meta, [name, &out, fromName](const auto &v) {
            out = parseName(name, v, fromName);
        });
    }

    Options &outputFile(const char *name, std::string &out);
    Options &outputDir(const char *name, std::string &out);

    /** Every argument after @a name, options or not, goes to @a out. */
    Options &rest(const char *name, const char *meta,
                  std::vector<std::string> &out);

    /**
     * Apply argv[@a first..@a argc) and return the operands, of which
     * there must be @a min_operands to @a max_operands. An argument
     * is an option when it starts with '-' and a non-digit, so a
     * negative number reaches its operand's parser. Every usage
     * error calls fail().
     */
    std::vector<std::string> parse(int argc, char **argv,
                                   size_t min_operands,
                                   size_t max_operands, int first = 1);

    /** What @a parse returns; a FatalError it throws becomes fail().
     *  For operands, and for checks that span several flags. */
    template <class F>
    decltype(auto)
    check(F &&parse) const
    {
        try {
            return parse();
        } catch (const FatalError &error) {
            fail(error.what());
        }
    }

    /** True when parse() met option @a name. */
    bool given(const std::string &name) const;

    /** Print `tool: <reason>` and the usage line; exit 2. */
    [[noreturn]] void fail(const std::string &reason) const;

    std::string usage() const;

  private:
    enum class Arity { None, One, Rest };

    struct Entry
    {
        std::string name;
        std::string meta;
        Arity arity;
        std::function<void(const std::string &)> apply;
        bool given = false;
    };

    Options &add(const char *name, const char *meta, Arity arity,
                 std::function<void(const std::string &)> apply);

    std::string tool;
    std::string operands;
    std::vector<Entry> entries;
};

} // namespace helios

#endif // COMMON_OPTIONS_HH
