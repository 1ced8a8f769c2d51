#include "common/options.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace helios
{

uint64_t
parseCount(const std::string &name, const std::string &text,
           uint64_t min, uint64_t max)
{
    // from_chars takes no sign, space or prefix; 0x is peeled here.
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *last = text.data() + text.size();
    uint64_t value = 0;
    const auto [end, error] = std::from_chars(
        text.data() + (hex ? 2 : 0), last, value, hex ? 16 : 10);
    if (error == std::errc() && end == last && value >= min &&
        value <= max)
        return value;
    const bool unbounded = max == UINT64_MAX;
    const std::string wanted =
        unbounded && min == 0   ? "a non-negative integer"
        : unbounded && min == 1 ? "a positive integer"
                                : strFormat("an integer from %llu to %llu",
                                            (unsigned long long)min,
                                            (unsigned long long)max);
    fatal("%s needs %s (got '%s')", name.c_str(), wanted.c_str(),
          text.c_str());
}

double
parseNumber(const std::string &name, const std::string &text)
{
    const char *last = text.data() + text.size();
    double value = 0.0;
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc() || end != last || !std::isfinite(value) ||
        value < 0)
        fatal("%s needs a non-negative number (got '%s')", name.c_str(),
              text.c_str());
    return value;
}

std::string
parseOutputFile(const std::string &name, const std::string &path)
{
    if (!std::ofstream(path, std::ios::app))
        fatal("%s: cannot open '%s' for writing", name.c_str(),
              path.c_str());
    return path;
}

std::string
parseOutputDir(const std::string &name, const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!dir.empty())
        fs::create_directories(dir, ec);
    const fs::path probe = fs::path(dir) / ".helios-write-probe";
    const bool writable =
        !dir.empty() && !ec && bool(std::ofstream(probe));
    fs::remove(probe, ec);
    if (!writable)
        fatal("%s: cannot write to '%s'", name.c_str(), dir.c_str());
    return dir;
}

std::string
outputFileFromEnv(const char *name)
{
    const char *path = std::getenv(name);
    return path && *path ? parseOutputFile(name, path) : std::string();
}

std::string
outputDirFromEnv(const char *name)
{
    const char *dir = std::getenv(name);
    return dir && *dir ? parseOutputDir(name, dir) : std::string();
}

Options::Options(std::string tool_name, std::string operand_synopsis)
    : tool(std::move(tool_name)), operands(std::move(operand_synopsis))
{}

Options &
Options::add(const char *name, const char *meta, Arity arity,
             std::function<void(const std::string &)> apply)
{
    entries.push_back({name, meta, arity, std::move(apply)});
    return *this;
}

Options &
Options::flag(const char *name, bool &on)
{
    return add(name, "", Arity::None, [&on](const auto &) { on = true; });
}

Options &
Options::value(const char *name, const char *meta,
               std::function<void(const std::string &)> apply)
{
    return add(name, meta, Arity::One, std::move(apply));
}

Options &
Options::text(const char *name, const char *meta, std::string &out)
{
    return value(name, meta, [&out](const auto &v) { out = v; });
}

Options &
Options::number(const char *name, const char *meta, double &out)
{
    return value(name, meta,
                 [name, &out](const auto &v) { out = parseNumber(name, v); });
}

Options &
Options::outputFile(const char *name, std::string &out)
{
    return value(name, "FILE", [name, &out](const auto &v) {
        out = parseOutputFile(name, v);
    });
}

Options &
Options::outputDir(const char *name, std::string &out)
{
    return value(name, "DIR", [name, &out](const auto &v) {
        out = parseOutputDir(name, v);
    });
}

Options &
Options::rest(const char *name, const char *meta,
              std::vector<std::string> &out)
{
    return add(name, meta, Arity::Rest,
               [&out](const auto &v) { out.push_back(v); });
}

std::vector<std::string>
Options::parse(int argc, char **argv, size_t min_operands,
               size_t max_operands, int first)
{
    std::vector<std::string> found;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-' ||
            std::isdigit(static_cast<unsigned char>(arg[1]))) {
            found.push_back(arg);
            continue;
        }
        const auto entry =
            std::find_if(entries.begin(), entries.end(),
                         [&](const Entry &e) { return e.name == arg; });
        if (entry == entries.end())
            fail("unknown option '" + arg + "'");
        entry->given = true;
        try {
            if (entry->arity == Arity::None) {
                entry->apply("");
            } else if (entry->arity == Arity::One) {
                if (i + 1 >= argc)
                    fail(arg + " needs an argument");
                entry->apply(argv[++i]);
            } else {
                while (i + 1 < argc)
                    entry->apply(argv[++i]);
            }
        } catch (const FatalError &error) {
            fail(error.what());
        }
    }
    if (found.size() < min_operands)
        fail("missing operand");
    if (found.size() > max_operands)
        fail("unexpected operand '" + found[max_operands] + "'");
    return found;
}

bool
Options::given(const std::string &name) const
{
    return std::any_of(entries.begin(), entries.end(),
                       [&](const Entry &e) {
                           return e.given && e.name == name;
                       });
}

void
Options::fail(const std::string &reason) const
{
    std::fprintf(stderr, "%s: %s\n%s", tool.c_str(), reason.c_str(),
                 usage().c_str());
    std::exit(2);
}

std::string
Options::usage() const
{
    // One word per operand synopsis or flag, wrapped under the tool.
    std::string text = "usage: " + tool;
    const size_t indent = text.size() + 1;
    size_t column = text.size();
    const auto append = [&](const std::string &word) {
        if (column + 1 + word.size() > 78) {
            text.append(1, '\n').append(indent, ' ');
            column = indent;
        } else {
            text += ' ';
            ++column;
        }
        text += word;
        column += word.size();
    };
    if (!operands.empty())
        append(operands);
    for (const Entry &entry : entries)
        append("[" + entry.name +
               (entry.meta.empty() ? "" : " " + entry.meta) + "]");
    return text + "\n";
}

} // namespace helios
