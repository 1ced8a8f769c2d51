#include "harness/report.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "ledger/ledger.hh"
#include "telemetry/host_trace.hh"

namespace helios
{

Table::Table(std::vector<std::string> hs) : headers(std::move(hs)) {}

void
Table::addRow(std::vector<std::string> cells)
{
    helios_assert(cells.size() == headers.size(),
                  "row width mismatch");
    rows.push_back(std::move(cells));
}

std::string
Table::num(double value, int digits)
{
    return strFormat("%.*f", digits, value);
}

std::string
Table::pct(double ratio, int digits)
{
    return strFormat("%.*f%%", digits, ratio * 100.0);
}

std::string
Table::toString() const
{
    std::vector<size_t> widths(headers.size());
    for (size_t i = 0; i < headers.size(); ++i)
        widths[i] = headers[i].size();
    for (const auto &row : rows)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            out << cells[i];
            out << std::string(widths[i] - cells[i].size() + 2, ' ');
        }
        out << '\n';
    };
    emit(headers);
    size_t total = 0;
    for (size_t width : widths)
        total += width + 2;
    out << std::string(total, '-') << '\n';
    for (const auto &row : rows)
        emit(row);
    return out.str();
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

void
printBenchHeader(const std::string &title,
                 const std::string &description)
{
    // Every bench prints this header first, so it doubles as the
    // hook that rejects a bad HELIOS_JOBS / HELIOS_MAX_INSTS /
    // HELIOS_HEARTBEAT before any work (a usage error: exit 2) and
    // arms HELIOS_HOST_TRACE / HELIOS_METRICS collection and the
    // HELIOS_LEDGER run ledger.
    try {
        validateRunEnvironment();
    } catch (const FatalError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        std::exit(2);
    }
    initHostTelemetryFromEnv();
    initLedgerFromEnv();
    std::printf("==================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", description.c_str());
    std::printf("Machine: Icelake-class (Table II): 8-wide fetch/"
                "decode, 5-wide rename,\n  AQ=140 ROB=352 IQ=160 "
                "LQ=128 SQ=72, TAGE + store-sets, 48K/512K/2M caches\n");
    std::printf("==================================================\n");
}

void
printMatrixTiming(size_t cells, unsigned jobs, double seconds)
{
    std::printf("\n[matrix] %zu cells on %u worker thread%s in %.2f s "
                "(%.2f cells/s)\n",
                cells, jobs, jobs == 1 ? "" : "s", seconds,
                seconds > 0.0 ? double(cells) / seconds : 0.0);
}

} // namespace helios
