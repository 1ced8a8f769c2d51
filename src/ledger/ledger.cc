#include "ledger/ledger.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/options.hh"

namespace fs = std::filesystem;

namespace helios
{

namespace
{

/** Write @a text to @a path atomically: temp file + rename, so a
 *  crash mid-write can never leave a half-written file at @a path. */
void
writeFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("ledger: cannot open '%s' for writing", tmp.c_str());
        out << text;
        out.flush();
        if (!out)
            fatal("ledger: write to '%s' failed", tmp.c_str());
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fatal("ledger: cannot rename '%s' into place: %s", tmp.c_str(),
              ec.message().c_str());
}

/** Parse one index line into a record; nullptr on any damage (the
 *  caller warns and skips — recovery must never throw). */
std::unique_ptr<LedgerRecord>
parseIndexLine(const std::string &line)
{
    try {
        const JsonValue value = JsonValue::parse(line);
        if (value.get("schema").isNull() ||
            value.at("schema").asString() != "helios-ledger")
            return nullptr;
        auto record = std::make_unique<LedgerRecord>();
        record->key.programHash = value.at("program_hash").asUint();
        record->key.configHash = value.at("config_hash").asUint();
        record->key.budget = value.at("budget").asUint();
        record->key.build = value.at("build").asString();
        record->seq = value.at("seq").asUint();
        record->blob = value.at("blob").asString();
        record->meta = value.at("meta");
        return record;
    } catch (const FatalError &) {
        return nullptr;
    }
}

JsonValue
indexLineJson(const LedgerRecord &record)
{
    JsonValue value = JsonValue::object();
    value.set("schema", JsonValue(std::string("helios-ledger")));
    value.set("program_hash", JsonValue(record.key.programHash));
    value.set("config_hash", JsonValue(record.key.configHash));
    value.set("budget", JsonValue(record.key.budget));
    value.set("build", JsonValue(record.key.build));
    value.set("seq", JsonValue(record.seq));
    value.set("blob", JsonValue(record.blob));
    value.set("meta", record.meta);
    return value;
}

/** File names must not escape the ledger directory; the build stamp
 *  is the only free-form key component. */
std::string
sanitizeForFileName(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '_' || c == '.';
        out += safe ? c : '_';
    }
    return out.empty() ? std::string("unknown") : out;
}

} // namespace

std::string
LedgerKey::text() const
{
    return strFormat("p%016llx-c%016llx-b%llu-%s",
                     (unsigned long long)programHash,
                     (unsigned long long)configHash,
                     (unsigned long long)budget,
                     sanitizeForFileName(build).c_str());
}

Ledger::Ledger(const std::string &dir) : dir_(dir)
{
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / "blobs", ec);
    if (ec)
        fatal("ledger: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());

    std::ifstream in(indexPath(), std::ios::binary);
    if (!in)
        return; // fresh ledger
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    bool damaged = false;
    size_t start = 0, line_no = 0;
    while (start < text.size()) {
        ++line_no;
        const size_t newline = text.find('\n', start);
        if (newline == std::string::npos) {
            // No terminating newline: the classic crash-mid-append
            // truncated tail. Drop it.
            warn("ledger: %s: dropping truncated final line %zu "
                 "(crash during append?)",
                 indexPath().c_str(), line_no);
            ++warnings_;
            damaged = true;
            break;
        }
        const std::string line = text.substr(start, newline - start);
        start = newline + 1;
        if (line.empty())
            continue;
        std::unique_ptr<LedgerRecord> record = parseIndexLine(line);
        if (!record) {
            warn("ledger: %s: skipping malformed line %zu",
                 indexPath().c_str(), line_no);
            ++warnings_;
            damaged = true;
            continue;
        }
        if (findLocked(record->key)) {
            warn("ledger: %s: duplicate key %s at line %zu "
                 "(keeping the first record)",
                 indexPath().c_str(), record->key.text().c_str(),
                 line_no);
            ++warnings_;
            damaged = true;
            continue;
        }
        nextSeq_ = std::max(nextSeq_, record->seq + 1);
        records_.push_back(std::move(*record));
    }

    // Compact a damaged index right away so the next append lands on
    // a clean tail instead of concatenating onto garbage.
    if (damaged)
        rewriteIndexLocked();
}

std::string
Ledger::indexPath() const
{
    return (fs::path(dir_) / "index.jsonl").string();
}

const LedgerRecord *
Ledger::findLocked(const LedgerKey &key) const
{
    for (const LedgerRecord &record : records_)
        if (record.key == key)
            return &record;
    return nullptr;
}

const LedgerRecord *
Ledger::find(const LedgerKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findLocked(key);
}

bool
Ledger::record(const LedgerKey &key, JsonValue meta,
               const std::string &blob_text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const LedgerRecord *existing = findLocked(key)) {
        ++hits_;
        // Self-heal: a hit whose blob rotted away is re-materialized
        // from the fresh run (determinism: same key, same content).
        const fs::path blob_path = fs::path(dir_) / existing->blob;
        std::error_code ec;
        if (!fs::exists(blob_path, ec))
            writeFileAtomic(blob_path.string(), blob_text);
        return false;
    }

    LedgerRecord record;
    record.key = key;
    record.seq = nextSeq_++;
    record.meta = std::move(meta);
    record.blob = "blobs/" + key.text() + ".json";

    // Blob first, index line second: a crash in between leaves an
    // orphan blob (gc cleans those up), never an index entry pointing
    // at a half-written blob.
    writeFileAtomic((fs::path(dir_) / record.blob).string(), blob_text);

    std::ofstream out(indexPath(), std::ios::binary | std::ios::app);
    if (!out)
        fatal("ledger: cannot open '%s' for append",
              indexPath().c_str());
    out << indexLineJson(record).dump(0) << '\n';
    out.flush();
    if (!out)
        fatal("ledger: append to '%s' failed", indexPath().c_str());

    records_.push_back(std::move(record));
    ++recorded_;
    return true;
}

std::string
Ledger::loadBlob(const LedgerRecord &record) const
{
    std::ifstream in(fs::path(dir_) / record.blob, std::ios::binary);
    if (!in) {
        warn("ledger: blob '%s' for key %s is missing or unreadable",
             record.blob.c_str(), record.key.text().c_str());
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
Ledger::rewriteIndexLocked() const
{
    std::string text;
    for (const LedgerRecord &record : records_)
        text += indexLineJson(record).dump(0) + "\n";
    writeFileAtomic(indexPath(), text);
}

size_t
Ledger::gc()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::set<std::string> referenced;
    for (const LedgerRecord &record : records_)
        referenced.insert(
            (fs::path(dir_) / record.blob).lexically_normal().string());

    size_t removed = 0;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(fs::path(dir_) / "blobs", ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string path =
            entry.path().lexically_normal().string();
        if (referenced.count(path))
            continue;
        std::error_code remove_ec;
        if (fs::remove(entry.path(), remove_ec))
            ++removed;
    }
    rewriteIndexLocked();
    return removed;
}

// ---------------------------------------------------------------------
// Global armed instance
// ---------------------------------------------------------------------

namespace
{

std::unique_ptr<Ledger> &
globalSlot()
{
    static std::unique_ptr<Ledger> instance;
    return instance;
}

} // namespace

Ledger *
Ledger::global()
{
    return globalSlot().get();
}

Ledger *
Ledger::arm(const std::string &dir)
{
    globalSlot() = std::make_unique<Ledger>(dir);
    return globalSlot().get();
}

void
Ledger::disarm()
{
    globalSlot().reset();
}

void
initLedgerFromEnv()
{
    if (Ledger::global())
        return;
    const std::string dir = outputDirFromEnv("HELIOS_LEDGER");
    if (!dir.empty())
        Ledger::arm(dir);
}

} // namespace helios
