/**
 * @file
 * A minimal JSON value model, parser and writer.
 *
 * Just enough JSON for the telemetry layer: RunReport files are
 * written, re-parsed (round-trip tested) and diffed by
 * bench/compare_reports without external dependencies. Integers are
 * kept exact up to the full uint64_t/int64_t range — simulator
 * counters do not survive a detour through double.
 */

#ifndef COMMON_JSON_HH
#define COMMON_JSON_HH

#include <climits>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace helios
{

/** One JSON value (null / bool / integer / real / string / array /
 *  object). Objects keep their keys sorted so output is
 *  deterministic. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Uint,  ///< non-negative integer literal
        Int,   ///< negative integer literal
        Real,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool value) : kind_(Kind::Bool), boolean(value) {}
    JsonValue(uint64_t value) : kind_(Kind::Uint), uinteger(value) {}
    JsonValue(int64_t value);
    JsonValue(int value) : JsonValue(int64_t(value)) {}
    JsonValue(unsigned value) : JsonValue(uint64_t(value)) {}
    JsonValue(double value) : kind_(Kind::Real), real(value) {}
    JsonValue(std::string value)
        : kind_(Kind::String), text(std::move(value))
    {}
    JsonValue(const char *value) : JsonValue(std::string(value)) {}

    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isString() const { return kind_ == Kind::String; }
    bool isNumber() const
    {
        return kind_ == Kind::Uint || kind_ == Kind::Int ||
               kind_ == Kind::Real;
    }

    // Typed accessors; fatal() on kind mismatch so malformed report
    // files fail with a message instead of corrupting a comparison.
    bool asBool() const;
    uint64_t asUint() const;
    int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;

    // ---- array ----
    size_t size() const;
    const JsonValue &at(size_t index) const;
    void push(JsonValue value);

    // ---- object ----
    bool has(const std::string &key) const;
    /** fatal() when the key is missing. */
    const JsonValue &at(const std::string &key) const;
    /** Null value when the key is missing. */
    const JsonValue &get(const std::string &key) const;
    void set(const std::string &key, JsonValue value);
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return fields;
    }

    bool operator==(const JsonValue &other) const;

    /** Serialize; @a indent > 0 pretty-prints the arrays and objects
     *  nested less than @a compact_depth levels deep and writes each
     *  deeper one compactly, on one line. */
    std::string dump(int indent = 0, int compact_depth = INT_MAX) const;

    /** Parse a complete JSON document; fatal() on syntax errors. */
    static JsonValue parse(const std::string &text);

  private:
    void write(std::string &out, int indent, int depth,
               int compact_depth) const;

    Kind kind_ = Kind::Null;
    bool boolean = false;
    uint64_t uinteger = 0;
    int64_t integer = 0;
    double real = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    // Sorted by key (std::vector tolerates the incomplete element
    // type where node containers would not be guaranteed to).
    std::vector<std::pair<std::string, JsonValue>> fields;
};

/** Escape @a text for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &text);

/**
 * The shortest decimal representation of a finite double that parses
 * back (strtod) to exactly the same value — "0.1" instead of the 17
 * significant digits %.17g would print. The JSON writer uses this for
 * every Real; exposed for tests and other emitters.
 */
std::string formatShortestDouble(double value);

} // namespace helios

#endif // COMMON_JSON_HH
