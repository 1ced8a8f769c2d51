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
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace helios
{

/** One JSON value (null / bool / integer / real / string / array /
 *  object). Objects keep their keys sorted so output is
 *  deterministic. A value is one variant over the eight kinds, so it
 *  takes 40 bytes whatever it holds, and an object member 72. */
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
    JsonValue(bool value) : value_(std::in_place_type<bool>, value) {}
    JsonValue(uint64_t value) : value_(std::in_place_type<uint64_t>, value)
    {}
    JsonValue(int64_t value);
    JsonValue(int value) : JsonValue(int64_t(value)) {}
    JsonValue(unsigned value) : JsonValue(uint64_t(value)) {}
    JsonValue(double value) : value_(std::in_place_type<double>, value) {}
    JsonValue(std::string value)
        : value_(std::in_place_type<std::string>, std::move(value))
    {}
    JsonValue(const char *value) : JsonValue(std::string(value)) {}

    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return Kind(value_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isString() const { return kind() == Kind::String; }
    bool isNumber() const
    {
        return kind() == Kind::Uint || kind() == Kind::Int ||
               kind() == Kind::Real;
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
    /** The sorted members; empty when this is not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    bool operator==(const JsonValue &other) const;

    /** Serialize; @a indent > 0 pretty-prints the arrays and objects
     *  nested less than @a compact_depth levels deep and writes each
     *  deeper one compactly, on one line. */
    std::string dump(int indent = 0, int compact_depth = INT_MAX) const;

    /** Parse a complete JSON document; fatal() on syntax errors and
     *  on arrays and objects nested more than 512 levels deep (the
     *  files this repository writes nest about 6), so a hostile file
     *  gets a named error instead of a stack overflow. No parsed
     *  array or object holds spare capacity. */
    static JsonValue parse(const std::string &text);

  private:
    class Parser;

    // std::vector tolerates the incomplete element type where node
    // containers would not be guaranteed to.
    using Items = std::vector<JsonValue>;
    using Fields = std::vector<std::pair<std::string, JsonValue>>; ///< by key
    using Value = std::variant<std::monostate, bool, uint64_t, int64_t,
                               double, std::string, Items, Fields>;

    // kind() is the variant's index.
    template <Kind K>
    using Alternative = std::variant_alternative_t<size_t(K), Value>;
    static_assert(std::is_same_v<Alternative<Kind::Null>, std::monostate> &&
                  std::is_same_v<Alternative<Kind::Bool>, bool> &&
                  std::is_same_v<Alternative<Kind::Uint>, uint64_t> &&
                  std::is_same_v<Alternative<Kind::Int>, int64_t> &&
                  std::is_same_v<Alternative<Kind::Real>, double> &&
                  std::is_same_v<Alternative<Kind::String>, std::string> &&
                  std::is_same_v<Alternative<Kind::Array>, Items> &&
                  std::is_same_v<Alternative<Kind::Object>, Fields> &&
                  std::variant_size_v<Value> == 8);

    void write(std::string &out, int indent, int depth,
               int compact_depth) const;

    Value value_;
};

static_assert(sizeof(JsonValue) <= 40);

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
